//go:build !race

package atomicx

// raceBuild is false in normal builds, where PlainStore is a plain
// word write.
const raceBuild = false
