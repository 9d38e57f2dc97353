//go:build !race

package atomicx

// raceBuild is false in normal builds, where PlainStore and PlainLoad
// are plain word accesses.
const raceBuild = false
