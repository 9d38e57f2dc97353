//go:build !race

package mem

// raceBuild is false in normal builds, where Heap.Store is a plain
// word write published by the CAS that follows it (see Store).
const raceBuild = false
