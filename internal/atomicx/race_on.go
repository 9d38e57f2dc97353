//go:build race

package atomicx

// raceBuild keeps PlainStore and PlainLoad atomic under the race
// detector, which would report a plain access racing with an atomic one
// on a Go word: a magazine count the census reads while its owner
// churns, or the heap's bump pointer, which every heap-word access reads
// while another thread's bump swings it by CAS. (Heap words themselves
// are not Go memory, so the detector does not see Heap.Store's.) The
// toolchain sets the tag with -race.
const raceBuild = true
