//go:build race

package mem

// raceBuild keeps Heap.Store atomic under the race detector, which
// cannot see that the CAS following a link store orders it: a
// speculative pop's Load of a link word that another thread is
// rewriting is the benign race the anchor's tag resolves, and the
// detector would report it. The toolchain sets the tag with -race.
const raceBuild = true
