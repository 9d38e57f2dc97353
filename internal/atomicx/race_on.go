//go:build race

package atomicx

// raceBuild keeps PlainStore atomic under the race detector, which
// cannot see what publishes a plain store: the CAS following a heap
// link store (a speculative pop's Load of a link word another thread
// is rewriting is the benign race the anchor's tag resolves), or
// nothing at all for a magazine count the census reads while its owner
// churns. The detector would report both. The toolchain sets the tag
// with -race.
const raceBuild = true
