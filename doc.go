// Package repro is a Go reproduction of Maged M. Michael, "Scalable
// Lock-Free Dynamic Memory Allocation" (PLDI 2004).
//
// The public API lives in package repro/alloc: the lock-free allocator
// (repro/internal/core) and the three baseline allocators the paper
// compares against, all over a simulated word-addressed heap
// (repro/internal/mem). See README.md for a tour, DESIGN.md for the
// system inventory and experiment index, and EXPERIMENTS.md for
// paper-vs-measured results.
//
// The root package contains no code. cmd/benchmal regenerates the
// tables and figures of the paper's evaluation section; go run
// ./benchmark is the performance ledger.
package repro
