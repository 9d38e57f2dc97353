// Killtolerance: demonstrates the paper's headline availability
// property (§1): "a lock-free memory allocator guarantees progress
// regardless of whether some threads are delayed or even killed."
//
// Victim goroutines die (abandon execution forever) at randomly chosen
// points *between atomic steps inside malloc and free* — while holding
// block reservations, while a superblock is half-installed, between a
// free's link write and its CAS. Worker goroutines keep allocating
// through the carnage. With any lock-based allocator, a thread dying
// inside malloc would leave the lock held and the process would hang.
//
//	go run ./examples/killtolerance
package main

import (
	"fmt"

	"repro/alloc"
	"repro/internal/sched"
)

func main() {
	fmt.Println("killing 16 threads at random points inside malloc/free,")
	fmt.Println("while 4 survivors each complete 200,000 operations...")
	// The harness takes the allocator as the caller built it; any
	// registered backend with kill points ("buddy" too) fits here.
	a, err := alloc.New("lockfree", alloc.Options{Processors: 4})
	if err != nil {
		fmt.Println("FAILED:", err)
		return
	}
	target := alloc.HarnessOf(a)
	res, err := sched.Run(sched.Plan{
		Victims:        16,
		Survivors:      4,
		OpsPerSurvivor: 200000,
		OpsBeforeKill:  500,
		Seed:           42,
		Point:          -1,
	}, target)
	if err != nil {
		fmt.Println("FAILED: a kill blocked the allocator:", err)
		return
	}
	fmt.Println("\nsurvivors finished; kills by instrumented point:")
	total := 0
	for _, point := range target.HookPoints() {
		if n := res.Kills[point]; n > 0 {
			fmt.Printf("  %-28s %d\n", point, n)
			total += n
		}
	}
	fmt.Printf("\n%d kills fired; survivors completed %d operations\n", total, res.SurvivorOps)
	fmt.Printf("memory lost to the kills (leak, never corruption): %d KiB\n", res.LeakedWords*8/1024)
	if res.InvariantErr != nil {
		fmt.Println("FAILED: structural corruption:", res.InvariantErr)
		return
	}
	fmt.Println("post-mortem structural check: all superblock free lists intact")
}
