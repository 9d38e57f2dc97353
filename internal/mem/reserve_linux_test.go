package mem

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
)

// TestRefusedReservation: when the OS refuses the reservation, NewHeap
// panics with an error that wraps ErrOutOfMemory and names the byte
// count and the errno. The test binary re-runs this test in a child that
// lowers its address-space limit to 8 GiB, half a default heap, first.
func TestRefusedReservation(t *testing.T) {
	const child = "MEM_TEST_REFUSED_RESERVATION"
	if os.Getenv(child) != "" {
		lim := syscall.Rlimit{Cur: 8 << 30, Max: 8 << 30}
		if err := syscall.Setrlimit(syscall.RLIMIT_AS, &lim); err != nil {
			t.Fatal(err)
		}
		defer func() {
			err, _ := recover().(error)
			fmt.Println("wraps ErrOutOfMemory:", errors.Is(err, ErrOutOfMemory))
			panic(err)
		}()
		NewHeap(Config{})
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRefusedReservation$", "-test.v")
	cmd.Env = append(os.Environ(), child+"=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("the child exited 0:\n%s", out)
	}
	for _, want := range []string{
		"wraps ErrOutOfMemory: true",
		fmt.Sprintf("panic: mem: the OS refused a reservation of %d bytes: %v: %v",
			uint64(16<<30), syscall.ENOMEM, ErrOutOfMemory),
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("the child's output lacks %q:\n%s", want, out)
		}
	}
}
