package main

import (
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

var allocatorLine = regexp.MustCompile(`(?m)^allocator: mallocs=(\d+) frees=(\d+);`)

// TestQuickstart runs the tour and checks what it prints: the payload
// read back, and a census taken after every handle was released, so its
// counters balance.
func TestQuickstart(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	read := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		read <- string(b)
	}()
	main()
	os.Stdout = stdout
	w.Close()
	out := <-read

	if !regexp.MustCompile(`(?m)^allocated mem\.Ptr\(0x[0-9a-f]+\), payload\[3\] = 9$`).MatchString(out) {
		t.Errorf("no payload line:\n%s", out)
	}
	if m := allocatorLine.FindStringSubmatch(out); m == nil || m[1] != m[2] {
		t.Errorf("census allocator line %q: want mallocs == frees\n%s", m, out)
	}
	if !strings.Contains(out, "OS layer (words):") {
		t.Errorf("no OS-layer table:\n%s", out)
	}
}
