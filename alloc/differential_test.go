package alloc

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/shadow"
)

// The registry's differential fuzzer: fuzz bytes decode to one
// malloc/free stream, replayed in order on one goroutine on a fresh
// allocator of every backend under the shadow oracle. The backends
// differ in layout, not in what they promise, so every step must have
// the same outcome on all six: a block for a size a heap can serve, an
// error wrapping mem.ErrOutOfMemory for one it cannot. A crasher lands
// in testdata/fuzz/FuzzDifferential, and go test -run replays it.

const (
	// diffThreads is the number of handles per allocator. An op names
	// one, so a block is often freed by another handle than its own.
	diffThreads = 4
	// diffMaxBytes caps an input at 32,767 ops.
	diffMaxBytes = 1 << 16
	// diffLiveBudget caps the requested bytes live at once, so no
	// servable request can run a 512 MiB heap dry.
	diffLiveBudget = 4 << 20
	// diffSizeCodes is the number of servable size codes; the two codes
	// above them name sizes no heap can serve.
	diffSizeCodes = 254
)

const (
	opMalloc = iota
	opFree
	opFreeNil
)

// diffOp is one step of a decoded stream.
type diffOp struct {
	kind   int
	thread int
	// code is an opMalloc's size code (diffSize).
	code byte
	// live is an opFree's index in the live list, which appends a block
	// at each servable malloc and moves its last block into a freed slot.
	live int
}

func (op diffOp) String() string {
	switch op.kind {
	case opMalloc:
		return fmt.Sprintf("handle %d: malloc code %d", op.thread, op.code)
	case opFree:
		return fmt.Sprintf("handle %d: free live block %d", op.thread, op.live)
	}
	return fmt.Sprintf("handle %d: Free(0)", op.thread)
}

// diffSize maps a size code to a request. Codes below diffSizeCodes are
// quadratic over 1 B .. 64 KiB, dense among the small classes and past
// the 8184 B small/large boundary from code 90 up. The last two are the
// heap's largest region as payload, one word too many with its prefix,
// and 2^64-1; no backend can serve either.
func diffSize(code byte, h *mem.Heap) uint64 {
	const top = diffSizeCodes - 1
	switch {
	case code < diffSizeCodes:
		k := uint64(code)
		return 1 + k*k*(64<<10-1)/(top*top)
	case code == diffSizeCodes:
		return h.MaxRegionWords() * mem.WordBytes
	}
	return ^uint64(0)
}

// decodeDiff turns fuzz bytes into a magazine size and a stream. The
// first byte picks Options.LockFree.MagazineSize, 0 or 8; after it each
// op is two bytes. The first byte's low two bits pick the handle: with
// its top bit set the op frees the live block the second byte names
// (modulo the live count), with its other bits clear it is a Free(0),
// and otherwise it mallocs size code the second byte. A free with
// nothing live is dropped, and a servable malloc that would take the
// live bytes past diffLiveBudget frees instead, so the stream frees
// only live blocks and never runs a heap dry.
func decodeDiff(data []byte) (magazine int, ops []diffOp) {
	if len(data) == 0 {
		return 0, nil
	}
	magazine = int(data[0]&1) * 8
	var live []uint64 // each live block's requested bytes, in live-list order
	var liveBytes uint64
	for i := 1; i+1 < len(data); i += 2 {
		op := diffOp{thread: int(data[i] & (diffThreads - 1))}
		switch {
		case data[i]&0x80 != 0:
			op.kind = opFree
		case data[i]&^(diffThreads-1) == 0:
			op.kind = opFreeNil
		default:
			op.kind, op.code = opMalloc, data[i+1]
			if op.code < diffSizeCodes {
				size := diffSize(op.code, nil)
				if liveBytes+size > diffLiveBudget {
					op.kind = opFree
				} else {
					live = append(live, size)
					liveBytes += size
				}
			}
		}
		if op.kind == opFree {
			if len(live) == 0 {
				continue
			}
			op.live = int(data[i+1]) % len(live)
			liveBytes -= live[op.live]
			live[op.live] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		ops = append(ops, op)
	}
	return magazine, ops
}

// encodeDiff is decodeDiff's inverse for a stream that keeps within
// its rules.
func encodeDiff(magazine int, ops []diffOp) []byte {
	data := []byte{byte(magazine / 8)}
	for _, op := range ops {
		switch op.kind {
		case opMalloc:
			data = append(data, 1<<2|byte(op.thread), op.code)
		case opFree:
			data = append(data, 0x80|byte(op.thread), byte(op.live))
		default:
			data = append(data, byte(op.thread), 0)
		}
	}
	return data
}

// diffCode is the smallest size code whose request holds size bytes.
func diffCode(size uint64) byte {
	c := byte(0)
	for diffSize(c, nil) < size {
		c++
	}
	return c
}

// diffSeeds is FuzzDifferential's seed corpus.
func diffSeeds() [][]byte {
	// A random mix on one live list of at most about 100 blocks, 8 B to
	// 2 KiB: seed 99, 20,000 ops, the handles taking turns.
	rng := rand.New(rand.NewSource(99))
	var mix []diffOp
	live := 0
	for i := 0; i < 20000; i++ {
		if live > 0 && (rng.Intn(2) == 0 || live > 100) {
			mix = append(mix, diffOp{kind: opFree, thread: i % diffThreads, live: rng.Intn(live)})
			live--
		} else {
			mix = append(mix, diffOp{kind: opMalloc, thread: i % diffThreads, code: diffCode(8 << rng.Intn(9))})
			live++
		}
	}
	// Producer-consumer: handle 0 mallocs a batch across the small and
	// large sizes, handle 1 frees all of it.
	var prodcons []diffOp
	for round := 0; round < 16; round++ {
		for i := 0; i < 32; i++ {
			prodcons = append(prodcons, diffOp{kind: opMalloc, code: byte((round*32 + i*7) % diffSizeCodes)})
		}
		for i := 0; i < 32; i++ {
			prodcons = append(prodcons, diffOp{kind: opFree, thread: 1, live: 0})
		}
	}
	// Both unservable sizes, on every handle, among servable ones.
	var unservable []diffOp
	for th := 0; th < diffThreads; th++ {
		unservable = append(unservable,
			diffOp{kind: opMalloc, thread: th, code: diffSizeCodes},
			diffOp{kind: opMalloc, thread: th, code: byte(th * 80)},
			diffOp{kind: opMalloc, thread: th, code: diffSizeCodes + 1},
			diffOp{kind: opFreeNil, thread: th})
	}
	return [][]byte{
		encodeDiff(0, mix),
		encodeDiff(0, prodcons),
		encodeDiff(8, prodcons),
		encodeDiff(0, unservable),
	}
}

// TestDiffSeedsDecode: each seed decodes to the stream it was built
// from, so the corpus replays what diffSeeds describes.
func TestDiffSeedsDecode(t *testing.T) {
	for i, seed := range diffSeeds() {
		magazine, ops := decodeDiff(seed)
		if again := encodeDiff(magazine, ops); string(again) != string(seed) {
			t.Errorf("seed %d: decoding drops or rewrites ops (%d bytes, %d ops)", i, len(seed), len(ops))
		}
	}
}

// FuzzDifferential replays a decoded stream on every registry backend
// (diffReplay).
func FuzzDifferential(f *testing.F) {
	for _, seed := range diffSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > diffMaxBytes {
			data = data[:diffMaxBytes]
		}
		magazine, ops := decodeDiff(data)
		diffReplay(t, magazine, ops)
	})
}

// diffBackend is one allocator under test: its handles and the
// violations its oracle reported.
type diffBackend struct {
	a       Allocator
	threads [diffThreads]Thread
	vs      []shadow.Violation
}

// diffBlock is a live block: the step that allocated it, which names
// its stamp, its requested words, and its address on each backend.
type diffBlock struct {
	step  int
	words uint64
	ptrs  []mem.Ptr
}

func diffStamp(step int, word uint64) uint64 { return uint64(step)<<20 | word }

// check fails the input if a stamp of the block at p on b has changed.
func (blk diffBlock) check(t *testing.T, step int, b *diffBackend, p mem.Ptr) {
	for j, got := range b.a.Heap().Words(p, blk.words) {
		if want := diffStamp(blk.step, uint64(j)); got != want {
			t.Helper()
			t.Fatalf("step %d: %s: word %d of the block of step %d at %v reads %#x, want %#x",
				step, b.a.Name(), j, blk.step, p, got, want)
		}
	}
}

// diffReplay runs ops on a fresh allocator of each backend, all with
// magazine as the lock-free magazine size, and fails at the first step
// whose outcome differs between backends or from what the size allows,
// at the first stamp that changed, and at the first oracle violation.
// Then it frees what is live, unregisters the handles, and requires
// each backend's oracle and its own check to find it clean.
func diffReplay(t *testing.T, magazine int, ops []diffOp) {
	// The last input's heaps are garbage, but their mappings go only when
	// a collection runs their finalizers, and a fuzz worker's own buffers
	// keep the collector's goal far above what one input allocates.
	runtime.GC()
	bs := make([]*diffBackend, len(backends))
	for i, name := range Names() {
		b := &diffBackend{}
		a, err := New(name, Options{
			Processors:   diffThreads,
			HeapConfig:   mem.Config{TotalWordsLog2: 26},
			LockFree:     core.Config{MagazineSize: magazine},
			Shadow:       true,
			ShadowConfig: shadow.Config{OnViolation: func(v shadow.Violation) { b.vs = append(b.vs, v) }},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer HarnessOf(a).Oracle().Close()
		b.a = a
		for j := range b.threads {
			b.threads[j] = a.NewThread()
		}
		bs[i] = b
	}
	var live []diffBlock
	errs := make([]error, len(bs))
	for step, op := range ops {
		switch op.kind {
		case opFreeNil:
			for _, b := range bs {
				b.threads[op.thread].Free(0)
			}
		case opFree:
			blk := live[op.live]
			for i, b := range bs {
				blk.check(t, step, b, blk.ptrs[i])
				b.threads[op.thread].Free(blk.ptrs[i])
			}
			live[op.live] = live[len(live)-1]
			live = live[:len(live)-1]
		case opMalloc:
			blk := diffBlock{step: step, ptrs: make([]mem.Ptr, len(bs))}
			for i, b := range bs {
				blk.ptrs[i], errs[i] = b.threads[op.thread].Malloc(diffSize(op.code, b.a.Heap()))
			}
			servable := op.code < diffSizeCodes
			wrong := false
			for _, err := range errs {
				wrong = wrong || servable && err != nil || !servable && !errors.Is(err, mem.ErrOutOfMemory)
			}
			if wrong {
				want := "a block"
				if !servable {
					want = "an error wrapping mem.ErrOutOfMemory"
				}
				var outcomes []string
				for i, b := range bs {
					outcome := fmt.Sprint(blk.ptrs[i])
					if errs[i] != nil {
						outcome = "error: " + errs[i].Error()
					}
					outcomes = append(outcomes, b.a.Name()+" "+outcome)
				}
				t.Fatalf("step %d: %s (%d B): want %s from every backend, got\n\t%s",
					step, op, diffSize(op.code, bs[0].a.Heap()), want, strings.Join(outcomes, "\n\t"))
			}
			if !servable {
				break
			}
			blk.words = mem.PayloadWords(diffSize(op.code, nil))
			for i, b := range bs {
				words := b.a.Heap().Words(blk.ptrs[i], blk.words)
				for j := range words {
					words[j] = diffStamp(step, uint64(j))
				}
			}
			live = append(live, blk)
		}
		for _, b := range bs {
			if len(b.vs) > 0 {
				t.Fatalf("step %d: %s: %s: %v", step, op, b.a.Name(), b.vs[0])
			}
		}
	}
	for k, blk := range live {
		for i, b := range bs {
			blk.check(t, len(ops), b, blk.ptrs[i])
			b.threads[k%diffThreads].Free(blk.ptrs[i])
		}
	}
	for _, b := range bs {
		for _, th := range b.threads {
			th.(Unregisterer).Unregister()
		}
		h := HarnessOf(b.a)
		if err := h.ShadowErr(); err != nil {
			t.Errorf("%s: after the drain: %v", b.a.Name(), err)
		}
		if n := h.Oracle().LiveBlocks(); n != 0 {
			t.Errorf("%s: %d blocks modeled live after the drain", b.a.Name(), n)
		}
		if rep := h.Inspect(0); rep.InvariantErr != nil || rep.ProbeErr != nil {
			t.Errorf("%s: Inspect(0) after the drain: %+v", b.a.Name(), rep)
		}
	}
}
