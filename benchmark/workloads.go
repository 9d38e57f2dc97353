package main

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
)

// workload fixes the caller-side inputs of one benchmark scenario:
// thread count, the allocator options the application passes, and the
// request stream, generated from the seed before the clock starts.
type workload struct {
	name     string
	why      string
	threads  func(nproc int) int
	magazine int // alloc.Options.LockFree.MagazineSize
	build    func(seed int64, threads int) instance
}

// instance is one round's pre-generated inputs plus the state the
// workers build in the allocator.
type instance interface {
	// seed builds pre-clock allocator state through the set-up handle.
	seed(setup *worker)
	// run is one worker's body: own set-up, w.begin(), the closed loop.
	run(w *worker)
	// drain frees every block still live once the workers have returned.
	drain(setup *worker)
}

func allProcs(nproc int) int { return min(nproc, 4) }

var workloads = []*workload{
	{name: "larson", threads: allProcs, build: newLarson,
		why: "paper 4.1 server loop: all work on core Active/Anchor fast paths of shared descriptors; pool, partial and mem idle"},
	{name: "churn", threads: func(int) int { return 1 }, build: newChurn,
		why: "live set swings 0 to ~7 MB each cycle: superblocks born and returned, so pool, partial and mem region paths dominate"},
	{name: "prodcons", threads: allProcs, build: newProdCons,
		why: "paper 4.1 producer-consumer: every producer block is freed by another thread, loading remote free and partial lists"},
	{name: "kvcache", threads: allProcs, magazine: 64, build: newKVCache,
		why: "serving mix with magazines on and payload reads: magazine and mem word access dominate, core touched per batch"},
}

func findWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// logUniform draws from [lo, hi] with log-uniform density.
func logUniform(r *rand.Rand, lo, hi float64) uint64 {
	return uint64(math.Exp(math.Log(lo) + r.Float64()*(math.Log(hi)-math.Log(lo))))
}

// ---- larson ---------------------------------------------------------

const (
	larsonSlots = 1024
	// The stream is walked sampleEvery entries at a time, wrapping at a
	// prime, so that over the cycles every entry takes its turn as the
	// individually timed one.
	larsonStream = 65521
)

type slot struct {
	p    ptr
	size uint32
}

// larson: each worker owns 1024 slots; a unit frees a random slot and
// mallocs 16–80 B into it.
type larson struct {
	slots  [][]slot
	stream [][]uint32 // slot<<8 | size, per worker
}

func newLarson(seed int64, threads int) instance {
	l := &larson{slots: make([][]slot, threads), stream: make([][]uint32, threads)}
	for t := range l.stream {
		r := rand.New(rand.NewSource(seed<<8 + int64(t)))
		l.slots[t] = make([]slot, larsonSlots)
		for i := range l.slots[t] {
			l.slots[t][i].size = uint32(16 + r.Intn(65))
		}
		st := make([]uint32, larsonStream+sampleEvery)
		for i := range st {
			st[i] = uint32(r.Intn(larsonSlots))<<8 | uint32(16+r.Intn(65))
		}
		l.stream[t] = st
	}
	return l
}

// seed fills every worker's slots from the set-up thread, as the
// paper's Larson hands blocks from an initial thread to the workers.
func (l *larson) seed(setup *worker) {
	for t := range l.slots {
		for i := range l.slots[t] {
			s := &l.slots[t][i]
			s.p, _ = setup.alloc(uint64(s.size))
		}
	}
}

func (l *larson) unit(w *worker, mine []slot, op uint32) {
	s := &mine[op>>8]
	if !s.p.IsNil() {
		w.release(s.p, uint64(s.size))
	}
	s.size = op & 0xff
	s.p, _ = w.alloc(uint64(s.size))
}

func (l *larson) run(w *worker) {
	mine, st := l.slots[w.id], l.stream[w.id]
	w.begin()
	for i := 0; ; i = (i + sampleEvery) % larsonStream {
		for _, op := range st[i : i+sampleEvery-1] {
			l.unit(w, mine, op)
		}
		w.sampleBegin()
		l.unit(w, mine, st[i+sampleEvery-1])
		if w.tick(sampleEvery, w.sampleEnd()) {
			return
		}
	}
}

func (l *larson) drain(setup *worker) {
	for t := range l.slots {
		for _, s := range l.slots[t] {
			if !s.p.IsNil() {
				setup.release(s.p, uint64(s.size))
			}
		}
	}
}

// ---- churn ----------------------------------------------------------

const (
	churnBatch    = 4096
	churnVariants = 16
)

// churn: allocate a batch of 4096 blocks, then free the whole batch, in
// allocation order on even cycles and shuffled on odd ones. One thread.
type churn struct {
	sizes  [churnVariants][]uint32
	orders [churnVariants][]uint16
	ptrs   []ptr
	parts  []samplePart // malloc half of the cycle's sampled units
}

func newChurn(seed int64, _ int) instance {
	c := &churn{ptrs: make([]ptr, churnBatch), parts: make([]samplePart, churnBatch/sampleEvery+1)}
	r := rand.New(rand.NewSource(seed))
	for v := range c.sizes {
		sz := make([]uint32, churnBatch)
		for i := range sz {
			switch x := r.Intn(100); {
			case x < 60:
				sz[i] = uint32(8 + r.Intn(57)) // 8–64 B
			case x < 70:
				sz[i] = uint32(128 + r.Intn(129)) // 128–256 B
			case x < 95:
				sz[i] = uint32(512 + r.Intn(1537)) // 512–2048 B: 7–28 blocks per superblock
			default:
				sz[i] = uint32(logUniform(r, 4<<10, 64<<10)) // large
			}
		}
		c.sizes[v] = sz
		ord := make([]uint16, churnBatch)
		for i := range ord {
			ord[i] = uint16(i)
		}
		r.Shuffle(len(ord), func(i, j int) { ord[i], ord[j] = ord[j], ord[i] })
		c.orders[v] = ord
	}
	return c
}

func (c *churn) seed(*worker) {}

func (c *churn) run(w *worker) {
	w.begin()
	for cycle := 0; ; cycle++ {
		sizes := c.sizes[cycle%churnVariants]
		// The sampled blocks shift by one position every cycle.
		shift := cycle % sampleEvery
		for i, sz := range sizes {
			if k := i + shift; k%sampleEvery == sampleEvery-1 {
				// The unit's service time is its malloc plus its free.
				w.sampleBegin()
				c.ptrs[i], _ = w.alloc(uint64(sz))
				c.parts[k/sampleEvery] = w.samplePause()
			} else {
				c.ptrs[i], _ = w.alloc(uint64(sz))
			}
		}
		w.notePeak() // the live set peaks here
		shuffled := cycle%2 == 1
		order := c.orders[(cycle/2)%churnVariants]
		for j := 0; j < churnBatch; j++ {
			i := j
			if shuffled {
				i = int(order[j])
			}
			if c.ptrs[i].IsNil() {
				continue
			}
			if k := i + shift; k%sampleEvery == sampleEvery-1 {
				w.sampleResume(c.parts[k/sampleEvery])
				w.release(c.ptrs[i], uint64(sizes[i]))
				w.sampleEnd()
			} else {
				w.release(c.ptrs[i], uint64(sizes[i]))
			}
		}
		if w.tick(churnBatch, now()) {
			return
		}
	}
}

func (c *churn) drain(*worker) {}

// ---- transport ------------------------------------------------------

// ring is a single-producer single-consumer queue in Go memory: the
// benchmark's own transport, so that hand-offs between workers cost the
// allocator nothing. Each side caches the other's index and re-reads it
// only when the cached value says full or empty.
type ring[T any] struct {
	buf  []T
	mask uint64
	_    [5]uint64
	head atomic.Uint64 // next slot to pop; written by the consumer
	_    [7]uint64
	tail atomic.Uint64 // next slot to push; written by the producer
	_    [7]uint64
	// producer side
	pTail, pHead uint64
	_            [6]uint64
	// consumer side
	cHead, cTail uint64
}

func newRing[T any](capacity int) *ring[T] {
	return &ring[T]{buf: make([]T, capacity), mask: uint64(capacity - 1)}
}

func (q *ring[T]) push(v T) bool {
	if q.pTail-q.pHead == uint64(len(q.buf)) {
		q.pHead = q.head.Load()
		if q.pTail-q.pHead == uint64(len(q.buf)) {
			return false
		}
	}
	q.buf[q.pTail&q.mask] = v
	q.pTail++
	q.tail.Store(q.pTail)
	return true
}

func (q *ring[T]) pop() (v T, ok bool) {
	if q.cHead == q.cTail {
		q.cTail = q.tail.Load()
		if q.cHead == q.cTail {
			return v, false
		}
	}
	v = q.buf[q.cHead&q.mask]
	q.cHead++
	q.head.Store(q.cHead)
	return v, true
}

// ---- prodcons -------------------------------------------------------

const (
	pcRing     = 1024 // paper: the producer helps beyond 1000 queued tasks
	pcDBSize   = 1 << 16
	pcWork     = 100
	pcStream   = 4093 // prime, so the sampled tasks change from cycle to cycle
	pcMaxIdx   = 20
	pcNodeB    = 16
	pcTaskB    = 32
	pcHistB    = 64
	pcHistBins = pcHistB/wordBytes - 1 // the last word holds the canary
)

// pcTask is the pre-generated part of one task: 10–20 database indexes.
type pcTask struct {
	n   uint8
	idx [pcMaxIdx]uint16
}

// pcMsg is what travels through the ring: the queue node's address and,
// for a sampled task, the producer's half of the sample.
type pcMsg struct {
	node    ptr
	part    samplePart
	sampled bool
}

// prodcons: the paper's producer-consumer task shape. The producer
// mallocs an index block (40–80 B), a task (32 B) and a queue node
// (16 B); a consumer mallocs a 64 B histogram, reads the index block,
// and frees all four.
type prodcons struct {
	db       []uint64
	tasks    []pcTask
	rings    []*ring[pcMsg] // one per consumer
	produced atomic.Uint64
	consumed atomic.Uint64
	prodDone atomic.Bool
}

func newProdCons(seed int64, threads int) instance {
	r := rand.New(rand.NewSource(seed))
	pc := &prodcons{db: make([]uint64, pcDBSize), tasks: make([]pcTask, pcStream)}
	for i := range pc.db {
		pc.db[i] = r.Uint64()
	}
	for i := range pc.tasks {
		t := &pc.tasks[i]
		t.n = uint8(10 + r.Intn(11))
		for k := 0; k < int(t.n); k++ {
			t.idx[k] = uint16(r.Intn(pcDBSize))
		}
	}
	for c := 0; c < max(threads-1, 1); c++ {
		pc.rings = append(pc.rings, newRing[pcMsg](pcRing))
	}
	return pc
}

func (pc *prodcons) seed(*worker) {}

// produce builds one task: 3 mallocs. The index block holds the task's
// database indexes two per word (40–80 B); task = {index block, n, xor
// of the index words, canary}; node = {task, canary}.
func (pc *prodcons) produce(w *worker, t *pcTask) (ptr, bool) {
	idxWords := (uint64(t.n) + 1) / 2
	idx, ok1 := w.malloc(idxWords * wordBytes)
	task, ok2 := w.alloc(pcTaskB)
	node, ok3 := w.alloc(pcNodeB)
	if !ok1 || !ok2 || !ok3 {
		return 0, false
	}
	var sum uint64
	span := w.spanBegin(spanPayload)
	for i := uint64(0); i < idxWords; i++ {
		v := uint64(t.idx[2*i]) | uint64(t.idx[2*i+1])<<32
		w.store(idx.Add(i), v)
		sum ^= v
	}
	w.payloadEnd(span, idxWords)
	w.store(task, uint64(idx))
	w.store(task.Add(1), uint64(t.n))
	w.store(task.Add(2), sum)
	w.store(node, uint64(task))
	w.publishLive() // per task: the live set is a few hundred tasks
	return node, true
}

// consume handles one task: 1 malloc, the histogram over the database
// entries the index block names, 4 frees.
func (pc *prodcons) consume(w *worker, node ptr, remote bool) {
	task := ptr(w.load(node))
	idx, n, sum := ptr(w.load(task)), w.load(task.Add(1)), w.load(task.Add(2))
	idxWords := (n + 1) / 2
	hist, ok := w.alloc(pcHistB)
	if !ok {
		return
	}
	span := w.spanBegin(spanPayload)
	for i := uint64(0); i < pcHistBins; i++ {
		w.store(hist.Add(i), 0)
	}
	var got uint64
	for i := uint64(0); i < idxWords; i++ {
		v := w.load(idx.Add(i))
		got ^= v
		for _, k := range [2]uint64{v & 0xffff, v >> 32} {
			b := hist.Add(pc.db[k] % pcHistBins)
			w.store(b, w.load(b)+1)
		}
	}
	w.payloadEnd(span, idxWords+pcHistBins+4*idxWords)
	if got != sum {
		w.fail("task %v: index block checksum %#x, want %#x", task, got, sum)
	}
	x := got
	for i := 0; i < pcWork; i++ {
		x = x*2862933555777941757 + 3037000493
	}
	sink.Add(x & 1)
	w.checkLast(hist, pcHistB)
	w.free(hist, pcHistB)
	w.checkLast(node, pcNodeB)
	w.free(node, pcNodeB)
	w.checkLast(task, pcTaskB)
	w.free(task, pcTaskB)
	w.free(idx, idxWords*wordBytes)
	w.publishLive()
	if remote {
		w.remoteFrees += 3
	}
}

func (pc *prodcons) run(w *worker) {
	switch {
	case w.env.cfg.threads == 1:
		pc.runSolo(w)
	case w.id == 0:
		pc.runProducer(w)
	default:
		pc.runConsumer(w, pc.rings[w.id-1])
	}
}

// runSolo is the one-thread case: produce a task, consume it.
func (pc *prodcons) runSolo(w *worker) {
	w.begin()
	for i := 0; ; i++ {
		sampled := i%sampleEvery == sampleEvery-1
		if sampled {
			w.sampleBegin()
		}
		if node, ok := pc.produce(w, &pc.tasks[i%pcStream]); ok {
			pc.produced.Add(1)
			pc.consume(w, node, false)
			pc.consumed.Add(1)
		}
		if sampled && w.tick(sampleEvery, w.sampleEnd()) {
			return
		}
	}
}

func (pc *prodcons) runProducer(w *worker) {
	// The rings start full, as the paper's queue is in steady state
	// (the producer runs ahead of the consumers until it must help).
	var made uint64
	for _, q := range pc.rings {
		for i := 0; i < pcRing; i++ {
			if node, ok := pc.produce(w, &pc.tasks[int(made)%pcStream]); ok && q.push(pcMsg{node: node}) {
				made++
			}
		}
	}
	w.begin()
	defer func() {
		pc.produced.Add(made)
		pc.prodDone.Store(true)
	}()
	next := 0
	for i := int(made); ; i++ {
		msg := pcMsg{sampled: i%sampleEvery == sampleEvery-1}
		var ok bool
		if msg.sampled {
			w.sampleBegin()
			msg.node, ok = pc.produce(w, &pc.tasks[i%pcStream])
			msg.part = w.samplePause()
		} else {
			msg.node, ok = pc.produce(w, &pc.tasks[i%pcStream])
		}
		if ok {
			made++
			for !pc.rings[next].push(msg) {
				// Every ring is full: the producer waits for a consumer.
				if next = (next + 1) % len(pc.rings); next == 0 {
					runtime.Gosched()
				}
			}
			next = (next + 1) % len(pc.rings)
		}
		// The producer's own units are not counted (a task counts when
		// it is consumed); its meter only tells it when to stop.
		if msg.sampled && w.tick(sampleEvery, now()) {
			w.endUnits = w.startUnits
			return
		}
	}
}

func (pc *prodcons) runConsumer(w *worker, q *ring[pcMsg]) {
	w.begin()
	var n uint64
	defer func() { pc.consumed.Add(n) }()
	for {
		msg, ok := q.pop()
		if !ok {
			if !pc.prodDone.Load() {
				runtime.Gosched()
				continue
			}
			// The producer may have pushed between the pop and the load.
			if msg, ok = q.pop(); !ok {
				w.units += n % sampleEvery
				w.finish(now())
				return
			}
		}
		n++
		if msg.sampled {
			// Service time of a task: building it plus handling it,
			// without the time it waited in the ring.
			w.sampleResume(msg.part)
			pc.consume(w, msg.node, true)
			w.sampleEnd()
		} else {
			pc.consume(w, msg.node, true)
		}
		if n%sampleEvery == 0 {
			w.tick(sampleEvery, now())
		}
	}
}

func (pc *prodcons) drain(setup *worker) {
	if p, c := pc.produced.Load(), pc.consumed.Load(); p != c {
		setup.env.roundFail("prodcons: %d tasks produced, %d consumed", p, c)
	}
}

// ---- kvcache --------------------------------------------------------

const (
	kvKeys     = 1 << 16 // per worker
	kvStream   = 262139  // prime, see larsonStream
	kvZipfS    = 1.1
	kvMinSize  = 16
	kvMaxSize  = 8 << 10
	kvInbox    = 256
	kvHandoff  = 8 // 1 displaced value in 8 is freed by another worker
	kvOpGet    = 0
	kvOpPut    = 1
	kvOpDelete = 2
)

// kvEntry is one key's slot in a worker's shard (Go memory); the value
// it names lives in the allocator.
type kvEntry struct {
	p    ptr
	size uint32
	sum  uint64 // xor of the payload words, checked by every get
}

// kvFreed is a displaced value on its way to another worker.
type kvFreed struct {
	p    ptr
	size uint32
}

// kvReq packs one request: key<<32 | size<<2 | op.
type kvReq uint64

// kvcache: each worker serves a shard of 64 Ki keys: 80 % get (read
// every payload word), 18 % put, 2 % delete, Zipf(1.1) keys,
// log-uniform 16 B–8 KiB values.
type kvcache struct {
	threads int
	shards  [][]kvEntry
	stream  [][]kvReq
	first   [][]uint32         // initial value sizes
	inbox   [][]*ring[kvFreed] // inbox[to][from]
}

func newKVCache(seed int64, threads int) instance {
	kv := &kvcache{threads: threads, shards: make([][]kvEntry, threads), stream: make([][]kvReq, threads),
		first: make([][]uint32, threads), inbox: make([][]*ring[kvFreed], threads)}
	for t := 0; t < threads; t++ {
		r := rand.New(rand.NewSource(seed<<8 + int64(t)))
		z := rand.NewZipf(r, kvZipfS, 1, kvKeys-1)
		// Zipf ranks are spread over the shard so hot keys are not
		// neighbours in the table.
		perm := r.Perm(kvKeys)
		kv.shards[t] = make([]kvEntry, kvKeys)
		kv.first[t] = make([]uint32, kvKeys)
		for i := range kv.first[t] {
			kv.first[t][i] = uint32(logUniform(r, kvMinSize, kvMaxSize))
		}
		st := make([]kvReq, kvStream+sampleEvery)
		for i := range st {
			op := kvOpGet
			if x := r.Intn(100); x >= 98 {
				op = kvOpDelete
			} else if x >= 80 {
				op = kvOpPut
			}
			st[i] = kvReq(uint64(perm[z.Uint64()])<<32 | logUniform(r, kvMinSize, kvMaxSize)<<2 | uint64(op))
		}
		kv.stream[t] = st
		kv.inbox[t] = make([]*ring[kvFreed], threads)
		for from := range kv.inbox[t] {
			kv.inbox[t][from] = newRing[kvFreed](kvInbox)
		}
	}
	return kv
}

func (kv *kvcache) seed(*worker) {}

func (kv *kvcache) put(w *worker, e *kvEntry, size uint32) {
	p, ok := w.malloc(uint64(size))
	if !ok {
		*e = kvEntry{}
		return
	}
	*e = kvEntry{p: p, size: size, sum: w.fill(p, uint64(size))}
}

func (kv *kvcache) unit(w *worker, shard []kvEntry, req kvReq, puts *uint64) {
	e := &shard[req>>32]
	switch req & 3 {
	case kvOpGet:
		if e.p.IsNil() {
			return // miss
		}
		if got := w.readXor(e.p, payloadWords(uint64(e.size))); got != e.sum {
			w.fail("key %d: payload checksum %#x, want %#x", req>>32, got, e.sum)
		}
	case kvOpPut:
		old := *e
		kv.put(w, e, uint32(req>>2&0x3fffffff))
		if old.p.IsNil() {
			return
		}
		*puts++
		if kv.threads > 1 && *puts%kvHandoff == 0 {
			to := (w.id + 1 + int(*puts/kvHandoff)%(kv.threads-1)) % kv.threads
			if kv.inbox[to][w.id].push(kvFreed{old.p, old.size}) {
				return
			}
		}
		w.release(old.p, uint64(old.size))
	case kvOpDelete:
		if !e.p.IsNil() {
			w.release(e.p, uint64(e.size))
			*e = kvEntry{}
		}
	}
}

// reclaim frees what other workers handed to this one.
func (kv *kvcache) reclaim(w *worker) {
	for from, q := range kv.inbox[w.id] {
		if from == w.id {
			continue
		}
		for {
			f, ok := q.pop()
			if !ok {
				break
			}
			w.release(f.p, uint64(f.size))
			w.remoteFrees++
		}
	}
}

func (kv *kvcache) run(w *worker) {
	shard, st := kv.shards[w.id], kv.stream[w.id]
	for i := range shard {
		kv.put(w, &shard[i], kv.first[w.id][i])
	}
	var puts uint64
	w.begin()
	for i := 0; ; i = (i + sampleEvery) % kvStream {
		for _, req := range st[i : i+sampleEvery-1] {
			kv.unit(w, shard, req, &puts)
		}
		w.sampleBegin()
		kv.unit(w, shard, st[i+sampleEvery-1], &puts)
		t := w.sampleEnd()
		kv.reclaim(w)
		if w.tick(sampleEvery, t) {
			return
		}
	}
}

func (kv *kvcache) drain(setup *worker) {
	for t := range kv.shards {
		for from, q := range kv.inbox[t] {
			if from == t {
				continue
			}
			for f, ok := q.pop(); ok; f, ok = q.pop() {
				setup.release(f.p, uint64(f.size))
			}
		}
		for _, e := range kv.shards[t] {
			if !e.p.IsNil() {
				setup.release(e.p, uint64(e.size))
			}
		}
	}
}
