// Package event implements the discrete-event core of the memory-system
// simulator: a pooled 4-ary min-heap scheduler with int64 nanosecond
// timestamps and deterministic FIFO ordering for events scheduled at the
// same instant.
//
// Components schedule callbacks; the Engine runs them in time order and
// exposes the current simulation time. All Engine state is
// single-goroutine: the simulator is deterministic by construction and
// parallelism is achieved by running independent simulations
// concurrently.
//
// The engine is built for throughput: events live in a flat []item pool
// reused through a free list (no per-event heap allocation, no interface
// boxing), the priority queue is an index-based 4-ary heap (shallower
// than a binary heap, so fewer cache-missing compares per pop), and the
// pre-bound Func form lets hot callers schedule a static function plus a
// receiver and an int64 payload without allocating a closure. Each slot
// records its heap position, so Cancel takes its entry out of the heap at
// once: cancel-heavy workloads (controller wake coalescing, core
// wake-ups) leave no dead entries to deepen sifts or pop. Modelled
// fixed-latency hops bypass the heap entirely: each source sends on its
// own FIFO Link, whose entries already arrive in order (see link.go).
package event

// Handler is a callback invoked when its event fires. The engine's clock
// already shows the event's timestamp when the handler runs.
type Handler func()

// Func is the pre-bound handler form used on hot paths: a static
// function pointer plus a receiver (or other context) and an int64
// payload. Scheduling a Func allocates nothing when ctx is an existing
// pointer, unlike a closure which heap-allocates its capture block.
type Func func(ctx any, arg int64)

// callHandler adapts the closure Handler form onto Func. Func values and
// Handler values are pointer-shaped, so the any conversion is free.
func callHandler(ctx any, _ int64) { ctx.(Handler)() }

// item is one pooled event slot. Slots are reused through the free list;
// gen increments on every release so stale Tokens cannot touch a reused
// slot. The ordering keys live in the heap entries, not here, so heap
// compares never chase an index into the pool. pos is the slot's heap
// index, kept up to date by every sift, or -1 while it waits in the
// now-queue.
type item struct {
	arg int64
	fn  Func
	ctx any
	gen uint32
	pos int32
}

// idxBits is the key space reserved for the pool-slot index: up to ~1M
// concurrently pending events per engine, leaving 44 bits of sequence
// numbers (~1.7e13 scheduled events) before the engine refuses to run.
const idxBits = 20

const idxMask = 1<<idxBits - 1

// heapEntry is one (at, key) sort key: the element of the heap and the
// now-queue, and the form a link's head takes in the merge. key holds
// seq<<idxBits | idx; seq is unique per scheduled event or sent hop, so
// comparing keys orders by seq, and idx locates a heap or now-queue
// entry's pool slot (a hop's key leaves it zero).
type heapEntry struct {
	at  int64
	key uint64
}

func (e heapEntry) idx() int32 { return int32(e.key & idxMask) }

// before orders entries by (at, seq): same-time events fire in the
// order they were scheduled or sent.
func (a heapEntry) before(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

// Token identifies a scheduled event so it can be cancelled. The zero
// Token is valid and cancels nothing.
type Token struct {
	e   *Engine
	idx int32
	gen uint32
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op, as is cancelling through a stale
// token whose slot has been reused for a newer event.
func (t Token) Cancel() {
	if t.e != nil {
		t.e.cancelToken(t.idx, t.gen)
	}
}

func (e *Engine) cancelToken(idx int32, gen uint32) {
	it := &e.items[idx]
	if it.gen != gen || it.fn == nil {
		return
	}
	e.live--
	if it.pos < 0 {
		// The now-queue drains before the clock moves, so a cancelled
		// entry there just waits for peekLive to drop it.
		it.fn, it.ctx = nil, nil
		return
	}
	e.remove(int(it.pos))
	e.release(idx)
}

// arity is the heap fan-out. A 4-ary heap halves the tree depth of a
// binary heap: pops do more compares per level but touch fewer cache
// lines, which wins for the pop-heavy usage here.
const arity = 4

// Engine is a discrete-event scheduler. The zero value is not usable;
// call NewEngine.
type Engine struct {
	items []item      // slot pool; heap and free reference it by index
	heap  []heapEntry // 4-ary min-heap ordered by (at, seq)
	free  []int32     // released slots available for reuse
	links []*Link     // hop FIFOs, merged by head (see link.go)
	now   int64
	seq   uint64
	fire  uint64
	live  int // scheduled or sent, not cancelled, not fired

	// nowQ holds events scheduled at the current instant — the
	// wake-at-now pattern the controllers lean on — as a plain FIFO
	// that bypasses the heap. Correctness: such an entry takes the
	// newest seq, so it is ordered after every pending event and hop
	// at the same instant, and among themselves FIFO entries fire in
	// seq (append) order. The clock cannot pass an entry's instant
	// while it is live (all live events at or before the clock fire
	// first), so the queue is sorted by the same (at, seq) relation
	// the heap uses and merging its head on pop preserves the
	// engine's total order.
	nowQ    []heapEntry
	nowHead int
}

// NewEngine returns an engine with its clock at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time in nanoseconds.
func (e *Engine) Now() int64 { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fire }

// Pending returns the number of events and link hops still to fire.
// Cancelled events are excluded at once.
func (e *Engine) Pending() int { return e.live }

// alloc pops a free slot or grows the pool.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		return idx
	}
	if len(e.items) > idxMask {
		panic("event: too many pending events")
	}
	e.items = append(e.items, item{})
	return int32(len(e.items) - 1)
}

// release returns a slot to the free list. The generation bump
// invalidates every outstanding Token for the slot.
func (e *Engine) release(idx int32) {
	it := &e.items[idx]
	it.fn, it.ctx = nil, nil
	it.gen++
	e.free = append(e.free, idx)
}

// At schedules fn to run at absolute time t. Scheduling in the past
// (t < Now) panics: it would silently reorder causality.
func (e *Engine) At(t int64, fn Handler) Token { return e.AtFunc(t, callHandler, fn, 0) }

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d int64, fn Handler) Token { return e.At(e.now+d, fn) }

// AtFunc schedules the pre-bound handler fn(ctx, arg) at absolute time
// t. It is the zero-allocation form of At.
func (e *Engine) AtFunc(t int64, fn Func, ctx any, arg int64) Token {
	if t < e.now {
		panic("event: scheduling in the past")
	}
	if fn == nil {
		panic("event: nil handler")
	}
	return e.schedule(t, fn, ctx, arg)
}

// nextKey takes the next sequence number, shifted into key position.
func (e *Engine) nextKey() uint64 {
	if e.seq > 1<<(64-idxBits)-1 {
		panic("event: sequence space exhausted")
	}
	k := e.seq << idxBits
	e.seq++
	return k
}

func (e *Engine) schedule(t int64, fn Func, ctx any, arg int64) Token {
	idx := e.alloc()
	it := &e.items[idx]
	it.fn, it.ctx, it.arg = fn, ctx, arg
	ent := heapEntry{at: t, key: e.nextKey() | uint64(idx)}
	e.live++
	if t == e.now {
		it.pos = -1
		if e.nowHead == len(e.nowQ) {
			e.nowQ = e.nowQ[:0]
			e.nowHead = 0
		}
		e.nowQ = append(e.nowQ, ent)
	} else {
		e.heap = append(e.heap, ent)
		e.siftUp(len(e.heap) - 1)
	}
	return Token{e, idx, it.gen}
}

// Entry sources reported by peekLive; link i reports fromLink+i.
const (
	fromNone = iota
	fromHeap
	fromNowQ
	fromLink
)

// peekLive prunes cancelled entries off the now-queue's front and
// returns the next live entry in (at, seq) order plus which structure
// holds it; fromNone when the engine is drained. Each structure is
// sorted by that order, so comparing the heads merges them exactly.
func (e *Engine) peekLive() (heapEntry, int) {
	for e.nowHead < len(e.nowQ) {
		ent := e.nowQ[e.nowHead]
		if e.items[ent.idx()].fn != nil {
			break
		}
		e.nowHead++
		e.release(ent.idx())
	}
	best, from := heapEntry{}, fromNone
	if e.nowHead < len(e.nowQ) {
		best, from = e.nowQ[e.nowHead], fromNowQ
	}
	if len(e.heap) > 0 && (from == fromNone || e.heap[0].before(best)) {
		best, from = e.heap[0], fromHeap
	}
	for i, l := range e.links {
		if l.n == 0 {
			continue
		}
		h := &l.ring[l.head]
		if ent := (heapEntry{at: h.at, key: h.key}); from == fromNone || ent.before(best) {
			best, from = ent, fromLink+i
		}
	}
	return best, from
}

// pop removes the entry peekLive reported from its structure and
// returns its handler.
func (e *Engine) pop(ent heapEntry, from int) (Func, any, int64) {
	switch {
	case from >= fromLink:
		return e.links[from-fromLink].pop()
	case from == fromNowQ:
		e.nowHead++
		if e.nowHead == len(e.nowQ) {
			e.nowQ = e.nowQ[:0]
			e.nowHead = 0
		}
	default:
		e.remove(0)
	}
	it := &e.items[ent.idx()]
	fn, ctx, arg := it.fn, it.ctx, it.arg
	e.release(ent.idx())
	return fn, ctx, arg
}

// AfterFunc schedules fn(ctx, arg) d nanoseconds from now.
func (e *Engine) AfterFunc(d int64, fn Func, ctx any, arg int64) Token {
	return e.AtFunc(e.now+d, fn, ctx, arg)
}

// siftUp and siftDown move entry i into place, storing every moved
// entry's new index in its slot's pos.
func (e *Engine) siftUp(i int) {
	h, items := e.heap, e.items
	ent := h[i]
	for i > 0 {
		p := (i - 1) / arity
		if !ent.before(h[p]) {
			break
		}
		h[i] = h[p]
		items[h[i].idx()].pos = int32(i)
		i = p
	}
	h[i] = ent
	items[ent.idx()].pos = int32(i)
}

func (e *Engine) siftDown(i int) {
	h, items := e.heap, e.items
	n := len(h)
	ent := h[i]
	for {
		first := arity*i + 1
		if first >= n {
			break
		}
		m := first
		last := first + arity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].before(h[m]) {
				m = c
			}
		}
		if !h[m].before(ent) {
			break
		}
		h[i] = h[m]
		items[h[i].idx()].pos = int32(i)
		i = m
	}
	h[i] = ent
	items[ent.idx()].pos = int32(i)
}

// remove takes entry i out of the heap: the last entry fills the hole
// and sifts whichever way restores the heap property.
func (e *Engine) remove(i int) {
	h := e.heap
	n := len(h) - 1
	e.heap = h[:n]
	if i == n {
		return
	}
	h[i] = h[n]
	if i > 0 && h[i].before(h[(i-1)/arity]) {
		e.siftUp(i)
	} else {
		e.siftDown(i)
	}
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It returns false when the queue is empty.
func (e *Engine) Step() bool {
	ent, from := e.peekLive()
	if from == fromNone {
		return false
	}
	fn, ctx, arg := e.pop(ent, from)
	e.live--
	e.now = ent.at
	e.fire++
	fn(ctx, arg)
	return true
}

// RunUntil executes events until the clock would pass deadline or the
// queue drains. Events exactly at the deadline still run. It returns the
// number of events executed.
func (e *Engine) RunUntil(deadline int64) int {
	n := 0
	for {
		// Peek without popping so an over-deadline event stays queued.
		ent, from := e.peekLive()
		if from == fromNone || ent.at > deadline {
			break
		}
		fn, ctx, arg := e.pop(ent, from)
		e.live--
		e.now = ent.at
		e.fire++
		fn(ctx, arg)
		n++
	}
	if e.now < deadline {
		e.now = deadline
	}
	return n
}

// RunWhile executes events as long as cond returns true and events remain.
// cond is evaluated before each event.
func (e *Engine) RunWhile(cond func() bool) int {
	n := 0
	for cond() && e.Step() {
		n++
	}
	return n
}
