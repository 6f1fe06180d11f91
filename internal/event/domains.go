package event

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// This file is the sharded counterpart of the serial Engine: a
// conservative parallel discrete-event scheduler (classic
// null-message-free PDES). The system is partitioned into N domains —
// in the simulator, one per subchannel plus one for the core complex —
// each owning a pooled heap and executed by its own goroutine.
// Domains only interact through Send, which requires a delay of at
// least the lookahead window; that guarantee lets every domain execute
// all local events inside the epoch [T, T+lookahead) without observing
// the others, because nothing a peer does during the epoch can produce
// an event for this domain earlier than T+lookahead.
//
// Determinism is by construction, not by luck:
//
//   - Each domain's heap orders events by (at, birth, seq): timestamp,
//     then the simulation time at which the event was scheduled, then
//     a per-domain sequence number. Local scheduling assigns seq in
//     call order, so intra-domain ordering is the familiar FIFO of the
//     serial engine.
//   - Cross-domain messages buffer in per-(src,dst) outboxes during an
//     epoch and are injected at the barrier by the coordinator alone,
//     merged across sources by (birth, source-domain index, send
//     order). The injection order assigns the seq tiebreak, so two
//     deliveries landing at the same (at, birth) resolve by source
//     index — a fixed rule independent of goroutine interleaving.
//
// Worker goroutines synchronise with the coordinator purely through
// channels (one epoch-start channel per domain, one shared completion
// channel), so every heap mutation is ordered by happens-before edges
// and the engine is clean under the race detector. There are no locks
// on the event hot path.

// message is one buffered cross-domain event: scheduled during an
// epoch, injected into the destination heap at the next barrier.
type message struct {
	at    int64
	birth int64
	arg   int64
	fn    Func
	ctx   any
}

// dentry is a domain-heap element. Unlike the serial engine's 16-byte
// entry, the sort key carries the scheduling instant (birth) so
// barrier-injected deliveries order against locally armed events by
// when they were scheduled, matching the serial engine's
// global-sequence order whenever the scheduling instants differ.
type dentry struct {
	at    int64
	birth int64
	key   uint64 // seq<<idxBits | pool index
}

func (e dentry) idx() int32 { return int32(e.key & idxMask) }

func (a dentry) before(b dentry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.birth != b.birth {
		return a.birth < b.birth
	}
	return a.key < b.key
}

// DomainEngine is one shard of a Domains engine. It implements Sched,
// so components wire to it exactly as they would to a serial Engine.
// All methods except Send's buffered hand-off touch only domain-local
// state; they must be called from the domain's own event handlers (or
// during wiring, before the first epoch).
type DomainEngine struct {
	ds *Domains
	id int32

	items []item
	heap  []dentry
	free  []int32
	now   int64
	seq   uint64
	fire  uint64
	live  int
	dead  int

	// out buffers this epoch's cross-domain sends per destination; the
	// coordinator drains and injects them at the barrier.
	out [][]message
}

// Now returns the domain's local clock.
func (d *DomainEngine) Now() int64 { return d.now }

// At schedules fn at absolute time t on this domain.
func (d *DomainEngine) At(t int64, fn Handler) Token { return d.AtFunc(t, callHandler, fn, 0) }

// After schedules fn d nanoseconds from the domain's now.
func (d *DomainEngine) After(delay int64, fn Handler) Token { return d.At(d.now+delay, fn) }

// AtFunc schedules the pre-bound handler at absolute time t.
func (d *DomainEngine) AtFunc(t int64, fn Func, ctx any, arg int64) Token {
	if t < d.now {
		panic("event: scheduling in the past")
	}
	return d.schedule(t, d.now, fn, ctx, arg)
}

// AfterFunc schedules fn(ctx, arg) delay nanoseconds from now.
func (d *DomainEngine) AfterFunc(delay int64, fn Func, ctx any, arg int64) Token {
	return d.AtFunc(d.now+delay, fn, ctx, arg)
}

// schedule inserts an event with an explicit birth instant. Local
// callers pass birth = now; barrier injection passes the sender's send
// instant, which is what keeps delivery ordering goroutine-independent.
func (d *DomainEngine) schedule(t, birth int64, fn Func, ctx any, arg int64) Token {
	if fn == nil {
		panic("event: nil handler")
	}
	if d.seq > 1<<(64-idxBits)-1 {
		panic("event: sequence space exhausted")
	}
	idx := d.alloc()
	it := &d.items[idx]
	it.fn, it.ctx, it.arg = fn, ctx, arg
	d.heap = append(d.heap, dentry{at: t, birth: birth, key: d.seq<<idxBits | uint64(idx)})
	d.seq++
	d.live++
	d.siftUp(len(d.heap) - 1)
	return Token{d, idx, it.gen}
}

// Send schedules fn(ctx, arg) on domain dst, delay nanoseconds from
// this domain's now. The delay must be at least the engine's lookahead
// — that inequality is the entire correctness argument of the barrier
// protocol, so violating it panics rather than silently racing.
func (d *DomainEngine) Send(dst int32, delay int64, fn Func, ctx any, arg int64) {
	if delay < d.ds.lookahead {
		panic(fmt.Sprintf("event: cross-domain send with delay %d < lookahead %d", delay, d.ds.lookahead))
	}
	if fn == nil {
		panic("event: nil handler")
	}
	d.out[dst] = append(d.out[dst], message{at: d.now + delay, birth: d.now, arg: arg, fn: fn, ctx: ctx})
}

func (d *DomainEngine) cancelToken(idx int32, gen uint32) {
	it := &d.items[idx]
	if it.gen != gen || it.fn == nil {
		return
	}
	it.fn, it.ctx = nil, nil
	d.live--
	d.dead++
	if d.dead > compactMinDead && d.dead*2 > len(d.heap) {
		d.compact()
	}
}

func (d *DomainEngine) alloc() int32 {
	if n := len(d.free); n > 0 {
		idx := d.free[n-1]
		d.free = d.free[:n-1]
		return idx
	}
	if len(d.items) > idxMask {
		panic("event: too many pending events")
	}
	d.items = append(d.items, item{})
	return int32(len(d.items) - 1)
}

func (d *DomainEngine) release(idx int32) {
	it := &d.items[idx]
	it.fn, it.ctx = nil, nil
	it.gen++
	d.free = append(d.free, idx)
}

func (d *DomainEngine) siftUp(i int) {
	h := d.heap
	ent := h[i]
	for i > 0 {
		p := (i - 1) / arity
		if !ent.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ent
}

func (d *DomainEngine) siftDown(i int) {
	h := d.heap
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
		i = m
	}
	h[i] = ent
}

func (d *DomainEngine) popRoot() {
	h := d.heap
	n := len(h) - 1
	h[0] = h[n]
	d.heap = h[:n]
	if n > 1 {
		d.siftDown(0)
	}
}

func (d *DomainEngine) compact() {
	w := 0
	for _, ent := range d.heap {
		if d.items[ent.idx()].fn != nil {
			d.heap[w] = ent
			w++
		} else {
			d.release(ent.idx())
		}
	}
	d.heap = d.heap[:w]
	d.dead = 0
	if w > 1 {
		for i := (w - 2) / arity; i >= 0; i-- {
			d.siftDown(i)
		}
	}
}

// nextAt returns the timestamp of the domain's next live event,
// pruning cancelled heap tops.
func (d *DomainEngine) nextAt() (int64, bool) {
	for len(d.heap) > 0 {
		ent := d.heap[0]
		if d.items[ent.idx()].fn == nil {
			d.popRoot()
			d.release(ent.idx())
			d.dead--
			continue
		}
		return ent.at, true
	}
	return 0, false
}

// interruptCheckEvents is how many events a domain executes between
// polls of the coordinator's interrupt flag during an epoch. Epochs
// are usually far smaller than this; it only matters for pathological
// event storms inside one window.
const interruptCheckEvents = 1024

// runEpoch executes every live event with at < bound, then parks the
// local clock at bound-1 so the epoch's upper edge is the domain's
// committed time. Returns the number of events fired.
func (d *DomainEngine) runEpoch(bound int64) int {
	n := 0
	for len(d.heap) > 0 {
		ent := d.heap[0]
		it := &d.items[ent.idx()]
		if it.fn == nil {
			d.popRoot()
			d.release(ent.idx())
			d.dead--
			continue
		}
		if ent.at >= bound {
			break
		}
		d.popRoot()
		fn, ctx, arg := it.fn, it.ctx, it.arg
		d.release(ent.idx())
		d.live--
		d.now = ent.at
		d.fire++
		fn(ctx, arg)
		if n++; n%interruptCheckEvents == 0 && d.ds.interrupted.Load() {
			break
		}
	}
	if d.now < bound-1 {
		d.now = bound - 1
	}
	return n
}

// Domains is a sharded event engine: n independent DomainEngines
// advanced in lockstep epochs of width lookahead by RunEpoch. The
// coordinator (the goroutine calling RunEpoch) performs all
// cross-domain bookkeeping; worker goroutines only ever touch their
// own domain.
type Domains struct {
	lookahead int64
	doms      []*DomainEngine
	now       int64 // committed global time: upper edge of the last epoch

	// horizon, when set, widens epochs past the minimum lookahead
	// window: RunEpoch calls it with the epoch start and uses the
	// returned bound when it exceeds start+lookahead. See SetHorizon.
	horizon func(start int64) int64

	interrupted atomic.Bool
	workers     bool         // worker goroutines running
	start       []chan int64 // per-domain epoch-start signal (carries the bound)
	done        chan int     // per-domain completion signal (carries events fired)
	wg          sync.WaitGroup

	curs []injectCursor // pooled barrier-merge cursors (see inject)
}

// NewDomains returns a sharded engine with n domains and the given
// lookahead window (the minimum cross-domain Send delay).
func NewDomains(n int, lookahead int64) *Domains {
	if n < 2 {
		panic("event: a Domains engine needs at least 2 domains")
	}
	if lookahead <= 0 {
		panic("event: lookahead must be positive")
	}
	ds := &Domains{lookahead: lookahead}
	for i := 0; i < n; i++ {
		d := &DomainEngine{ds: ds, id: int32(i), out: make([][]message, n)}
		ds.doms = append(ds.doms, d)
	}
	return ds
}

// Domain returns shard i, the Sched handle components wire to.
func (ds *Domains) Domain(i int) *DomainEngine { return ds.doms[i] }

// N returns the number of domains.
func (ds *Domains) N() int { return len(ds.doms) }

// Lookahead returns the conservative window width in nanoseconds.
func (ds *Domains) Lookahead() int64 { return ds.lookahead }

// SetHorizon installs an adaptive epoch-bound callback. fn receives the
// epoch start (the earliest pending event across domains) and returns
// an exclusive upper bound for the epoch; RunEpoch uses it whenever it
// exceeds the minimum start+lookahead window.
//
// The caller owns the safety argument: fn(start) must never exceed
// ES+lookahead, where ES is the earliest instant at which any domain
// could execute a cross-domain Send from the current state — then every
// message produced inside the epoch lands at or after the bound, and
// the barrier injection below stays sound. inject panics if an epoch
// ever produces a message timed before its bound, so a horizon that
// overreaches fails loudly instead of silently reordering events.
//
// fn runs on the coordinator with all workers parked, so it may read
// (and maintain) any simulation state with ordinary loads.
func (ds *Domains) SetHorizon(fn func(start int64) int64) { ds.horizon = fn }

// Now returns the committed global time: every domain has executed all
// events strictly before Now()+1. Matches the serial engine's clock at
// the same epoch boundary.
func (ds *Domains) Now() int64 { return ds.now }

// Fired returns the number of events executed across all domains. Like
// Pending, it is exact between epochs (when the coordinator runs).
func (ds *Domains) Fired() uint64 {
	var n uint64
	for _, d := range ds.doms {
		n += d.fire
	}
	return n
}

// Pending returns the number of live events scheduled across all
// domains, excluding cancelled entries awaiting compaction.
func (ds *Domains) Pending() int {
	n := 0
	for _, d := range ds.doms {
		n += d.live
	}
	return n
}

// NextAt returns the earliest live event time across all domains — the
// start of the next epoch. Outboxes are always empty between epochs
// (RunEpoch injects before returning), so the heaps are the whole
// truth. Returns false when the engine is drained.
func (ds *Domains) NextAt() (int64, bool) {
	var min int64
	ok := false
	for _, d := range ds.doms {
		if at, live := d.nextAt(); live && (!ok || at < min) {
			min, ok = at, true
		}
	}
	return min, ok
}

// Interrupt asks in-flight epoch workers to bail out early. The engine
// is not resumable afterwards — a partially executed epoch has no
// consistent state — so callers must abandon the run, which is exactly
// what context cancellation does.
func (ds *Domains) Interrupt() { ds.interrupted.Store(true) }

// Interrupted reports whether Interrupt was called.
func (ds *Domains) Interrupted() bool { return ds.interrupted.Load() }

// RunEpoch advances the engine by one epoch [T, bound), where T is the
// earliest pending event across domains and bound is at least
// T+lookahead — wider when a horizon callback proves more of the future
// send-free (see SetHorizon): every domain executes its local events
// inside the window in parallel, then the coordinator injects the
// buffered cross-domain messages in canonical order. Returns the
// number of events fired; ok is false when the engine was already
// drained.
func (ds *Domains) RunEpoch() (fired int, ok bool) {
	at, ok := ds.NextAt()
	if !ok {
		return 0, false
	}
	bound := at + ds.lookahead
	if ds.horizon != nil {
		if b := ds.horizon(at); b > bound {
			bound = b
		}
	}
	if ds.interrupted.Load() {
		// Interrupted: finish inline; the caller is abandoning the run.
		for _, d := range ds.doms {
			fired += d.runEpoch(bound)
		}
	} else {
		ds.ensureWorkers()
		for i := range ds.doms {
			ds.start[i] <- bound
		}
		for range ds.doms {
			fired += <-ds.done
		}
	}
	ds.inject(bound)
	ds.now = bound - 1
	return fired, true
}

// ensureWorkers lazily starts one goroutine per domain. Workers park
// on their start channel between epochs; Shutdown releases them.
func (ds *Domains) ensureWorkers() {
	if ds.workers {
		return
	}
	ds.workers = true
	ds.start = make([]chan int64, len(ds.doms))
	ds.done = make(chan int, len(ds.doms))
	ds.wg.Add(len(ds.doms))
	for i, d := range ds.doms {
		ch := make(chan int64)
		ds.start[i] = ch
		go func(d *DomainEngine, ch chan int64) {
			defer ds.wg.Done()
			for bound := range ch {
				ds.done <- d.runEpoch(bound)
			}
		}(d, ch)
	}
}

// Shutdown releases and joins the worker goroutines. The engine
// remains readable (Pending, Fired, Now) and RunEpoch restarts workers
// if called again.
func (ds *Domains) Shutdown() {
	if !ds.workers {
		return
	}
	for _, ch := range ds.start {
		close(ch)
	}
	ds.wg.Wait()
	ds.workers = false
	ds.start = nil
	ds.done = nil
}

// injectCursor is one source's position in a destination's barrier
// merge. The slice of cursors is pooled on the Domains engine: inject
// runs at every barrier, and the per-barrier allocation it used to make
// here was the dominant allocation cost of a sharded run.
type injectCursor struct {
	msgs []message
	pos  int
}

// inject drains every (src, dst) outbox into the destination heaps.
// For one destination, messages merge across sources by (birth, source
// index), preserving per-source send order — a total order fixed by
// the simulation alone. Injection happens on the coordinator with all
// workers parked, so it needs no synchronisation. bound is the epoch's
// exclusive upper edge: a message timed before it would have to fire
// inside the epoch that already ran, so it panics (the lookahead
// contract, or an adaptive horizon's safety argument, was violated).
func (ds *Domains) inject(bound int64) {
	n := len(ds.doms)
	for dsti, dst := range ds.doms {
		// Typical n is 3, so a cursor-per-source merge beats sorting.
		cs := ds.curs[:0]
		for src := 0; src < n; src++ {
			if out := ds.doms[src].out[dsti]; len(out) > 0 {
				cs = append(cs, injectCursor{msgs: out})
			}
		}
		for {
			best := -1
			for i := range cs {
				if cs[i].pos >= len(cs[i].msgs) {
					continue
				}
				if best < 0 || cs[i].msgs[cs[i].pos].birth < cs[best].msgs[cs[best].pos].birth {
					best = i
				}
			}
			if best < 0 {
				break
			}
			m := cs[best].msgs[cs[best].pos]
			cs[best].pos++
			if m.at < bound {
				panic(fmt.Sprintf("event: cross-domain message at t=%d inside its own epoch (bound %d)", m.at, bound))
			}
			dst.schedule(m.at, m.birth, m.fn, m.ctx, m.arg)
		}
		for i := range cs {
			cs[i] = injectCursor{}
		}
		ds.curs = cs[:0]
		for src := 0; src < n; src++ {
			if out := ds.doms[src].out[dsti]; len(out) > 0 {
				for i := range out {
					out[i].ctx, out[i].fn = nil, nil
				}
				ds.doms[src].out[dsti] = out[:0]
			}
		}
	}
}
