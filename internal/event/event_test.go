package event

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestOrdering(t *testing.T) {
	e := NewEngine()
	var got []int64
	for _, at := range []int64{30, 10, 20} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	for e.Step() {
	}
	want := []int64{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %d, want 30", e.Now())
	}
}

func TestFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	for e.Step() {
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events reordered: %v", got)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	e := NewEngine()
	var fired int64 = -1
	e.At(100, func() {
		e.After(50, func() { fired = e.Now() })
	})
	for e.Step() {
	}
	if fired != 150 {
		t.Fatalf("nested After fired at %d, want 150", fired)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	tok := e.At(10, func() { ran = true })
	tok.Cancel()
	tok.Cancel() // double-cancel must be harmless
	for e.Step() {
	}
	if ran {
		t.Fatal("cancelled event ran")
	}
	if e.Fired() != 0 {
		t.Fatalf("Fired = %d, want 0", e.Fired())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {})
	e.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.At(5, func() {})
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var got []int64
	for _, at := range []int64{10, 20, 30, 40} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	if n := e.RunUntil(25); n != 2 {
		t.Fatalf("RunUntil(25) executed %d events, want 2", n)
	}
	if e.Now() != 25 {
		t.Fatalf("Now = %d, want 25 (clock advances to deadline)", e.Now())
	}
	if n := e.RunUntil(40); n != 2 {
		t.Fatalf("RunUntil(40) executed %d events, want 2 (inclusive)", n)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(1000)
	if e.Now() != 1000 {
		t.Fatalf("idle RunUntil: Now = %d, want 1000", e.Now())
	}
}

func TestRunWhile(t *testing.T) {
	e := NewEngine()
	count := 0
	var reschedule func()
	reschedule = func() {
		count++
		e.After(1, reschedule)
	}
	e.After(1, reschedule)
	e.RunWhile(func() bool { return count < 100 })
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
}

// Property: events fire in nondecreasing time order regardless of the
// insertion order, including interleaved scheduling from handlers.
func TestQuickTimeMonotonic(t *testing.T) {
	f := func(seed uint64, raw []uint16) bool {
		e := NewEngine()
		rng := rand.New(rand.NewPCG(seed, 42))
		var fired []int64
		for _, r := range raw {
			at := int64(r)
			e.At(at, func() {
				fired = append(fired, e.Now())
				if rng.IntN(4) == 0 {
					e.After(int64(rng.IntN(100)), func() {
						fired = append(fired, e.Now())
					})
				}
			})
		}
		for e.Step() {
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(int64(i%97), func() {})
		e.Step()
	}
}

// TestCancelHeavyPendingAndCompaction drives the cancel path hard:
// Pending must exclude cancelled events immediately, the lazy sweep must
// shrink the heap once dead entries dominate, and the survivors must
// still fire in order.
func TestCancelHeavyPendingAndCompaction(t *testing.T) {
	e := NewEngine()
	const n = 1000
	toks := make([]Token, 0, n)
	var fired []int64
	for i := 0; i < n; i++ {
		at := int64(i + 1)
		toks = append(toks, e.At(at, func() { fired = append(fired, at) }))
	}
	if got := e.Pending(); got != n {
		t.Fatalf("Pending = %d, want %d", got, n)
	}
	// Cancel all but every 10th event.
	live := 0
	for i, tok := range toks {
		if i%10 == 0 {
			live++
			continue
		}
		tok.Cancel()
	}
	if got := e.Pending(); got != live {
		t.Fatalf("Pending after cancels = %d, want %d", got, live)
	}
	// 900 dead of 1000 entries crosses the sweep threshold: compaction
	// must have run, leaving at most the live events plus a sub-threshold
	// tail of dead ones.
	if len(e.heap) > live+compactMinDead || e.dead > compactMinDead {
		t.Fatalf("heap len = %d dead = %d after mass cancel; compaction never ran (live = %d)",
			len(e.heap), e.dead, live)
	}
	// Double-cancel is a no-op.
	toks[1].Cancel()
	if got := e.Pending(); got != live {
		t.Fatalf("Pending after double cancel = %d, want %d", got, live)
	}
	for e.Step() {
	}
	if len(fired) != live {
		t.Fatalf("fired %d events, want %d", len(fired), live)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i-1] >= fired[i] {
			t.Fatalf("fired out of order: %v", fired)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", e.Pending())
	}
}

// TestStaleTokenCannotCancelReusedSlot exercises the generation check:
// once an event's pool slot is reused, a stale token for the old event
// must not cancel the new one.
func TestStaleTokenCannotCancelReusedSlot(t *testing.T) {
	e := NewEngine()
	stale := e.At(1, func() {})
	for e.Step() {
	}
	// The slot is now on the free list; the next schedule reuses it.
	ran := false
	fresh := e.At(2, func() { ran = true })
	if fresh.idx != stale.idx {
		t.Fatalf("slot not reused: stale idx %d, fresh idx %d", stale.idx, fresh.idx)
	}
	stale.Cancel() // must be a no-op: the generation moved on
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending = %d after stale cancel, want 1", got)
	}
	for e.Step() {
	}
	if !ran {
		t.Fatal("stale token cancelled the reused slot's event")
	}

	// Same story when the slot is recycled through Cancel rather than
	// firing.
	tok := e.At(10, func() { t.Fatal("cancelled event fired") })
	tok.Cancel()
	tok.Cancel() // second cancel is a no-op, not a double-release
	for e.Step() {
	}
}

// TestZeroTokenCancel checks the zero Token is safe to cancel.
func TestZeroTokenCancel(t *testing.T) {
	var tok Token
	tok.Cancel()
}

// TestSendTieBreak pins the link ordering at one instant: among
// events born at the same time, local events fire before hops, hops
// fire by sender index, and one sender's hops fire in send order; an
// event born earlier fires before one born later whatever their kinds
// and senders. The links are created out of source order, so only the
// src term (not creation order) can put them in order.
func TestSendTieBreak(t *testing.T) {
	e := NewEngine()
	var got []string
	rec := func(ctx any, _ int64) { got = append(got, ctx.(string)) }
	l2 := e.NewLink(2, 10)
	l0 := e.NewLink(0, 10)
	l1 := e.NewLink(1, 10)
	y0 := e.NewLink(3, 5)
	e.At(5, func() {
		e.AtFunc(10, rec, "young-local", 0)
		y0.Send(rec, "young-hop-src3", 0)
	})
	l2.Send(rec, "hop-src2-a", 0)
	l0.Send(rec, "hop-src0", 0)
	e.AtFunc(10, rec, "local-a", 0)
	l1.Send(rec, "hop-src1-a", 0)
	l2.Send(rec, "hop-src2-b", 0)
	l1.Send(rec, "hop-src1-b", 0)
	e.AtFunc(10, rec, "local-b", 0)
	for e.Step() {
	}
	want := []string{
		"local-a", "local-b",
		"hop-src0",
		"hop-src1-a", "hop-src1-b",
		"hop-src2-a", "hop-src2-b",
		"young-local", "young-hop-src3",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("fire order\n got: %v\nwant: %v", got, want)
	}
}

// BenchmarkEngineScheduleAndFireFunc is the pre-bound hot-path form:
// zero allocations per event versus one capture block for the closure
// form benchmarked by BenchmarkScheduleAndFire.
func BenchmarkEngineScheduleAndFireFunc(b *testing.B) {
	e := NewEngine()
	nop := func(any, int64) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.AfterFunc(int64(i%97), nop, nil, 0)
		e.Step()
	}
}

// BenchmarkEngineCancelHeavy measures the wake-coalescing pattern every
// controller and core uses: schedule a wake, cancel it, schedule an
// earlier one, fire.
func BenchmarkEngineCancelHeavy(b *testing.B) {
	e := NewEngine()
	nop := func(any, int64) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tok := e.AfterFunc(100, nop, nil, 0)
		tok.Cancel()
		e.AfterFunc(1, nop, nil, 0)
		e.Step()
	}
}

// TestLinkPushOutOfOrderPanics checks both ways a link push can go
// backwards in time: departing before the clock, and departing before
// the link's previous (deferred) departure.
func TestLinkPushOutOfOrderPanics(t *testing.T) {
	nop := func(any, int64) {}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	e := NewEngine()
	l := e.NewLink(0, 5)
	e.At(10, func() {})
	e.Step()
	mustPanic("depart before now", func() { l.SendAt(9, nop, nil, 0) })
	l.SendAt(20, nop, nil, 0)
	mustPanic("depart before previous departure", func() { l.SendAt(19, nop, nil, 0) })
	mustPanic("send now behind a deferred hop", func() { l.Send(nop, nil, 0) })
	mustPanic("duplicate source", func() { e.NewLink(0, 1) })
	mustPanic("source out of range", func() { e.NewLink(MaxHopSources, 1) })
}

// refEvent is one pending entry of the reference model: the engine's
// documented total order is (at, birth, cross, src, seq).
type refEvent struct {
	at, birth  int64
	cross, src int
	seq        int
	id         int64
}

func (a refEvent) less(b refEvent) bool {
	switch {
	case a.at != b.at:
		return a.at < b.at
	case a.birth != b.birth:
		return a.birth < b.birth
	case a.cross != b.cross:
		return a.cross < b.cross
	case a.src != b.src:
		return a.src < b.src
	}
	return a.seq < b.seq
}

// TestEventOrderMatchesReference drives one engine with a random mix of
// local events (at-now included), cancellations, and link hops that
// depart now or later, from several sources with different latencies
// so that landings collide. Every handler checks that it is the minimum
// of a naive sorted-list model of the pending set, then schedules more
// work on both the engine and the model.
func TestEventOrderMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		checkOrderAgainstReference(t, seed)
	}
}

func checkOrderAgainstReference(t *testing.T, seed uint64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0xe7))
	e := NewEngine()
	lats := []int64{0, 1, 3, 3}
	var links []*Link
	var srcs []int
	var lastDepart []int64
	for i, src := range rng.Perm(len(lats)) {
		links = append(links, e.NewLink(src, lats[i]))
		srcs = append(srcs, src)
		lastDepart = append(lastDepart, 0)
	}
	type local struct {
		id  int64
		tok Token
	}
	var (
		ref    []refEvent
		locals []local
		seq    int
		nextID int64
		fired  int
		failed bool
	)
	const budget = 400
	var handler Func
	act := func() {
		now := e.Now()
		for k := rng.IntN(4); k > 0; k-- {
			id := nextID
			nextID++
			seq++
			switch r := rng.IntN(10); {
			case r < 4:
				at := now + int64(rng.IntN(4)) // rng 0: at-now, the now-queue path
				locals = append(locals, local{id, e.AtFunc(at, handler, nil, id)})
				ref = append(ref, refEvent{at: at, birth: now, seq: seq, id: id})
			case r < 8:
				i := rng.IntN(len(links))
				depart := max(now, lastDepart[i])
				if r >= 6 {
					depart += int64(rng.IntN(4)) // deferred departure
				}
				if depart == now {
					links[i].Send(handler, nil, id)
				} else {
					links[i].SendAt(depart, handler, nil, id)
				}
				lastDepart[i] = depart
				ref = append(ref, refEvent{at: depart + lats[i], birth: depart, cross: 1, src: srcs[i], seq: seq, id: id})
			default:
				if len(locals) == 0 {
					continue
				}
				// May hit an already fired or cancelled event: a no-op
				// on both sides.
				v := locals[rng.IntN(len(locals))]
				v.tok.Cancel()
				ref = slices.DeleteFunc(ref, func(r refEvent) bool { return r.id == v.id })
			}
		}
	}
	handler = func(_ any, arg int64) {
		if failed {
			return
		}
		m := 0
		for i := range ref {
			if ref[i].less(ref[m]) {
				m = i
			}
		}
		if len(ref) == 0 || ref[m].id != arg || ref[m].at != e.Now() {
			failed = true
			t.Errorf("seed %d: event %d fired at %d after %d events; reference expects %+v", seed, arg, e.Now(), fired, ref[m])
			return
		}
		ref = slices.Delete(ref, m, m+1)
		fired++
		if fired < budget {
			act()
		}
	}
	for k := 0; k < 8; k++ {
		act()
	}
	for e.Step() {
	}
	if !failed && (len(ref) != 0 || e.Pending() != 0) {
		t.Errorf("seed %d: drained engine with %d reference events and Pending = %d left", seed, len(ref), e.Pending())
	}
}

// BenchmarkEngineLinkHop is one hop through a link: a send plus its
// fire, with no allocation once the ring has its capacity.
func BenchmarkEngineLinkHop(b *testing.B) {
	e := NewEngine()
	l := e.NewLink(0, 15)
	nop := func(any, int64) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Send(nop, nil, 0)
		e.Step()
	}
}
