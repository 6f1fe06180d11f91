package cpu

import (
	"math/rand/v2"
	"testing"

	"mopac/internal/event"
)

// refResult is what the reference core and the event-driven core must
// agree on.
type refResult struct {
	Retired, StallNs, FinishedAt int64
}

// naiveCore is an independent reference for the core model that steps
// time one nanosecond at a time. Each step, in order: retirement
// advances by up to width instructions but not past the oldest
// incomplete read (as it stood before the step's completions); reads
// whose data returns at this instant complete; then every miss inside
// the ROB window whose dependency has resolved issues in program order,
// reads only while an MSHR is free. A step that ends with retirement
// parked on an incomplete read counts one stalled nanosecond towards
// the next step. Misses at or beyond the target, and everything after
// the first such miss, are never fetched. lat[i] is miss i's memory
// latency.
func naiveCore(width, rob, target int64, mshrs int, accs []Access, lat []int64) refResult {
	type entry struct {
		idx             int64
		dep, write      bool
		issued, done    bool
		doneAt, latency int64
	}
	var es []entry
	next := int64(0)
	for i, a := range accs {
		idx := next + a.Gap
		if idx >= target {
			break
		}
		es = append(es, entry{idx: idx, dep: a.Dep, write: a.Write, done: a.Write, latency: lat[i]})
		next = idx + 1
	}
	blocker := func() int64 {
		for i := range es {
			if !es[i].done {
				return es[i].idx
			}
		}
		return target
	}
	var retired, stall int64
	inflight := 0
	stalled := false
	for t := int64(0); ; t++ {
		if stalled {
			stall++
		}
		if t > 0 {
			retired = min(retired+width, blocker())
		}
		if retired >= target {
			return refResult{Retired: retired, StallNs: stall, FinishedAt: t}
		}
		for i := range es {
			if e := &es[i]; e.issued && !e.done && e.doneAt == t {
				e.done = true
				inflight--
			}
		}
		prevDone := true
		for i := range es {
			e := &es[i]
			if e.idx > retired+rob {
				break
			}
			if !e.issued && (!e.dep || prevDone) && (e.write || mshrs == 0 || inflight < mshrs) {
				e.issued = true
				if !e.write {
					e.doneAt = t + e.latency
					inflight++
				}
			}
			prevDone = e.done
		}
		b := blocker()
		stalled = retired == b && b < target
	}
}

// scriptedMemory completes miss i lat[i] nanoseconds after its issue;
// the miss's address carries i.
type scriptedMemory struct {
	eng *event.Engine
	lat []int64
}

func (m *scriptedMemory) submit(addr int64, _ bool, done event.Func, ctx any) {
	if done == nil {
		return
	}
	at := m.eng.Now() + m.lat[addr]
	m.eng.AtFunc(at, done, ctx, at)
}

// TestCoreMatchesNaiveReference checks the event-driven core, which
// wakes only when it can act and derives stall starts from its
// retirement rate, against the nanosecond-stepping reference on random
// streams of independent and dependent reads and stores, with and
// without MSHR limits.
func TestCoreMatchesNaiveReference(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xc0e))
		width := int64(1 + rng.IntN(16))
		rob := width + int64(rng.IntN(256))
		target := int64(500 + rng.IntN(20_000))
		mshrs := []int{0, 0, 1, 2, 4}[rng.IntN(5)]
		maxGap := 1 + rng.IntN(3*int(rob))
		n := 1 + rng.IntN(300)
		accs := make([]Access, n)
		lat := make([]int64, n)
		for i := range accs {
			accs[i] = Access{
				Gap:   int64(rng.IntN(maxGap)),
				Addr:  int64(i),
				Dep:   rng.IntN(3) == 0,
				Write: rng.IntN(4) == 0,
			}
			lat[i] = int64(1 + rng.IntN(400))
		}
		want := naiveCore(width, rob, target, mshrs, accs, lat)

		eng := event.NewEngine()
		mem := &scriptedMemory{eng: eng, lat: lat}
		core, err := New(eng, Config{
			Width: width, ROB: rob, TargetInstr: target, MSHRs: mshrs, Submit: mem.submit,
		}, &sliceSource{accs: accs})
		if err != nil {
			t.Fatal(err)
		}
		eng.RunWhile(func() bool { return !core.Done() })
		st := core.Stats()
		got := refResult{Retired: st.Retired, StallNs: st.StallNs, FinishedAt: st.FinishedAt}
		if got != want {
			t.Fatalf("seed %d (width %d, rob %d, target %d, mshrs %d, %d accesses): core %+v, reference %+v",
				seed, width, rob, target, mshrs, n, got, want)
		}
	}
}
