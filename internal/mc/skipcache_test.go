package mc

import (
	"math/rand/v2"
	"slices"
	"testing"

	"mopac/internal/dram"
	"mopac/internal/timing"
)

// TestSkipCachesAreInvisible checks that the scheduler's skip caches
// (nextAt, the sleeping set and the idle set) only save work and never
// change a decision. Each configuration replays the same random request
// stream through two controllers; before every engine step the twin
// forgets all three caches, so each of its passes rescans every active
// bank. The command logs and the completion times must match exactly;
// the number of events fired may differ.
func TestSkipCachesAreInvisible(t *testing.T) {
	alert := func(int, int) dram.BankGuard { return &alertOnNthACT{n: 5} }
	var refVisits, twinVisits int64
	for _, tc := range []struct {
		name  string
		cfg   Config
		guard func(chip, bank int) dram.BankGuard
	}{
		{"ddr5", Config{Timing: timing.DDR5()}, nil},
		{"prac", Config{Timing: timing.PRAC(), CUAlways: true}, nil},
		{"mopac-c", Config{Timing: timing.MoPACC(), CUProbInv: 8, Seed: 3}, nil},
		{"close-page", Config{Timing: timing.DDR5(), Policy: ClosePage}, nil},
		{"timeout-page", Config{Timing: timing.DDR5(), Policy: TimeoutPage, TimeoutNs: 200}, nil},
		{"rowpress-cap", Config{Timing: timing.DDR5(), RowPressCapNs: 180}, nil},
		{"hit-streak", Config{Timing: timing.DDR5(), MaxHitStreak: 4}, nil},
		{"postponed-refs", Config{Timing: timing.DDR5(), MaxPostponedREFs: 4}, nil},
		{"alert", Config{Timing: timing.DDR5()}, alert},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			ref := replaySkipStream(t, tc.cfg, tc.guard, seed, false)
			twin := replaySkipStream(t, tc.cfg, tc.guard, seed, true)
			for i := range ref.done {
				if ref.done[i] != twin.done[i] {
					t.Fatalf("%s seed %d: request %d done at %d, rescanning twin %d",
						tc.name, seed, i, ref.done[i], twin.done[i])
				}
			}
			if i := firstDiff(ref.log, twin.log); i >= 0 {
				t.Fatalf("%s seed %d: command %d differs from the rescanning twin: %v, twin %v (logs %d/%d)",
					tc.name, seed, i, entryAt(ref.log, i), entryAt(twin.log, i), len(ref.log), len(twin.log))
			}
			if i := slices.Index(ref.done, -1); i >= 0 {
				t.Fatalf("%s seed %d: request %d not served by %d ns", tc.name, seed, i, skipDeadline)
			}
			refVisits += ref.visits
			twinVisits += twin.visits
		}
	}
	// Per run a stale-early cache can cost the reference a pass the twin
	// does not make, but overall the caches must save scans.
	if refVisits >= twinVisits {
		t.Fatalf("skip caches saved nothing: %d bank visits, rescanning twin %d", refVisits, twinVisits)
	}
}

// skipDeadline ends every replay: all requests are served by about
// 15 µs, and the idle tail exercises idle banks across many REFs.
const skipDeadline = 200_000

// skipReplay is what one replay of a request stream left behind.
type skipReplay struct {
	done   []int64 // completion time per request, -1 if not served
	log    []dram.LogEntry
	visits int64
}

// replaySkipStream drives a fresh controller with seed's request stream
// up to a fixed deadline. With forget set, it clears the skip caches
// before every engine step.
func replaySkipStream(t *testing.T, cfg Config, guard func(int, int) dram.BankGuard, seed uint64, forget bool) skipReplay {
	t.Helper()
	const banks, requests = 8, 600
	r := newRig(t, cfg, dram.Config{Banks: banks, NewGuard: guard, LogDepth: 1 << 14})
	rng := rand.New(rand.NewPCG(seed, 0x5c1b))
	out := skipReplay{done: make([]int64, requests)}
	at := int64(0)
	for i := range out.done {
		out.done[i] = -1
		// Bursts of same-instant arrivals, a few rows per bank so hits,
		// conflicts and drained open banks all occur.
		if rng.IntN(3) == 0 {
			at += int64(rng.IntN(120))
		}
		req := Request{
			Bank:  rng.IntN(banks),
			Row:   rng.IntN(4),
			Col:   i,
			Write: rng.IntN(5) == 0,
			OnDone: func(t int64) {
				out.done[i] = t
			},
		}
		r.eng.At(at, func() { r.c.Enqueue(&req) })
	}
	c := r.c
	r.eng.RunWhile(func() bool {
		if forget {
			clear(c.nextAt)
			c.sleepMask, c.idle, c.sleepMin = 0, 0, 0
		}
		return r.eng.Now() <= skipDeadline
	})
	// The last step may have run past the deadline; keep what both
	// replays are sure to have reached.
	for i, d := range out.done {
		if d > skipDeadline {
			out.done[i] = -1
		}
	}
	log := r.dev.CommandLog()
	if len(log) == 1<<14 {
		t.Fatal("command log wrapped")
	}
	out.log = slices.DeleteFunc(log, func(e dram.LogEntry) bool { return e.At > skipDeadline })
	out.visits = c.BankVisits()
	return out
}

// firstDiff returns the first index at which a and b differ, -1 if equal.
func firstDiff(a, b []dram.LogEntry) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

func entryAt(log []dram.LogEntry, i int) any {
	if i < len(log) {
		return log[i]
	}
	return "none"
}
