package mc

import (
	"testing"

	"mopac/internal/dram"
	"mopac/internal/timing"
)

// These tests pin the nextAt skip-cache invariants the scheduler-fusion
// fast path depends on: a stale-early entry only costs an extra scan,
// but a stale-late entry (a bank believed asleep past the moment it has
// work) would silently delay or starve requests. Each test drives the
// cache into one of its edges and checks both the cached value and the
// externally visible service behaviour.

// TestNextAtEnqueueResetsCache: a drained bank parks its cache at Never
// (no command without new work) and joins the idle set; Enqueue must
// reset the entry to 0 (unknown) and take the bank out of the idle set
// so the next pass rescans the bank instead of skipping it forever.
func TestNextAtEnqueueResetsCache(t *testing.T) {
	r := newRig(t, Config{Timing: timing.DDR5()}, dram.Config{})
	done := r.read(0, 5, 0)
	r.run(200)
	if *done != 31 {
		t.Fatalf("first read done at %d, want 31", *done)
	}
	// Open-page policy: the row stays open, the queue is empty, and the
	// bank has no command of its own — the cache must say Never.
	if got := r.c.nextAt[0]; got != never {
		t.Fatalf("drained bank nextAt = %d, want Never", got)
	}
	if r.c.idle&1 == 0 {
		t.Fatalf("drained bank missing from the idle set %#x", r.c.idle)
	}
	d2 := r.read(0, 5, 1)
	if got := r.c.nextAt[0]; got != 0 {
		t.Fatalf("nextAt after Enqueue = %d, want 0 (unknown)", got)
	}
	if r.c.idle&1 != 0 {
		t.Fatalf("bank still in the idle set %#x after Enqueue", r.c.idle)
	}
	r.run(400)
	// Row hit on the still-open row: served promptly, not starved.
	if *d2 < 0 {
		t.Fatal("request on a Never-cached bank never served")
	}
	if s := r.c.Stats(); s.RowHits != 1 {
		t.Fatalf("stats: %+v (want the second read to hit the open row)", s)
	}
}

// TestNextAtRefreshWindowInteraction: a request arriving while the
// controller drains for periodic REF is serviced after the refresh,
// even though the demand-mode bank scan never ran between the enqueue
// and the stall (the cache entry stays 0/stale through the drain).
func TestNextAtRefreshWindowInteraction(t *testing.T) {
	tp := timing.DDR5()
	r := newRig(t, Config{Timing: tp}, dram.Config{})
	// Idle until the REF deadline so the controller enters the refresh
	// stall with empty queues.
	r.run(tp.TREFI)
	if !r.c.refStall && r.c.refDue <= tp.TREFI {
		t.Fatalf("controller not refreshing at tREFI: refDue=%d", r.c.refDue)
	}
	// Arrive mid-refresh: demand issue must hold until the REF ends.
	done := r.read(1, 7, 0)
	if got := r.c.nextAt[1]; got != 0 {
		t.Fatalf("nextAt after mid-REF Enqueue = %d, want 0", got)
	}
	r.run(tp.TREFI + 10*tp.TRFC)
	if *done < 0 {
		t.Fatal("request enqueued during REF never served")
	}
	if *done < tp.TREFI+tp.TRFC {
		t.Fatalf("read done at %d, inside the refresh window ending %d",
			*done, tp.TREFI+tp.TRFC)
	}
	if s := r.c.Stats(); s.RefreshNs < tp.TRFC {
		t.Fatalf("no refresh accounted: %+v", s)
	}
}

// TestNextAtDrainedBankRowOpen: with close-page policy a drained bank
// still owes itself a precharge, so its cache must hold that future
// close instant — not Never — and the close must actually happen.
func TestNextAtDrainedBankRowOpen(t *testing.T) {
	r := newRig(t, Config{Timing: timing.DDR5(), Policy: ClosePage}, dram.Config{})
	done := r.read(0, 5, 0)
	// Pile a second row onto the same bank so the close-page fast path
	// (precharge fused with the last column access) cannot fire early;
	// the bank ends the burst with row 9 open and an empty queue.
	d2 := r.read(0, 9, 0)
	r.run(32)
	if *done < 0 {
		t.Fatal("first read not served yet")
	}
	if *d2 >= 0 {
		t.Fatal("conflicting read served implausibly early")
	}
	r.run(500)
	if *d2 < 0 {
		t.Fatal("second read never served")
	}
	if open := r.dev.OpenRow(0); open >= 0 {
		t.Fatalf("close-page left row %d open on a drained bank", open)
	}
	// After the final precharge the bank really has nothing left.
	if got := r.c.nextAt[0]; got != never {
		t.Fatalf("drained close-page bank nextAt = %d, want Never", got)
	}
}
