package mc

import (
	"math/rand/v2"
	"slices"
	"testing"

	"mopac/internal/dram"
	"mopac/internal/timing"
)

// TestPickMatchesNaiveFRFCFS drives one controller with random bursts of
// requests over a few rows per bank, so row hits, conflicts and long
// hit streaks all occur, and after every engine step (each enqueue and
// each scheduler pass that serves a request) checks pick against a
// naive FR-FCFS model that keeps its own arrival order and hit streaks:
// the oldest hit on the open row, otherwise the oldest request, and
// with MaxHitStreak set, the oldest once a full streak of younger hits
// has been served over it. No sim configuration sets MaxHitStreak, so
// the result goldens do not cover the yield.
func TestPickMatchesNaiveFRFCFS(t *testing.T) {
	for _, maxStreak := range []int{0, 4} {
		for seed := uint64(1); seed <= 20; seed++ {
			checkPickAgainstModel(t, maxStreak, seed)
		}
	}
}

func checkPickAgainstModel(t *testing.T, maxStreak int, seed uint64) {
	t.Helper()
	const banks, requests = 2, 400
	tp := timing.DDR5()
	r := newRig(t, Config{Timing: tp, MaxHitStreak: maxStreak}, dram.Config{Banks: banks})
	rng := rand.New(rand.NewPCG(seed, 0xf6))

	// The model: per bank, queued request ids in arrival order, plus
	// each id's row and the bank's hit streak. Ids ride in Col.
	queued := make([][]int, banks)
	streak := make([]int, banks)
	var rows []int
	arrivals := requests / 3
	enqueue := func(any, int64) {
		arrivals--
		for k := 1 + rng.IntN(6); k > 0 && len(rows) < requests; k-- {
			// Mostly row 0, so an older request to another row waits
			// through long runs of younger hits.
			bank, row := rng.IntN(banks), max(0, rng.IntN(8)-5)
			id := len(rows)
			rows = append(rows, row)
			queued[bank] = append(queued[bank], id)
			r.c.Enqueue(&Request{Bank: bank, Row: row, Col: id})
		}
	}
	naive := func(bank int) int {
		q := queued[bank]
		open := r.dev.OpenRow(bank)
		for _, id := range q {
			if rows[id] != open {
				continue
			}
			if id != q[0] && maxStreak > 0 && streak[bank] >= maxStreak {
				return q[0]
			}
			return id
		}
		return q[0]
	}
	picked := func(bank int) int {
		pos := r.c.pick(bank)
		return int(r.c.slots[r.c.queues[bank].idx[pos]].col)
	}
	at := int64(0)
	for i := 0; i < arrivals; i++ {
		at += int64(rng.IntN(20))
		r.eng.AtFunc(at, enqueue, nil, 0)
	}

	served, yields := 0, 0
	for arrivals > 0 || served < len(rows) {
		// The choice each bank would make now: a request the next step
		// serves must be it.
		want := make([]int, banks)
		for b := range want {
			want[b] = -1
			if len(queued[b]) > 0 {
				want[b] = naive(b)
			}
		}
		if !r.eng.Step() {
			t.Fatalf("streak %d seed %d: engine drained with %d/%d served", maxStreak, seed, served, len(rows))
		}
		for b := 0; b < banks; b++ {
			// Sync the model with the requests the step served: at most
			// one per bank, since every timing parameter is positive.
			live := make([]int, 0, len(queued[b]))
			for _, si := range r.c.queues[b].idx {
				live = append(live, int(r.c.slots[si].col))
			}
			var gone []int
			for _, id := range queued[b] {
				if !slices.Contains(live, id) {
					gone = append(gone, id)
				}
			}
			switch {
			case len(gone) > 1:
				t.Fatalf("streak %d seed %d: bank %d served %v in one step", maxStreak, seed, b, gone)
			case len(gone) == 1:
				if gone[0] != want[b] {
					t.Fatalf("streak %d seed %d t=%d: bank %d served %d, naive FR-FCFS picks %d", maxStreak, seed, r.eng.Now(), b, gone[0], want[b])
				}
				if gone[0] != queued[b][0] {
					streak[b]++
				} else {
					if maxStreak > 0 && streak[b] >= maxStreak {
						yields++ // the oldest won after a full streak
					}
					streak[b] = 0
				}
				queued[b] = slices.DeleteFunc(queued[b], func(id int) bool { return id == gone[0] })
				served++
			}
			if !slices.Equal(live, queued[b]) {
				t.Fatalf("streak %d seed %d: bank %d queue %v, arrival order %v", maxStreak, seed, b, live, queued[b])
			}
			if len(queued[b]) > 0 {
				got := picked(b)
				if exp := naive(b); got != exp {
					t.Fatalf("streak %d seed %d t=%d: bank %d pick %d, naive FR-FCFS %d", maxStreak, seed, r.eng.Now(), b, got, exp)
				}
			}
		}
	}
	if maxStreak > 0 && yields == 0 {
		t.Fatalf("seed %d: no hit streak reached %d; the yield went unexercised", seed, maxStreak)
	}
}
