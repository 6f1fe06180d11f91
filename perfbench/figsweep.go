package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mopac/internal/sim"
)

// fig-sweep: each operation is one cold Figure 1(d) at bench scale
// through sim.NewRunner with a fresh result store, followed by a warm
// re-run on the same store that is timed separately.
var figWorkloads = []string{"mcf", "xz", "add", "lbm", "bwaves"}

// figColumns are Figure 1(d)'s (design, TRH) columns. The traced run
// re-runs one of them per operation in situ; a column that drifts from
// the runner's makes Planner.Get fail, which fails the check.
var figColumns = []struct {
	d   sim.Design
	trh int
}{
	{sim.DesignPRAC, 500},
	{sim.DesignMoPACC, 4000}, {sim.DesignMoPACC, 1000}, {sim.DesignMoPACC, 500}, {sim.DesignMoPACC, 250},
	{sim.DesignMoPACD, 4000}, {sim.DesignMoPACD, 1000}, {sim.DesignMoPACD, 500}, {sim.DesignMoPACD, 250},
}

// figRequested and figUnique are what one cold figure declares and
// simulates: a protected run and its baseline per cell, and the
// distinct configs among them.
var (
	figRequested = int64(2 * len(figColumns) * len(figWorkloads))
	figUnique    = int64((len(figColumns) + 1) * len(figWorkloads))
)

func (b *bench) figScale() sim.Scale {
	return sim.Scale{
		InstrPerCore: benchInstr, Workloads: figWorkloads,
		Seed: b.seed, Parallel: b.workers,
	}
}

// figConfig is the planner's config for one figure cell.
func (b *bench) figConfig(d sim.Design, trh int, wl string) sim.Config {
	return sim.Config{Design: d, TRH: trh, Workload: wl, InstrPerCore: benchInstr, Seed: b.seed}
}

func runFigSweep(b *bench) error {
	var want []byte
	b.measure(func(i int, traced bool) error {
		name := fmt.Sprintf("fig-%d", i)
		st, err := b.openStore(name, sim.StoreSchema)
		if err != nil {
			return err
		}
		defer os.RemoveAll(filepath.Join(b.root, name))
		st.keep = true
		root := -1
		if traced {
			root = b.tr.begin("op", -1, i)
			defer b.tr.end(root)
		}

		r := sim.NewRunner(b.figScale())
		r.Planner().SetStore(st)
		_, endCold := b.span("planner.flush", root, i)
		t0 := time.Now()
		tbl, err := r.Fig1d()
		d := time.Since(t0)
		endCold()
		if err != nil {
			return err
		}
		stats := r.Planner().Stats()
		var simNs int64
		for key, data := range st.saved {
			res, ok := sim.DecodeStoredResult(data, key)
			if !ok {
				return fmt.Errorf("stored record %s does not decode", key)
			}
			simNs += res.TimeNs
		}
		b.opDone(traced, d, simNs)
		if traced {
			b.plan.ops++
			b.plan.add(stats)
			b.plan.flush(d)
		}
		got, err := json.Marshal(tbl)
		if err != nil {
			return err
		}
		if want == nil {
			want = got
		}
		var opErr error
		switch {
		case stats.Requested != figRequested || stats.Unique != figUnique || stats.Executed != figUnique:
			opErr = fmt.Errorf("cold figure requested/unique/executed %d/%d/%d", stats.Requested, stats.Unique, stats.Executed)
		case stats.StoreErrors != 0 || len(st.saved) != int(figUnique):
			opErr = fmt.Errorf("cold figure store errors %d, records %d", stats.StoreErrors, len(st.saved))
		case string(got) != string(want):
			opErr = fmt.Errorf("cold figure table differs from the first one with the same seed")
		}

		// Warm re-runs: a new runner on the same store simulates nothing.
		err = b.warmRuns(func() (time.Duration, error) {
			w := sim.NewRunner(b.figScale())
			w.Planner().SetStore(st)
			_, endWarm := b.span("planner.flush.warm", root, i)
			t1 := time.Now()
			wtbl, err := w.Fig1d()
			d := time.Since(t1)
			endWarm()
			if err != nil {
				return d, err
			}
			wstats := w.Planner().Stats()
			if traced {
				b.plan.add(wstats)
				b.plan.flush(d)
			}
			wgot, err := json.Marshal(wtbl)
			if err != nil {
				return d, err
			}
			switch {
			case string(wgot) != string(got):
				return d, fmt.Errorf("warm figure table differs from the cold one")
			case wstats.Executed != 0 || wstats.StoreErrors != 0 || wstats.StoreHits != figUnique:
				return d, fmt.Errorf("warm figure executed %d, store errors %d, hits %d", wstats.Executed, wstats.StoreErrors, wstats.StoreHits)
			}
			return d, nil
		})
		if err != nil {
			return err
		}
		if opErr != nil || !traced {
			return opErr
		}

		// One protected cell per traced operation, re-run in situ and
		// checked against the cold runner's result.
		j := b.slot(i)
		col := figColumns[j%len(figColumns)]
		wl := figWorkloads[j%len(figWorkloads)]
		cfg := b.figConfig(col.d, col.trh, wl)
		res, err := r.Planner().Get(cfg)
		if err != nil {
			return err
		}
		cfg.Cores = benchCores
		_, err = b.traceBenign(i, root, cfg, res)
		return err
	})
	if b.traced {
		if err := b.modelError(); err != nil {
			return err
		}
		return b.attackProbe()
	}
	return nil
}
