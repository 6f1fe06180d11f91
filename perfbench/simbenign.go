package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"mopac/internal/addrmap"
	"mopac/internal/cpu"
	"mopac/internal/sim"
	"mopac/internal/workload"
)

// sim-benign: each operation is one sim.NewSystem + Run of a Table 4
// workload at bench scale, cycling through three designs (no
// mitigation, one counter update per precharge, MoPAC-D) and three
// benchmarks (high MPKI, dependent misses, streaming row hits).
var (
	benignDesigns   = []sim.Design{sim.DesignBaseline, sim.DesignPRAC, sim.DesignMoPACD}
	benignWorkloads = []string{"bwaves", "mcf", "add"}
)

func benignConfigs(seed uint64) []sim.Config {
	var out []sim.Config
	for _, d := range benignDesigns {
		for _, wl := range benignWorkloads {
			out = append(out, sim.Config{
				Design: d, TRH: 500, Workload: wl,
				Cores: benchCores, InstrPerCore: benchInstr, Seed: seed,
			})
		}
	}
	return out
}

// digest is the SHA-256 of a value's JSON encoding.
func digest(v any) ([32]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(data), nil
}

func runSimBenign(b *bench) error {
	cfgs := benignConfigs(b.seed)

	// Warm-up: run every config once through a planner backed by the
	// store. Its results are the references the operations are checked
	// against, and it fills the store the warm re-runs read.
	st, err := b.openStore("benign", sim.StoreSchema)
	if err != nil {
		return err
	}
	want := make([]sim.Result, len(cfgs))
	wantSum := make([][32]byte, len(cfgs))
	for i, c := range cfgs {
		p := sim.NewPlanner(1)
		p.SetStore(st)
		p.Need(c)
		if err := p.Flush(); err != nil {
			return err
		}
		if want[i], err = p.Get(c); err != nil {
			return err
		}
		if wantSum[i], err = digest(want[i]); err != nil {
			return err
		}
	}

	b.measure(func(i int, traced bool) error {
		k := b.slot(i) % len(cfgs)
		c := cfgs[k]
		root := -1
		if traced {
			root = b.tr.begin("op", -1, i)
			defer b.tr.end(root)
			b.plan.ops++
		}
		var opErr error
		if traced {
			var ns int64
			if ns, opErr = b.traceBenign(i, root, c, want[k]); ns > 0 {
				b.opDone(true, time.Duration(ns), 0)
			}
		} else {
			t0 := time.Now()
			sys, err := sim.NewSystem(c)
			if err != nil {
				return err
			}
			res, err := sys.Run(0)
			if err != nil {
				return err
			}
			b.opDone(false, time.Since(t0), res.TimeNs)
			if sum, err := digest(res); err != nil || sum != wantSum[k] {
				opErr = fmt.Errorf("%s/%s: result digest differs from the warm-up's", c.Design, c.Workload)
			}
		}

		// Warm re-runs: the same config answered from the store.
		err := b.warmRuns(func() (time.Duration, error) {
			p := sim.NewPlanner(1)
			p.SetStore(st)
			_, endWarm := b.span("planner.flush.warm", root, i)
			t1 := time.Now()
			p.Need(c)
			err := p.Flush()
			warm, gerr := p.Get(c)
			d := time.Since(t1)
			endWarm()
			stats := p.Stats()
			if traced {
				b.plan.add(stats)
				b.plan.flush(d)
			}
			if err != nil || gerr != nil {
				return d, fmt.Errorf("warm re-run: %v %v", err, gerr)
			}
			if stats.Executed != 0 || stats.StoreHits != 1 {
				return d, fmt.Errorf("warm re-run executed %d, store hits %d", stats.Executed, stats.StoreHits)
			}
			if sum, err := digest(warm); err != nil || sum != wantSum[k] {
				return d, fmt.Errorf("warm re-run result digest differs")
			}
			return d, nil
		})
		if err != nil {
			return err
		}
		return opErr
	})
	if b.traced {
		if err := b.modelError(); err != nil {
			return err
		}
		return b.attackProbe()
	}
	return nil
}

// workloadSources rebuilds a config's per-core generators exactly as
// sim.NewSystem does (same specs, same seed offset).
func workloadSources(c sim.Config) func(addrmap.Mapper) ([]cpu.Source, error) {
	return func(m addrmap.Mapper) ([]cpu.Source, error) {
		specs, err := workload.PerCoreSpecs(c.Workload, c.Cores)
		if err != nil {
			return nil, err
		}
		out := make([]cpu.Source, c.Cores)
		for core := range out {
			g, err := workload.NewGenerator(specs[core], m, core, c.Cores, c.Seed+77)
			if err != nil {
				return nil, err
			}
			out[core] = g
		}
		return out, nil
	}
}

// commandDepth sizes a command log to hold every command of a run with
// result r: each device logs at most the system-wide command count.
func commandDepth(r sim.Result) int {
	d := r.Dev
	return int(d.Activates+d.Reads+r.MC.Writes+d.Precharges+d.PrechargesCU+d.Refreshes+d.RFMs) + 1024
}

// traceBenign re-runs a workload config in situ: a coreless system
// with the same generators attached through AttachCore, behind timed
// sources. Its Result must match the untraced one byte for byte once
// the config is restored.
func (b *bench) traceBenign(op, root int, c sim.Config, want sim.Result) (int64, error) {
	in := c
	in.Workload = ""
	in.CommandLogDepth = commandDepth(want)
	wantSum, err := digest(want)
	if err != nil {
		return 0, err
	}
	return b.traceSim(op, root, insitu{
		cfg: in, sources: workloadSources(c), target: c.InstrPerCore,
		verify: func(_ *sim.System, res sim.Result) error {
			res.Config = want.Config
			if sum, err := digest(res); err != nil || sum != wantSum {
				return fmt.Errorf("%s/%s: traced result differs (time %d vs %d ns)", c.Design, c.Workload, res.TimeNs, want.TimeNs)
			}
			return nil
		},
	})
}
