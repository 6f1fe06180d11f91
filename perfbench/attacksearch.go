package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"time"

	"mopac/internal/addrmap"
	"mopac/internal/attack"
	"mopac/internal/cpu"
	"mopac/internal/sim"
)

// attack-search: each operation is one cold attack.Search at TRH 500
// with no store, rotating through the designs an attacker targets. Each
// operation searches with its own seed, derived from the run's, so a
// run's figures average over many candidate sets instead of hinging on
// one.
var attackDesigns = []sim.Design{sim.DesignMoPACD, sim.DesignMoPACC, sim.DesignPRAC, sim.DesignQPRAC}

// attackBudget is the search budget: 16 candidates plus the stock
// double-sided baseline, 17 evaluations.
const attackBudget = 16

// topRows is how many per-row peaks an attack result carries.
const topRows = 8

// attackOptions returns the search of operation slot.
func (b *bench) attackOptions(slot int) attack.Options {
	seed := b.seed<<16 + uint64(slot)
	return attack.Options{
		Base:    sim.Config{Design: attackDesigns[slot%len(attackDesigns)], TRH: 500, Seed: seed},
		Seed:    seed,
		Budget:  attackBudget,
		Workers: b.workers,
	}
}

// evalErrors fails a report with any failed evaluation.
func evalErrors(r *attack.Report) error {
	if r.Baseline.Err != "" {
		return fmt.Errorf("baseline evaluation: %s", r.Baseline.Err)
	}
	for _, e := range r.Evals {
		if e.Err != "" {
			return fmt.Errorf("evaluation %d (%s): %s", e.Index, e.Spec, e.Err)
		}
	}
	return nil
}

// simulatedNs sums the simulated time of a report's evaluations.
func simulatedNs(r *attack.Report) int64 {
	ns := r.Baseline.Result.TimeNs
	for _, e := range r.Evals {
		ns += e.Result.TimeNs
	}
	return ns
}

func runAttackSearch(b *bench) error {
	st, err := b.openStore("attack", sim.AttackStoreSchema)
	if err != nil {
		return err
	}

	b.measure(func(i int, traced bool) error {
		opt := b.attackOptions(b.slot(i))
		root := -1
		var closeBatch func()
		if traced {
			root = b.tr.begin("op", -1, i)
			defer b.tr.end(root)
		}
		search, endSearch := b.span("attack.search", root, i)
		t0 := time.Now()
		if traced {
			// Each batch is one planner flush.
			opt.Progress, closeBatch = b.attackAcc.progressClock(t0, attack.DefaultBatch, func(from, to time.Time) {
				b.tr.add("planner.flush", search, i, from, to)
				b.plan.flush(to.Sub(from))
			})
		}
		rep, stats, err := attack.Search(opt)
		d := time.Since(t0)
		endSearch()
		if err != nil {
			return err
		}
		if traced {
			closeBatch()
			b.opDone(true, d, 0)
			b.attackAcc.searches++
			b.plan.ops++
			b.plan.add(stats)
		} else {
			b.opDone(false, d, simulatedNs(rep))
		}
		want, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		if err := evalErrors(rep); err != nil {
			return err
		}

		// The same search again, untimed, with the store: it must give
		// the same report, and it fills the store for the warm re-runs.
		fopt := opt
		fopt.Store, fopt.Progress = st, nil
		frep, _, err := attack.Search(fopt)
		if err != nil {
			return err
		}
		if got, err := json.Marshal(frep); err != nil || string(got) != string(want) {
			return fmt.Errorf("%s seed %d: repeated search gives a different report", opt.Base.Design, opt.Seed)
		}

		// Warm re-runs: the same search answered from the attack store.
		err = b.warmRuns(func() (time.Duration, error) {
			_, endWarm := b.span("attack.search.warm", root, i)
			t1 := time.Now()
			wrep, wstats, err := attack.Search(fopt)
			d := time.Since(t1)
			endWarm()
			if traced {
				b.plan.add(wstats)
			}
			if err != nil {
				return d, err
			}
			// Every distinct candidate the cold search simulated is a hit.
			if wstats.Executed != 0 || wstats.StoreHits != stats.Executed {
				return d, fmt.Errorf("warm search executed %d, store hits %d of %d", wstats.Executed, wstats.StoreHits, stats.Executed)
			}
			if got, err := json.Marshal(wrep); err != nil || string(got) != string(want) {
				return d, fmt.Errorf("warm search report differs")
			}
			return d, nil
		})
		if err != nil || !traced {
			return err
		}
		return b.traceSearch(i, root, opt.Base, rep)
	})
	if b.traced {
		return b.modelError()
	}
	return nil
}

// traceSearch re-runs every evaluation of a search in situ: a coreless
// oracle-tracked system, the candidate's pattern attached through
// AttachCore, and the engine stepped until the oracle has counted the
// target activations. Each re-run must reproduce its AttackResult.
func (b *bench) traceSearch(op, root int, base sim.Config, rep *attack.Report) error {
	evals := append([]attack.Eval{rep.Baseline}, rep.Evals...)
	for _, e := range evals {
		cfg := base
		cfg.Cores = 1
		cfg.TrackSecurity = true
		// ACT, RD and PRE per activation at most, plus REF and RFM.
		cfg.CommandLogDepth = int(4*e.Result.Activations+e.Result.TimeNs/1000) + 4096
		spec, want := e.Knobs, e.Result
		_, err := b.traceSim(op, root, insitu{
			cfg: cfg, target: 1 << 62, acts: rep.TargetActs,
			sources: func(m addrmap.Mapper) ([]cpu.Source, error) {
				src, err := spec.Build(m)
				return []cpu.Source{src}, err
			},
			verify: func(sys *sim.System, _ sim.Result) error {
				got := attackResult(sys)
				if !reflect.DeepEqual(got, want) {
					return fmt.Errorf("evaluation %d (%s): re-run %+v, search %+v", e.Index, e.Spec, got, want)
				}
				return nil
			},
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// attackResult reads an attack run's outcome off a stepped system, the
// way sim.RunAttack reports it.
func attackResult(sys *sim.System) sim.AttackResult {
	orc := sys.Oracle()
	res := sim.AttackResult{
		Activations: orc.Activations(),
		TimeNs:      sys.Engine().Now(),
		Secure:      orc.Secure(),
		TopRows:     orc.TopPeaks(topRows),
	}
	res.MaxUnmitigated, _, _ = orc.MaxUnmitigated()
	if res.TimeNs > 0 {
		res.ACTsPerNs = float64(res.Activations) / float64(res.TimeNs)
	}
	for _, dev := range sys.Devices() {
		res.Alerts += dev.Stats().Alerts
		res.Mitigations += dev.Stats().Mitigations
	}
	return res
}
