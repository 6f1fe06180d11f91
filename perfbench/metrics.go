package main

import (
	"math"
	"path/filepath"
	"sync"
	"time"

	"mopac/internal/attack"
	"mopac/internal/sim"
	"mopac/internal/store"
	"mopac/internal/workload"
)

// planAcc sums planner statistics and flush spans over operations.
type planAcc struct {
	ops                                    int
	requested, unique, executed, storeHits int64
	flushes                                int
	flushNs                                int64
}

func (p *planAcc) add(st sim.PlanStats) {
	p.requested += st.Requested
	p.unique += st.Unique
	p.executed += st.Executed
	p.storeHits += st.StoreHits
}

func (p *planAcc) flush(d time.Duration) {
	p.flushes++
	p.flushNs += int64(d)
}

// storeAcc sums the timed store boundary.
type storeAcc struct {
	mu                  sync.Mutex
	loads, saves, bytes int64
	loadNs, saveNs      int64
}

func (s *storeAcc) snapshot() (load, save hot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return hot{s.loads, s.loadNs}, hot{s.saves, s.saveNs}
}

// span opens a span in a traced operation (root >= 0) and returns its
// id and the func that closes it, attaching the store calls made
// meanwhile; in an untraced operation it returns -1 and a no-op.
func (b *bench) span(name string, root, op int) (int, func()) {
	if root < 0 {
		return -1, func() {}
	}
	l0, s0 := b.store.snapshot()
	sp := b.tr.begin(name, root, op)
	return sp, func() {
		b.tr.end(sp)
		l1, s1 := b.store.snapshot()
		if n := l1.Calls - l0.Calls; n > 0 {
			b.tr.addHot(sp, "store.load", hot{n, l1.Ns - l0.Ns})
		}
		if n := s1.Calls - s0.Calls; n > 0 {
			b.tr.addHot(sp, "store.save", hot{n, s1.Ns - s0.Ns})
		}
	}
}

// timedStore is the sim.ResultStore the benchmark hands the planner:
// the real store behind a timed boundary. With keep set it also keeps
// every saved record, so an operation can account what it simulated.
type timedStore struct {
	st   *store.Store
	acc  *storeAcc
	keep bool

	mu    sync.Mutex
	saved map[string][]byte
}

func (b *bench) openStore(name, schema string) (*timedStore, error) {
	st, err := store.Open(filepath.Join(b.root, name), schema, "perfbench")
	if err != nil {
		return nil, err
	}
	return &timedStore{st: st, acc: &b.store}, nil
}

func (t *timedStore) Load(key string) ([]byte, bool) {
	t0 := time.Now()
	data, ok := t.st.Load(key)
	d := int64(time.Since(t0))
	t.acc.mu.Lock()
	t.acc.loads++
	t.acc.loadNs += d
	t.acc.mu.Unlock()
	return data, ok
}

func (t *timedStore) Save(key string, data []byte) error {
	t0 := time.Now()
	err := t.st.Save(key, data)
	d := int64(time.Since(t0))
	t.acc.mu.Lock()
	t.acc.saves++
	t.acc.saveNs += d
	t.acc.bytes += int64(len(data))
	t.acc.mu.Unlock()
	if t.keep {
		t.mu.Lock()
		if t.saved == nil {
			t.saved = map[string][]byte{}
		}
		t.saved[key] = data
		t.mu.Unlock()
	}
	return err
}

// attackAcc sums the attack layer: evaluations and the batches the
// search flushes, timed from Options.Progress.
type attackAcc struct {
	searches, evals int64
	batches         int64
	batchNs         int64
}

// progressClock returns an Options.Progress callback that books one
// batch each time the evaluation index leaves the current batch, and
// a func that closes the last batch. A batch runs from the previous
// batch's last evaluation to its own last one; onBatch, if set, also
// receives it.
func (a *attackAcc) progressClock(start time.Time, batch int, onBatch func(from, to time.Time)) (func(attack.Eval), func()) {
	last := start
	cur := -2
	var lastEval time.Time
	closeBatch := func() {
		if cur != -2 {
			a.batches++
			a.batchNs += int64(lastEval.Sub(last))
			if onBatch != nil {
				onBatch(last, lastEval)
			}
			last = lastEval
		}
	}
	progress := func(e attack.Eval) {
		now := time.Now()
		id := -1
		if e.Index >= 0 {
			id = e.Index / batch
		}
		if id != cur {
			closeBatch()
			cur = id
		}
		lastEval = now
		a.evals++
	}
	return progress, closeBatch
}

// perLayer sets the traced run's metrics.
func (b *bench) perLayer() {
	a := &b.acc
	sims := float64(max(a.sims, 1))
	per := func(v int64) float64 { return float64(v) / sims }
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	b.set("sim.new_system_ms", per(a.newSystemNs)/1e6, "ms")
	b.set("sim.run_ms", per(a.runNs)/1e6, "ms")
	b.counts["sim.run_ms"] = a.sims
	b.set("event.fired", float64(a.fired)/sims, "count")
	b.set("event.ns_per_event", ratio(a.runNs, int64(a.fired)), "ns")
	b.set("workload.next_calls", per(a.nextCalls), "count")
	b.set("workload.next_ns", ratio(a.nextNs, a.nextCalls), "ns")
	b.set("cpu.retired", per(a.retired), "count")
	b.set("cpu.misses", per(a.misses), "count")
	b.set("cpu.ns_per_kinstr", ratio(a.cpuNs*1000, a.cpuInstr), "ns")
	b.set("mc.reads", per(a.mcReads), "count")
	b.set("mc.row_hits", per(a.mcRowHits), "count")
	b.set("mc.row_conflicts", per(a.mcRowConflicts), "count")
	b.set("mc.alert_stalls", per(a.mcAlertStalls), "count")
	b.set("mc.ns_per_request", ratio(a.mcNs, a.mcReqs), "ns")
	b.set("dram.activates", per(a.acts), "count")
	b.set("dram.refreshes", per(a.refs), "count")
	b.set("dram.rfms", per(a.rfms), "count")
	b.set("dram.ns_per_cmd", ratio(a.dramNs, a.dramCmds), "ns")
	b.set("mitigation.ns_per_act", ratio(a.guardNs, a.acts), "ns")
	b.set("mitigation.alerts", per(a.alerts), "count")
	b.set("mitigation.srq_insertions", per(a.srqIns), "count")
	b.set("oracle.ns_per_act", ratio(a.oracleNs, a.oracleActs), "ns")
	b.set("oracle.activations", per(a.oracleActs), "count")

	p := &b.plan
	pops := float64(max(p.ops, 1))
	b.set("planner.requested", float64(p.requested)/pops, "count")
	b.set("planner.unique", float64(p.unique)/pops, "count")
	b.set("planner.executed", float64(p.executed)/pops, "count")
	b.set("planner.store_hits", float64(p.storeHits)/pops, "count")
	b.set("planner.flush_ms", ratio(p.flushNs, int64(p.flushes))/1e6, "ms")
	b.counts["planner.flush_ms"] = p.flushes

	s := &b.store
	b.set("store.load_us", ratio(s.loadNs, s.loads)/1e3, "us")
	b.set("store.save_us", ratio(s.saveNs, s.saves)/1e3, "us")
	b.set("store.bytes_saved", ratio(s.bytes, s.saves), "bytes")
	b.counts["store.load_us"], b.counts["store.save_us"] = int(s.loads), int(s.saves)

	at := &b.attackAcc
	b.set("attack.evals", ratio(at.evals, at.searches), "count")
	b.set("attack.batch_ms", ratio(at.batchNs, at.batches)/1e6, "ms")
	b.counts["attack.batch_ms"] = int(at.batches)

	ops := float64(max(b.mem.ops, 1))
	b.set("runtime.gc_cycles", float64(b.mem.gc)/ops, "count")
	b.set("runtime.gc_pause_ms", float64(b.mem.pauseNs)/ops/1e6, "ms")

	for name, v := range b.modelErr {
		b.set(name, v, "ratio")
	}

	var total float64
	for _, l := range layers {
		total += a.selfNs[l]
	}
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = 100 * a.selfNs[l] / total
		}
		b.set("self."+l+"_pct", share, "%")
	}
	untraced, traced := median(b.rawOps), median(b.tops)
	b.set("trace.overhead_ms", traced-untraced, "ms")
	if untraced > 0 {
		b.set("trace.overhead_pct", 100*(traced-untraced)/untraced, "%")
	}
	b.counts["trace.overhead_ms"] = len(b.tops)
}

// errWorkloads are the Table 4 workloads the model error is reported for.
var errWorkloads = []string{"bwaves", "mcf", "add"}

// modelError runs the Table 4 baseline of each error workload at bench
// scale and records its relative error against the published row,
// |measured / published - 1|, for MPKI, row-buffer hit rate and
// activations per refresh interval.
func (b *bench) modelError() error {
	b.modelErr = map[string]float64{}
	for _, wl := range errWorkloads {
		cfg := sim.Config{Design: sim.DesignBaseline, Workload: wl, Cores: benchCores, InstrPerCore: benchInstr, Seed: b.seed}
		sys, err := sim.NewSystem(cfg)
		if err != nil {
			return err
		}
		res, err := sys.Run(0)
		if err != nil {
			return err
		}
		pub, err := workload.Published(wl)
		if err != nil {
			return err
		}
		mpki := float64(res.MC.Reads) / float64(benchCores*benchInstr) * 1000
		rel := func(got, want float64) float64 { return math.Abs(got/want - 1) }
		b.modelErr["workload.mpki_err."+wl] = rel(mpki, pub.MPKI)
		b.modelErr["workload.rbhr_err."+wl] = rel(res.RBHR(), pub.RBHR)
		b.modelErr["workload.apri_err."+wl] = rel(res.Workload.APRI, pub.APRI)
	}
	return nil
}

// attackProbe runs the first attack-search operation's search with
// Progress timestamps, for the traced runs of workloads whose own
// operations do not reach the attack layer.
func (b *bench) attackProbe() error {
	t0 := time.Now()
	progress, closeBatch := b.attackAcc.progressClock(t0, attack.DefaultBatch, nil)
	opt := b.attackOptions(0)
	opt.Progress = progress
	rep, _, err := attack.Search(opt)
	closeBatch()
	if err != nil {
		return err
	}
	b.attackAcc.searches++
	return evalErrors(rep)
}
