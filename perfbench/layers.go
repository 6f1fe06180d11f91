package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"mopac/internal/addrmap"
	"mopac/internal/cpu"
	"mopac/internal/dram"
	"mopac/internal/event"
	"mopac/internal/mc"
	"mopac/internal/mitigation"
	"mopac/internal/oracle"
	"mopac/internal/sim"
	"mopac/internal/timing"
)

// layers is the split the traced run attributes time to, in report
// order. "event" is the residual of the in-situ run once every other
// layer's replayed cost is taken out: event dispatch plus the sim
// layer's glue (frontend hops, epoch horizon, workload statistics).
var layers = []string{"workload", "cpu", "mc", "dram", "mitigation", "oracle", "event"}

// layerAcc sums a traced run's per-layer measurements over its traced
// simulations.
type layerAcc struct {
	sims        int
	newSystemNs int64
	runNs       int64
	fired       uint64
	nextCalls   int64
	nextNs      int64

	retired, misses int64
	cpuNs, cpuInstr int64 // cpu replay self time, instructions it retired

	mcReads, mcRowHits, mcRowConflicts, mcAlertStalls int64
	mcNs, mcReqs, mcCmds                              int64 // mc replay net of guard time

	acts, refs, rfms int64
	dramNs, dramCmds int64 // device replay self time, commands replayed

	guardNs              int64
	alerts, srqIns       int64
	oracleNs, oracleActs int64

	selfNs map[string]float64 // in-situ time per layer, summed over sims
}

// insitu is one simulation re-run on a coreless system with
// instrumented sources: the traced stand-in for an operation's own
// simulation.
type insitu struct {
	cfg     sim.Config // Workload empty; CommandLogDepth sized for the run
	sources func(m addrmap.Mapper) ([]cpu.Source, error)
	target  int64 // instructions per core
	acts    int64 // > 0: step the engine until the oracle has seen this many ACTs
	// verify compares the traced run with its untraced twin; res is
	// the Run result (zero when acts > 0).
	verify func(sys *sim.System, res sim.Result) error
}

// traceSim runs in under spans parented to parent, checks its fidelity,
// replays its recorded inputs through lone layer instances and books
// everything into b.acc. opNs is the in-situ part: set-up plus run.
func (b *bench) traceSim(op, parent int, in insitu) (opNs int64, err error) {
	tr := b.tr
	// Every timed section starts from a collected heap, so it does not
	// pay for garbage left by earlier work.
	runtime.GC()
	sp := tr.begin("sim.new_system", parent, op)
	sys, err := sim.NewSystem(in.cfg)
	if err != nil {
		return 0, err
	}
	srcs, err := in.sources(sys.Mapper())
	if err != nil {
		return 0, err
	}
	recs := make([]*recSource, len(srcs))
	cores := make([]*cpu.Core, len(srcs))
	for i, s := range srcs {
		recs[i] = &recSource{src: s}
		if cores[i], err = sys.AttachCore(recs[i], in.target); err != nil {
			return 0, err
		}
	}
	newNs := tr.end(sp)

	sp = tr.begin("sim.run", parent, op)
	var res sim.Result
	if in.acts > 0 {
		eng := sys.Engine()
		const capNs = 10_000_000_000
		for sys.OracleActivations() < in.acts && eng.Now() < capNs {
			if !eng.Step() {
				return 0, fmt.Errorf("attack re-run stalled at %d ns", eng.Now())
			}
		}
	} else if res, err = sys.Run(0); err != nil {
		return 0, err
	}
	runNs := tr.end(sp)
	var next hot
	for _, r := range recs {
		next.Calls += r.hot.Calls
		next.Ns += r.hot.Ns
	}
	tr.addHot(sp, "workload.next", next)
	if err := in.verify(sys, res); err != nil {
		return 0, fmt.Errorf("in-situ run differs from the untraced one: %w", err)
	}

	m, err := machineFor(in.cfg)
	if err != nil {
		return 0, err
	}
	a := &b.acc
	a.sims++
	a.newSystemNs += newNs
	a.runNs += runNs
	a.fired += sys.Engine().Fired()
	a.nextCalls += next.Calls
	a.nextNs += tr.net(next)
	var retired, reqs int64
	for _, c := range cores {
		st := c.Stats()
		retired += st.Retired
		a.misses += st.Misses
	}
	a.retired += retired
	var sumLat, reads int64
	for _, c := range sys.Controllers() {
		st := c.Stats()
		a.mcReads += st.Reads
		a.mcRowHits += st.RowHits
		a.mcRowConflicts += st.RowConflicts
		a.mcAlertStalls += st.AlertStalls
		sumLat += st.SumLatency
		reads += st.Reads
		reqs += st.Reads + st.Writes
	}

	// Device replay: each subchannel's command log through a fresh
	// device with timed guards and a timed oracle.
	var dramNs, cmds, guardNs, oracleNs int64
	var repOracles []*oracle.Oracle
	for i, dev := range sys.Devices() {
		log := dev.CommandLog()
		if len(log) >= in.cfg.CommandLogDepth {
			return 0, fmt.Errorf("sub %d: command log wrapped at %d entries", i, len(log))
		}
		rep, err := newDevReplay(m, in.cfg.TRH, log)
		if err != nil {
			return 0, err
		}
		runtime.GC()
		sp = tr.begin("replay.dram", parent, op)
		err = rep.run()
		wall := tr.end(sp)
		if err != nil {
			return 0, err
		}
		tr.addHot(sp, "mitigation.guard", rep.guard)
		tr.addHot(sp, "oracle.observe", rep.obs)
		if err := sameDevice(dev, rep.dev); err != nil {
			return 0, fmt.Errorf("sub %d device replay: %w", i, err)
		}
		dramNs += max(wall-tr.occupied(rep.guard)-tr.occupied(rep.obs), 0)
		cmds += int64(len(log))
		guardNs += tr.net(rep.guard)
		oracleNs += tr.net(rep.obs)
		st := dev.Stats()
		a.acts += st.Activates
		a.refs += st.Refreshes
		a.rfms += st.RFMs
		a.oracleActs += rep.orc.Activations()
		a.alerts += rep.alerts
		repOracles = append(repOracles, rep.orc)
		for c := 0; c < dev.Chips(); c++ {
			for bk := 0; bk < dev.Banks(); bk++ {
				if st, ok := guardStats(dev.Guard(c, bk)).(mitigation.MoPACDStats); ok {
					a.srqIns += st.Insertions
				}
			}
		}
	}
	if err := sameOracle(sys, repOracles); err != nil {
		return 0, err
	}
	a.dramNs += dramNs
	a.dramCmds += cmds
	a.guardNs += guardNs
	a.oracleNs += oracleNs

	// Controller replay: the recorded request stream, decoded by the
	// system's mapper and fed to lone controllers at the run's arrival
	// rate per subchannel.
	timeNs := res.TimeNs
	if in.acts > 0 {
		timeNs = sys.Engine().Now()
	}
	mrep, err := newMCReplay(m, splitBySub(sys.Mapper(), recs), timeNs)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	sp = tr.begin("replay.mc", parent, op)
	err = mrep.run()
	wall := tr.end(sp)
	if err != nil {
		return 0, err
	}
	tr.addHot(sp, "mitigation.guard", mrep.guard)
	if err := mrep.check(); err != nil {
		return 0, err
	}
	mcNet := max(wall-tr.occupied(mrep.guard), 0)
	a.mcNs += mcNet
	a.mcReqs += mrep.reqs
	a.mcCmds += mrep.cmds

	// Core replay: the recorded streams into lone cores on a private
	// engine whose memory answers at the run's mean read latency.
	lat := int64(2 * sim.FrontendLatencyNs)
	if reads > 0 {
		lat += sumLat / reads
	}
	target := in.target
	if in.acts > 0 {
		target = retired / int64(len(cores))
	}
	crep, err := newCPUReplay(recs, target, lat)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	sp = tr.begin("replay.cpu", parent, op)
	err = crep.run()
	wall = tr.end(sp)
	if err != nil {
		return 0, err
	}
	source := crep.sourceCost()
	tr.addHot(sp, "replay.source", source)
	cpuNs := max(wall-source.Ns, 0)
	a.cpuNs += cpuNs
	a.cpuInstr += crep.retired()

	// In-situ split: every layer's replayed cost scaled to the in-situ
	// work it did; the event layer is the remainder.
	if a.selfNs == nil {
		a.selfNs = map[string]float64{}
	}
	self := map[string]float64{
		"workload":   float64(tr.net(next)),
		"dram":       float64(dramNs),
		"mitigation": float64(guardNs),
	}
	if n := crep.retired(); n > 0 {
		self["cpu"] = float64(cpuNs) / float64(n) * float64(retired)
	}
	if mrep.reqs > 0 && cmds > 0 {
		deviceInMC := float64(dramNs) / float64(cmds) * float64(mrep.cmds)
		self["mc"] = max(float64(mcNet)-deviceInMC, 0) / float64(mrep.reqs) * float64(reqs)
	}
	if in.cfg.TrackSecurity {
		self["oracle"] = float64(oracleNs)
	}
	// The run without the cost the Next wrapper added to it.
	rest := float64(runNs - next.Calls*tr.wrapCost)
	for _, v := range self {
		rest -= v
	}
	self["event"] = max(rest, 0)
	for k, v := range self {
		a.selfNs[k] += v
	}
	return newNs + runNs, nil
}

// devReplay is one device rebuilt from a command log.
type devReplay struct {
	log        []dram.LogEntry
	dev        *dram.Device
	orc        *oracle.Oracle
	guard, obs hot
	alerts     int64
}

func newDevReplay(m machine, trh int, log []dram.LogEntry) (*devReplay, error) {
	r := &devReplay{log: log, orc: oracle.New(trh)}
	cfg := dram.Config{
		Banks: m.geo.Banks, Rows: m.geo.Rows, Chips: m.chips, RFMLevel: m.rfm,
		Timing: m.timing, Observer: timedObserver{o: r.orc, hot: &r.obs},
	}
	if m.newGuard != nil {
		cfg.NewGuard = func(chip, bank int) dram.BankGuard {
			return &timedGuard{g: m.newGuard(chip, bank), hot: &r.guard, alerts: &r.alerts}
		}
	}
	var err error
	r.dev, err = dram.NewDevice(cfg)
	return r, err
}

// run issues the log to the device at the logged times. The device
// panics on an illegal command; that is reported as a replay error.
func (r *devReplay) run() (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("device replay: %v", p)
		}
	}()
	dev := r.dev
	for _, e := range r.log {
		switch e.Cmd {
		case dram.CmdACT:
			dev.Activate(e.At, e.Bank, e.Row)
		case dram.CmdRD:
			dev.Read(e.At, e.Bank)
		case dram.CmdWR:
			dev.Write(e.At, e.Bank)
		case dram.CmdPRE:
			dev.Precharge(e.At, e.Bank, false)
		case dram.CmdPRECU:
			dev.Precharge(e.At, e.Bank, true)
		case dram.CmdREF:
			dev.Refresh(e.At)
		case dram.CmdRFM:
			dev.ServeABO(e.At)
		default:
			return fmt.Errorf("device replay: unknown command %v", e.Cmd)
		}
	}
	return nil
}

// sameDevice compares a replayed device with the integrated one: device
// counters and every guard's own counters.
func sameDevice(want, got *dram.Device) error {
	if w, g := want.Stats(), got.Stats(); w != g {
		return fmt.Errorf("stats %+v, replay %+v", w, g)
	}
	for c := 0; c < want.Chips(); c++ {
		for bk := 0; bk < want.Banks(); bk++ {
			w, g := guardStats(want.Guard(c, bk)), guardStats(got.Guard(c, bk))
			if !reflect.DeepEqual(w, g) {
				return fmt.Errorf("chip %d bank %d guard stats %+v, replay %+v", c, bk, w, g)
			}
		}
	}
	return nil
}

// sameOracle compares the replayed per-subchannel oracles with the
// integrated oracle when the run had one, and with the device ACT count
// otherwise.
func sameOracle(sys *sim.System, reps []*oracle.Oracle) error {
	var acts, mits int64
	peak := 0
	for _, o := range reps {
		acts += o.Activations()
		mits += o.Mitigations()
		if n, _, _ := o.MaxUnmitigated(); n > peak {
			peak = n
		}
	}
	in := sys.Oracle()
	if in == nil {
		var devActs int64
		for _, d := range sys.Devices() {
			devActs += d.Stats().Activates
		}
		if acts != devActs {
			return fmt.Errorf("oracle replay saw %d ACTs, devices issued %d", acts, devActs)
		}
		return nil
	}
	wantPeak, _, _ := in.MaxUnmitigated()
	if in.Activations() != acts || in.Mitigations() != mits || wantPeak != peak {
		return fmt.Errorf("oracle acts/mits/max-unmitigated %d/%d/%d, replay %d/%d/%d",
			in.Activations(), in.Mitigations(), wantPeak, acts, mits, peak)
	}
	return nil
}

// mcReq is one recorded access, decoded to its subchannel location.
type mcReq struct {
	loc   addrmap.Loc
	write bool
}

// splitBySub interleaves the cores' recorded streams round-robin and
// decodes them into one request list per subchannel.
func splitBySub(m addrmap.Mapper, recs []*recSource) [][]mcReq {
	out := make([][]mcReq, m.Geometry().Subchannels)
	for i := 0; ; i++ {
		more := false
		for _, r := range recs {
			if i < len(r.rec) {
				more = true
				loc := m.Decode(r.rec[i].Addr)
				out[loc.Sub] = append(out[loc.Sub], mcReq{loc: loc, write: r.rec[i].Write})
			}
		}
		if !more {
			return out
		}
	}
}

// mcReplay drives each subchannel's recorded requests through a lone
// controller and device on a private engine.
type mcReplay struct {
	subs       []*feeder
	depth      []int
	timing     timing.Params
	guard      hot
	reqs, cmds int64
}

// feeder enqueues one subchannel's requests at a fixed rate.
type feeder struct {
	eng    *event.Engine
	ctl    *mc.Controller
	dev    *dram.Device
	reqs   []mcReq
	next   int
	done   int
	timeNs int64
}

func (f *feeder) at(i int) int64 { return int64(i) * f.timeNs / int64(len(f.reqs)) }

func feed(ctx any, _ int64) {
	f := ctx.(*feeder)
	q := f.reqs[f.next]
	r := f.ctl.NewRequest()
	r.Bank, r.Row, r.Col, r.Write = q.loc.Bank, q.loc.Row, q.loc.Col, q.write
	r.Done, r.DoneCtx = served, f
	f.ctl.Enqueue(r)
	if f.next++; f.next < len(f.reqs) {
		f.eng.AtFunc(f.at(f.next), feed, f, 0)
	}
}

func served(ctx any, _ int64) { ctx.(*feeder).done++ }

func newMCReplay(m machine, perSub [][]mcReq, timeNs int64) (*mcReplay, error) {
	r := &mcReplay{timing: m.timing}
	for _, reqs := range perSub {
		if len(reqs) == 0 {
			continue
		}
		depth := 4*len(reqs) + 4096
		cfg := dram.Config{
			Banks: m.geo.Banks, Rows: m.geo.Rows, Chips: m.chips, RFMLevel: m.rfm,
			Timing: m.timing, LogDepth: depth,
		}
		if m.newGuard != nil {
			cfg.NewGuard = func(chip, bank int) dram.BankGuard {
				return &timedGuard{g: m.newGuard(chip, bank), hot: &r.guard}
			}
		}
		dev, err := dram.NewDevice(cfg)
		if err != nil {
			return nil, err
		}
		eng := event.NewEngine()
		ctl, err := mc.New(eng, dev, m.mc)
		if err != nil {
			return nil, err
		}
		f := &feeder{eng: eng, ctl: ctl, dev: dev, reqs: reqs, timeNs: max(timeNs, 1)}
		eng.AtFunc(0, feed, f, 0)
		r.subs = append(r.subs, f)
		r.depth = append(r.depth, depth)
		r.reqs += int64(len(reqs))
	}
	return r, nil
}

func (r *mcReplay) run() error {
	for i, f := range r.subs {
		f.eng.RunWhile(func() bool { return f.done < len(f.reqs) })
		if f.done < len(f.reqs) {
			return fmt.Errorf("mc replay %d stalled with %d/%d requests served", i, f.done, len(f.reqs))
		}
	}
	return nil
}

// check validates each replay's command log against the DRAM protocol.
func (r *mcReplay) check() error {
	for i, f := range r.subs {
		log := f.dev.CommandLog()
		if len(log) >= r.depth[i] {
			return fmt.Errorf("mc replay %d: command log wrapped", i)
		}
		if err := dram.CheckProtocol(log, r.timing); err != nil {
			return fmt.Errorf("mc replay %d: %w", i, err)
		}
		r.cmds += int64(len(log))
	}
	return nil
}

// sliceSource replays a recorded access stream.
type sliceSource struct {
	acc []cpu.Access
	i   int
}

func (s *sliceSource) Next() (cpu.Access, bool) {
	if s.i >= len(s.acc) {
		return cpu.Access{}, false
	}
	s.i++
	return s.acc[s.i-1], true
}

// cpuReplay runs one lone core per recorded stream on a private
// engine; every read returns after a fixed latency.
type cpuReplay struct {
	eng      *event.Engine
	srcs     []*sliceSource
	cores    []*cpu.Core
	finished int
}

func newCPUReplay(recs []*recSource, target, lat int64) (*cpuReplay, error) {
	r := &cpuReplay{eng: event.NewEngine()}
	submit := func(_ int64, _ bool, done event.Func, ctx any) {
		if done != nil {
			r.eng.AfterFunc(lat, done, ctx, 0)
		}
	}
	for _, rec := range recs {
		src := &sliceSource{acc: rec.rec}
		c, err := cpu.New(r.eng, cpu.Config{
			Width: 8, ROB: 256, TargetInstr: target, Submit: submit,
			OnFinish: func() { r.finished++ },
		}, src)
		if err != nil {
			return nil, err
		}
		r.srcs = append(r.srcs, src)
		r.cores = append(r.cores, c)
	}
	return r, nil
}

func (r *cpuReplay) run() error {
	r.eng.RunWhile(func() bool { return r.finished < len(r.cores) })
	if r.finished < len(r.cores) {
		return fmt.Errorf("cpu replay stalled with %d/%d cores done", r.finished, len(r.cores))
	}
	return nil
}

func (r *cpuReplay) retired() int64 {
	var n int64
	for _, c := range r.cores {
		n += c.Stats().Retired
	}
	return n
}

// sourceCost times the replay's source calls again on their own, for
// subtraction from the replay.
func (r *cpuReplay) sourceCost() hot {
	var h hot
	t0 := time.Now()
	for _, s := range r.srcs {
		again := sliceSource{acc: s.acc}
		for again.i < s.i {
			again.Next()
		}
		h.Calls += int64(s.i)
	}
	h.Ns = int64(time.Since(t0))
	return h
}
