// Package sim composes the full system — cores, address mapping, two
// subchannel memory controllers, DRAM devices with mitigation guards,
// and the security oracle — and runs the paper's experiments.
//
// Performance runs report per-core IPC and throughput-normalised
// slowdown versus the unprotected baseline. The paper measures weighted
// speedup; in rate mode (identical benchmarks on all cores) weighted
// speedup reduces to the IPC-sum ratio used here, and for the six mixes
// the difference is a fixed per-core weighting that does not change who
// wins or by how much (documented in DESIGN.md).
package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"mopac/internal/addrmap"
	"mopac/internal/cpu"
	"mopac/internal/dram"
	"mopac/internal/event"
	"mopac/internal/mc"
	"mopac/internal/mitigation"
	"mopac/internal/oracle"
	"mopac/internal/stats"
	"mopac/internal/telemetry"
	"mopac/internal/timing"
	"mopac/internal/workload"
)

// Config describes one simulation run.
type Config struct {
	Design Design
	// TRH is the Rowhammer threshold the design must tolerate (ignored
	// by the baseline).
	TRH int
	// Workload names a Table 4 workload; Cores and InstrPerCore size
	// the run (the paper uses 8 cores x 100 M instructions; scaled-down
	// runs preserve the relative results).
	Workload     string
	Cores        int
	InstrPerCore int64
	// NUP enables §8 non-uniform sampling (MoPAC-D).
	NUP bool
	// RowPress enables the Appendix A defences (both variants).
	RowPress bool
	// Chips replicates MoPAC-D state per chip (default 4, Appendix B).
	Chips int
	// PInvOverride, when > 0, overrides the TRH-derived update
	// probability for MoPAC designs with p = 1/PInvOverride (the §5.4
	// p-selection sweep).
	PInvOverride int
	// RFMLevel is the number of RFMs per ABO episode (JEDEC machine
	// register; the paper uses 1 for a 350 ns stall).
	RFMLevel int
	// MaxPostponedREFs lets the controller postpone up to 4 periodic
	// refreshes under demand traffic (0 = strict tREFI cadence).
	MaxPostponedREFs int
	// SRQSize and DrainOnREF override the derived MoPAC-D parameters
	// when set (Fig 12/13 sweeps).
	SRQSize    int
	DrainOnREF *int
	// Policy and TimeoutNs select the row-closure policy (Appendix C).
	Policy    mc.PagePolicy
	TimeoutNs int64
	// Seed makes the run reproducible.
	Seed uint64
	// TrackSecurity attaches the oracle (memory-heavy on long runs).
	TrackSecurity bool
	// CommandLogDepth enables per-device command logging for offline
	// protocol checking (dram.CheckProtocol).
	CommandLogDepth int
	// Trace attaches a telemetry tracer: every subchannel registers
	// device, controller, and mitigation tracks, and every core its own.
	// Probes are purely observational, so a traced run is
	// simulation-identical to an untraced one. Excluded from Hash() —
	// tracing never changes results, so cache keys ignore it — and from
	// the persisted result-store encoding for the same reason.
	Trace *telemetry.Tracer `json:"-"`
}

func (c *Config) setDefaults() {
	if c.Cores == 0 {
		c.Cores = 8
	}
	if c.InstrPerCore == 0 {
		c.InstrPerCore = 1_000_000
	}
	if c.Chips == 0 {
		c.Chips = 4
	}
	if c.TRH == 0 {
		c.TRH = 500
	}
}

// Result reports one finished run. Every field except Oracle survives
// a JSON round-trip bit-exactly (Go's float encoding is shortest-
// round-trip), which is what lets the planner's on-disk result store
// reproduce byte-identical tables from persisted runs; oracle state is
// process-only, so runs that need it bypass the store (see plan.go).
type Result struct {
	Config   Config
	TimeNs   int64
	IPC      []float64
	SumIPC   float64
	MC       mc.Stats
	Dev      dram.Stats
	Oracle   *oracle.Oracle `json:"-"`
	Workload WorkloadStatsResult
	// Latency is the read-latency distribution across subchannels;
	// PRAC's penalty concentrates in its tail.
	Latency stats.Summary
	// SRQ aggregates MoPAC-D engine stats over banks and chips.
	SRQ mitigation.MoPACDStats
}

// RBHR returns the measured row-buffer hit rate.
func (r Result) RBHR() float64 {
	if r.MC.Reads == 0 {
		return 0
	}
	return float64(r.MC.RowHits) / float64(r.MC.Reads)
}

// CounterUpdatesPer100ACTs returns the energy-proxy metric behind the
// paper's key insight: the fraction of activations that pay for a PRAC
// counter read-modify-write. PRAC updates on every activation; MoPAC-C
// on ~100p of 100; MoPAC-D defers updates to ABO/REF (counted from the
// guard drains, per chip).
func (r Result) CounterUpdatesPer100ACTs() float64 {
	if r.Dev.Activates == 0 {
		return 0
	}
	if r.Config.Design.known() && designs[r.Config.Design].perChip {
		chips := int64(r.Config.Chips)
		if chips <= 0 {
			chips = 1
		}
		return float64(r.SRQ.CounterUpdates) / float64(chips) / float64(r.Dev.Activates) * 100
	}
	return float64(r.Dev.PrechargesCU) / float64(r.Dev.Activates) * 100
}

// ABOStallFraction returns the share of run time spent in ALERT-induced
// stalls.
func (r Result) ABOStallFraction() float64 {
	if r.TimeNs == 0 {
		return 0
	}
	return float64(r.MC.StallNs) / float64(r.TimeNs) / 2 // two subchannels
}

// SRQInsertionsPer100ACTs returns the Table 12 metric.
func (r Result) SRQInsertionsPer100ACTs() float64 {
	if r.SRQ.Activations == 0 {
		return 0
	}
	return float64(r.SRQ.Insertions+r.SRQ.Coalesced) / float64(r.SRQ.Activations) * 100
}

// System is a fully wired simulated machine running on one event
// engine.
type System struct {
	cfg     Config
	eng     *event.Engine
	mapper  addrmap.Mapper
	devs    []*dram.Device
	ctrls   []*mc.Controller
	cores   []*cpu.Core
	oracle  *oracle.Oracle // nil unless Config.TrackSecurity
	wstats  *WorkloadStats
	tparams timing.Params
	running int // cores that have not yet retired their target

	// Frontend hops (FrontendLatencyNs each way): one arrival link from
	// the core complex and one return link per subchannel.
	arrive *event.Link
	ret    []*event.Link
}

// NewSystem wires a system for the configuration.
func NewSystem(c Config) (*System, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	c.setDefaults()
	ds := designs[c.Design]
	params, mcCfg := ds.setup(c, mc.Config{
		Policy:           c.Policy,
		TimeoutNs:        c.TimeoutNs,
		RFMLevel:         c.RFMLevel,
		MaxPostponedREFs: c.MaxPostponedREFs,
		Seed:             c.Seed ^ 0xc0ffee,
	})
	tparams := mcCfg.Timing
	geo := addrmap.Default()
	mapper, err := addrmap.NewMOP(geo, 4)
	if err != nil {
		return nil, err
	}

	s := &System{
		cfg: c, eng: event.NewEngine(), mapper: mapper, tparams: tparams,
		wstats: NewWorkloadStats(geo, tparams),
	}
	// The workload collector and the oracle observe every subchannel in
	// one global bank namespace (subObserver offsets bank by sub*Banks).
	var obs dram.Observer = s.wstats
	if c.TrackSecurity {
		s.oracle = oracle.New(c.TRH)
		obs = MultiObserver(s.wstats, s.oracle)
	}

	chips := 1
	if ds.perChip {
		chips = c.Chips
	}
	// Guard seeds derive only from (chip, bank), so building the guard
	// factory per subchannel (for its own probe view) leaves every RNG
	// stream exactly as a shared factory would.
	for sub := 0; sub < geo.Subchannels; sub++ {
		var devTrc *telemetry.DeviceTracks
		var mcTrc *telemetry.MCTracks
		var gTrc *telemetry.GuardTracks
		if c.Trace != nil {
			devTrc = c.Trace.Device(fmt.Sprintf("sub%d", sub), geo.Banks)
			mcTrc = c.Trace.MC(fmt.Sprintf("mc%d", sub))
			gTrc = c.Trace.Mitigation(fmt.Sprintf("mit%d", sub))
		}
		var ng func(chip, bank int) dram.BankGuard
		if ds.guard != nil {
			var gerr error
			if ng, gerr = ds.guard(c, params, geo.Rows, gTrc); gerr != nil {
				return nil, gerr
			}
		}
		dev, derr := dram.NewDevice(dram.Config{
			Banks:    geo.Banks,
			Rows:     geo.Rows,
			Chips:    chips,
			RFMLevel: c.RFMLevel,
			LogDepth: c.CommandLogDepth,
			Timing:   tparams,
			NewGuard: ng,
			Observer: subObserver{obs, sub, geo.Banks},
			Trace:    devTrc,
		})
		if derr != nil {
			return nil, derr
		}
		subCfg := mcCfg
		subCfg.Trace = mcTrc
		ctl, cerr := mc.New(s.eng, dev, subCfg)
		if cerr != nil {
			return nil, cerr
		}
		s.devs = append(s.devs, dev)
		s.ctrls = append(s.ctrls, ctl)
		s.ret = append(s.ret, s.eng.NewLink(FrontendLatencyNs))
	}
	s.arrive = s.eng.NewLink(FrontendLatencyNs)

	// An empty workload name builds a coreless system; attack drivers
	// (RunAttack) attach their own sources. An "attack:<spec>" name
	// makes a parameterized attack pattern a first-class workload: every
	// core replays the spec's access stream, which gives the determinism
	// suite (and any caller) oracle-on attack runs through the ordinary
	// Run path.
	if spec, isAttack := strings.CutPrefix(c.Workload, "attack:"); isAttack {
		as, perr := workload.ParseAttackSpec(spec)
		if perr != nil {
			return nil, perr
		}
		if verr := as.Validate(geo); verr != nil {
			return nil, verr
		}
		for core := 0; core < c.Cores; core++ {
			src, berr := as.Build(mapper)
			if berr != nil {
				return nil, berr
			}
			if err := s.addCore(src); err != nil {
				return nil, err
			}
		}
	} else if c.Workload != "" {
		specs, err := workload.PerCoreSpecs(c.Workload, c.Cores)
		if err != nil {
			return nil, err
		}
		for core := 0; core < c.Cores; core++ {
			gen, gerr := workload.NewGenerator(specs[core], mapper, core, c.Cores, c.Seed+77)
			if gerr != nil {
				return nil, gerr
			}
			if err := s.addCore(gen); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// Mapper returns the system's address mapper.
func (s *System) Mapper() addrmap.Mapper { return s.mapper }

// Submit routes a physical-address access into the memory system,
// paying the frontend latency in both directions. Externally attached
// cores (trace replay, attack drivers) use it. onDone may be nil for
// fire-and-forget accesses.
func (s *System) Submit(addr int64, write bool, onDone func(int64)) {
	if onDone == nil {
		s.submit(addr, write, nil, nil)
		return
	}
	s.submit(addr, write, callOnDone, onDone)
}

// callOnDone adapts a plain func(int64) completion onto the pre-bound
// event.Func form used internally.
func callOnDone(ctx any, at int64) { ctx.(func(int64))(at) }

// AttachCore adds an externally sourced core (e.g. a trace replay) to
// the system and returns it.
func (s *System) AttachCore(src cpu.Source, targetInstr int64) (*cpu.Core, error) {
	core, err := cpu.New(s.eng, cpu.Config{
		Width: 8, ROB: 256, TargetInstr: targetInstr, Submit: s.submit,
		OnFinish: s.coreFinished,
		Trace:    s.coreTrack(),
	}, src)
	if err != nil {
		return nil, err
	}
	s.cores = append(s.cores, core)
	s.running++
	return core, nil
}

// coreTrack registers the next core's telemetry track (nil when tracing
// is off).
func (s *System) coreTrack() *telemetry.CoreTracks {
	if s.cfg.Trace == nil {
		return nil
	}
	return s.cfg.Trace.Core(fmt.Sprintf("core%d", len(s.cores)))
}

// coreFinished keeps the running-core count that lets the run loop test
// completion with one integer compare instead of polling every core.
func (s *System) coreFinished() { s.running-- }

// addCore attaches a core fed by src to the memory system.
func (s *System) addCore(src cpu.Source) error {
	core, err := cpu.New(s.eng, cpu.Config{
		Width:       8,
		ROB:         256,
		TargetInstr: s.cfg.InstrPerCore,
		Submit:      s.submit,
		OnFinish:    s.coreFinished,
		Trace:       s.coreTrack(),
	}, src)
	if err != nil {
		return err
	}
	s.cores = append(s.cores, core)
	s.running++
	return nil
}

// FrontendLatencyNs is the fixed LLC-lookup plus interconnect latency a
// miss pays on each direction between the core and the memory
// controller. It dilutes the DRAM-timing delta exactly as the cache
// hierarchy does on real systems.
const FrontendLatencyNs = 15

// submit routes a physical address to its subchannel controller after
// the core-to-controller latency; the completion pays the return trip.
// The whole path is closure-free and costs two events: the request
// rides the arrival link into the controller, and at data completion
// the controller hands the submitter's pre-bound callback to its
// subchannel's return link, which fires it on landing. Two completions
// reaching the cores at the same instant therefore resolve by
// subchannel (see event.Link).
func (s *System) submit(addr int64, write bool, done event.Func, ctx any) {
	loc := s.mapper.Decode(addr)
	r := s.ctrls[loc.Sub].NewRequest()
	r.Bank, r.Row, r.Col, r.Write = loc.Bank, loc.Row, loc.Col, write
	if done != nil {
		r.Done, r.DoneCtx, r.Link = done, ctx, s.ret[loc.Sub]
	}
	s.arrive.Send(mc.EnqueueOwned, r, 0)
}

// Engine exposes the event engine (attack drivers and trace replay on
// coreless systems advance it manually).
func (s *System) Engine() *event.Engine { return s.eng }

// Oracle returns the attached security oracle (nil unless requested).
func (s *System) Oracle() *oracle.Oracle { return s.oracle }

// OracleActivations returns the oracle's activation count so far (0
// without an oracle) — the polling accessor attack drivers use.
func (s *System) OracleActivations() int64 {
	if s.oracle == nil {
		return 0
	}
	return s.oracle.Activations()
}

// Controllers returns the per-subchannel controllers.
func (s *System) Controllers() []*mc.Controller { return s.ctrls }

// Devices returns the per-subchannel devices.
func (s *System) Devices() []*dram.Device { return s.devs }

// ErrCanceled is returned (wrapped) by RunContext when the context ends
// before the run completes naturally.
var ErrCanceled = errors.New("sim: run canceled")

// cancelCheckEvents is how many events RunContext executes between
// context polls. Events are nanosecond-scale, so this bounds the
// cancellation latency to microseconds of wall time while keeping the
// hot loop free of per-event synchronisation.
const cancelCheckEvents = 4096

// Run executes until every core retires its target (or the safety cap of
// maxNs is reached; 0 means one simulated second).
func (s *System) Run(maxNs int64) (Result, error) {
	return s.RunContext(context.Background(), maxNs)
}

// RunContext is Run with cooperative cancellation: the context is
// polled every cancelCheckEvents executed events, so per-job deadlines,
// client aborts, and server drains interrupt a run mid-flight. A
// cancelled run returns an error wrapping both ErrCanceled and the
// context's cause.
//
// The run stops at the event that retires the last core's target, so
// TimeNs is the instant the last core finished.
func (s *System) RunContext(ctx context.Context, maxNs int64) (Result, error) {
	if maxNs <= 0 {
		maxNs = 1_000_000_000
	}
	canceled := func() (Result, error) {
		return Result{}, fmt.Errorf("%w at t=%d ns: %w", ErrCanceled, s.eng.Now(), context.Cause(ctx))
	}
	if ctx.Err() != nil {
		return canceled()
	}
	for steps := 1; s.running > 0 && s.eng.Now() < maxNs && s.eng.Step(); steps++ {
		if steps%cancelCheckEvents == 0 && ctx.Err() != nil {
			return canceled()
		}
	}
	if s.running > 0 || s.eng.Now() >= maxNs {
		return Result{}, fmt.Errorf("sim: run hit the %d ns cap before all cores finished", maxNs)
	}
	return s.collect(), nil
}

func (s *System) collect() Result {
	res := Result{Config: s.cfg, TimeNs: s.eng.Now(), Oracle: s.oracle}
	for _, c := range s.cores {
		ipc := c.IPC()
		res.IPC = append(res.IPC, ipc)
		res.SumIPC += ipc
	}
	for _, ctl := range s.ctrls {
		st := ctl.Stats()
		res.MC.Reads += st.Reads
		res.MC.Writes += st.Writes
		res.MC.RowHits += st.RowHits
		res.MC.RowMisses += st.RowMisses
		res.MC.RowConflicts += st.RowConflicts
		res.MC.SumLatency += st.SumLatency
		res.MC.AlertStalls += st.AlertStalls
		res.MC.StallNs += st.StallNs
		res.MC.RefreshNs += st.RefreshNs
		if st.MaxLatency > res.MC.MaxLatency {
			res.MC.MaxLatency = st.MaxLatency
		}
	}
	for _, dev := range s.devs {
		st := dev.Stats()
		res.Dev.Activates += st.Activates
		res.Dev.Reads += st.Reads
		res.Dev.Precharges += st.Precharges
		res.Dev.PrechargesCU += st.PrechargesCU
		res.Dev.Refreshes += st.Refreshes
		res.Dev.RFMs += st.RFMs
		res.Dev.Alerts += st.Alerts
		res.Dev.Mitigations += st.Mitigations
		res.Dev.GuardMitigations += st.GuardMitigations
		for chip := 0; chip < dev.Chips(); chip++ {
			for bank := 0; bank < dev.Banks(); bank++ {
				if g, ok := dev.Guard(chip, bank).(*mitigation.MoPACD); ok {
					st := g.Stats()
					res.SRQ.Activations += st.Activations
					res.SRQ.Insertions += st.Insertions
					res.SRQ.Coalesced += st.Coalesced
					res.SRQ.DroppedFull += st.DroppedFull
					res.SRQ.CounterUpdates += st.CounterUpdates
					res.SRQ.DrainsOnREF += st.DrainsOnREF
					res.SRQ.DrainsOnABO += st.DrainsOnABO
					res.SRQ.Mitigations += st.Mitigations
					res.SRQ.TardinessAlerts += st.TardinessAlerts
					res.SRQ.SRQFullAlerts += st.SRQFullAlerts
					res.SRQ.MitigAlerts += st.MitigAlerts
				}
			}
		}
	}
	var lat stats.Histogram
	for _, ctl := range s.ctrls {
		lat.Merge(ctl.LatencyHistogram())
	}
	res.Latency = lat.Snapshot()
	res.Workload = s.wstats.Snapshot(s.eng.Now())
	return res
}

// Summary returns the flat JSON-friendly digest of the run.
func (r Result) Summary() ResultSummary {
	s := ResultSummary{
		Design:       r.Config.Design.String(),
		Workload:     r.Config.Workload,
		TRH:          r.Config.TRH,
		Seed:         r.Config.Seed,
		TimeNs:       r.TimeNs,
		SumIPC:       r.SumIPC,
		RBHR:         r.RBHR(),
		APRI:         r.Workload.APRI,
		Reads:        r.MC.Reads,
		Writes:       r.MC.Writes,
		Activates:    r.Dev.Activates,
		Alerts:       r.Dev.Alerts,
		Mitigations:  r.Dev.Mitigations,
		P50LatencyNs: r.Latency.P50,
		P99LatencyNs: r.Latency.P99,
		CUPer100ACT:  r.CounterUpdatesPer100ACTs(),
		SRQInsPer100: r.SRQInsertionsPer100ACTs(),
	}
	if r.MC.Reads > 0 {
		s.AvgLatencyNs = float64(r.MC.SumLatency) / float64(r.MC.Reads)
	}
	if r.Oracle != nil {
		sec := r.Oracle.Secure()
		s.Secure = &sec
		s.MaxUnmitig, _, _ = r.Oracle.MaxUnmitigated()
	}
	return s
}

// Slowdown returns the throughput loss of res versus base:
// 1 - SumIPC(res)/SumIPC(base).
func Slowdown(base, res Result) float64 {
	if base.SumIPC == 0 {
		return 0
	}
	return 1 - res.SumIPC/base.SumIPC
}

// subObserver offsets bank indices so both subchannels share one
// observer with a global bank namespace.
type subObserver struct {
	inner dram.Observer
	sub   int
	banks int
}

func (o subObserver) ObserveActivate(now int64, bank, row int) {
	o.inner.ObserveActivate(now, o.sub*o.banks+bank, row)
}
func (o subObserver) ObserveMitigation(now int64, bank, row int) {
	o.inner.ObserveMitigation(now, o.sub*o.banks+bank, row)
}
func (o subObserver) ObserveRefresh(now int64, bank, rowLo, rowHi int) {
	o.inner.ObserveRefresh(now, o.sub*o.banks+bank, rowLo, rowHi)
}

// multiObserver fans events out to several observers.
type multiObserver []dram.Observer

// MultiObserver combines observers; nil entries are dropped.
func MultiObserver(obs ...dram.Observer) dram.Observer {
	var out multiObserver
	for _, o := range obs {
		if o != nil {
			out = append(out, o)
		}
	}
	return out
}

func (m multiObserver) ObserveActivate(now int64, bank, row int) {
	for _, o := range m {
		o.ObserveActivate(now, bank, row)
	}
}
func (m multiObserver) ObserveMitigation(now int64, bank, row int) {
	for _, o := range m {
		o.ObserveMitigation(now, bank, row)
	}
}
func (m multiObserver) ObserveRefresh(now int64, bank, rowLo, rowHi int) {
	for _, o := range m {
		o.ObserveRefresh(now, bank, rowLo, rowHi)
	}
}
