package mc_test

import (
	"testing"

	"mopac/internal/addrmap"
	"mopac/internal/dram"
	"mopac/internal/event"
	"mopac/internal/mc"
	"mopac/internal/timing"
	"mopac/internal/workload"
)

// BenchmarkControllerReplay measures the controller layer alone: each
// op replays one fixed bwaves request stream into a lone DDR5 device
// and controller on a private engine. The stream is what the tracked
// simulator run's eight bwaves cores miss on (seed 1, about 100k
// instructions each), interleaved round-robin, decoded by the system's
// address mapping and cut to subchannel 0. Arrivals are evenly spaced
// over that run's simulated time, so the controller sees its arrival
// rate without the cores' back-pressure. cmds/op and bankVisits/op are
// deterministic, so they separate a change in scheduler work from
// wall-clock noise in ns/op.
func BenchmarkControllerReplay(b *testing.B) {
	const (
		cores   = 8
		perCore = 4_230  // bwaves misses in 100k instructions (42.3 MPKI)
		spanNs  = 71_455 // simulated time of that run
	)
	mapper, err := addrmap.NewMOP(addrmap.Default(), 4)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := workload.Lookup("bwaves")
	if err != nil {
		b.Fatal(err)
	}
	var stream []replayReq
	gens := make([]*workload.Generator, cores)
	for core := range gens {
		if gens[core], err = workload.NewGenerator(spec, mapper, core, cores, 1+77); err != nil {
			b.Fatal(err)
		}
	}
	for range perCore {
		for _, g := range gens {
			acc, _ := g.Next()
			if loc := mapper.Decode(acc.Addr); loc.Sub == 0 {
				stream = append(stream, replayReq{loc: loc, write: acc.Write})
			}
		}
	}
	tp := timing.DDR5()
	b.ReportAllocs()
	b.ResetTimer()
	var cmds, visits int64
	for i := 0; i < b.N; i++ {
		dev, err := dram.NewDevice(dram.Config{
			Banks: mapper.Geometry().Banks, Rows: mapper.Geometry().Rows, Timing: tp,
		})
		if err != nil {
			b.Fatal(err)
		}
		eng := event.NewEngine()
		ctl, err := mc.New(eng, dev, mc.Config{Timing: tp, Seed: 1 ^ 0xc0ffee})
		if err != nil {
			b.Fatal(err)
		}
		f := &replayFeeder{eng: eng, ctl: ctl, reqs: stream, spanNs: spanNs}
		eng.AtFunc(0, replayFeed, f, 0)
		eng.RunWhile(func() bool { return f.done < len(stream) })
		if f.done < len(stream) {
			b.Fatalf("replay stalled with %d/%d requests served", f.done, len(stream))
		}
		st := dev.Stats()
		cmds += st.Activates + st.Reads + st.Writes + st.Precharges + st.PrechargesCU + st.Refreshes + st.RFMs
		visits += ctl.BankVisits()
	}
	b.ReportMetric(float64(cmds)/float64(b.N), "cmds/op")
	b.ReportMetric(float64(visits)/float64(b.N), "bankVisits/op")
}

// replayReq is one recorded access, decoded to its subchannel location.
type replayReq struct {
	loc   addrmap.Loc
	write bool
}

// replayFeeder enqueues its requests at evenly spaced instants.
type replayFeeder struct {
	eng    *event.Engine
	ctl    *mc.Controller
	reqs   []replayReq
	next   int
	done   int
	spanNs int64
}

func (f *replayFeeder) at(i int) int64 { return int64(i) * f.spanNs / int64(len(f.reqs)) }

func replayFeed(ctx any, _ int64) {
	f := ctx.(*replayFeeder)
	q := f.reqs[f.next]
	r := f.ctl.NewRequest()
	r.Bank, r.Row, r.Col, r.Write = q.loc.Bank, q.loc.Row, q.loc.Col, q.write
	r.Done, r.DoneCtx = replayServed, f
	f.ctl.Enqueue(r)
	if f.next++; f.next < len(f.reqs) {
		f.eng.AtFunc(f.at(f.next), replayFeed, f, 0)
	}
}

func replayServed(ctx any, _ int64) { ctx.(*replayFeeder).done++ }
