package cpu

import (
	"testing"

	"mopac/internal/event"
)

// sliceSource replays a fixed access list.
type sliceSource struct {
	accs []Access
	i    int
}

func (s *sliceSource) Next() (Access, bool) {
	if s.i >= len(s.accs) {
		return Access{}, false
	}
	a := s.accs[s.i]
	s.i++
	return a, true
}

// fakeMemory services every request after a fixed latency.
type fakeMemory struct {
	eng     *event.Engine
	latency int64
	issued  []int64 // issue times
	writes  int
}

func (f *fakeMemory) submit(addr int64, write bool, done event.Func, ctx any) {
	f.issued = append(f.issued, f.eng.Now())
	if write {
		f.writes++
	}
	if done == nil {
		return
	}
	at := f.eng.Now() + f.latency
	f.eng.AtFunc(at, done, ctx, at)
}

func runCore(t *testing.T, target int64, lat int64, accs []Access) (*Core, *fakeMemory, *event.Engine) {
	t.Helper()
	eng := event.NewEngine()
	mem := &fakeMemory{eng: eng, latency: lat}
	core, err := New(eng, Config{
		Width: 16, ROB: 256, TargetInstr: target, Submit: mem.submit,
	}, &sliceSource{accs: accs})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(100_000_000)
	return core, mem, eng
}

func TestPureComputeRunsAtFullWidth(t *testing.T) {
	core, _, _ := runCore(t, 16_000, 100, nil)
	if !core.Done() {
		t.Fatal("core never finished")
	}
	// 16000 instructions at 16/ns = 1000 ns.
	if got := core.Stats().FinishedAt; got != 1000 {
		t.Fatalf("finished at %d, want 1000", got)
	}
	if ipc := core.IPC(); ipc != 16 {
		t.Fatalf("IPC = %v, want 16", ipc)
	}
}

func TestSingleMissAddsLatency(t *testing.T) {
	core, mem, _ := runCore(t, 16_000, 200, []Access{{Gap: 0, Addr: 64}})
	if len(mem.issued) != 1 || mem.issued[0] != 0 {
		t.Fatalf("miss issued at %v, want t=0", mem.issued)
	}
	// Retirement blocked at instruction 0 until t=200, then 1000 ns of
	// compute.
	want := int64(200 + 1000)
	if got := core.Stats().FinishedAt; got != want {
		t.Fatalf("finished at %d, want %d", got, want)
	}
	if core.Stats().StallNs != 200 {
		t.Fatalf("stall = %d, want 200", core.Stats().StallNs)
	}
}

func TestIndependentMissesOverlap(t *testing.T) {
	core, mem, _ := runCore(t, 16_000, 200, []Access{
		{Gap: 0, Addr: 64},
		{Gap: 0, Addr: 128},
		{Gap: 0, Addr: 192},
	})
	// All three inside the ROB with no dependencies: all issue at t=0.
	for i, at := range mem.issued {
		if at != 0 {
			t.Fatalf("miss %d issued at %d, want 0 (MLP)", i, at)
		}
	}
	want := int64(200 + 1000)
	if got := core.Stats().FinishedAt; got != want {
		t.Fatalf("finished at %d, want %d (latency paid once)", got, want)
	}
}

func TestDependentMissesSerialise(t *testing.T) {
	core, mem, _ := runCore(t, 16_000, 200, []Access{
		{Gap: 0, Addr: 64},
		{Gap: 0, Addr: 128, Dep: true},
	})
	if len(mem.issued) != 2 {
		t.Fatalf("issued %d misses", len(mem.issued))
	}
	if mem.issued[1] < 200 {
		t.Fatalf("dependent miss issued at %d, want >= 200", mem.issued[1])
	}
	want := int64(400 + 1000)
	if got := core.Stats().FinishedAt; got != want {
		t.Fatalf("finished at %d, want %d (two serialised latencies)", got, want)
	}
}

func TestROBLimitsMLP(t *testing.T) {
	// Second miss sits 300 instructions after the first: outside the
	// 256-entry window while the first blocks retirement at 0.
	_, mem, _ := runCore(t, 16_000, 200, []Access{
		{Gap: 0, Addr: 64},
		{Gap: 299, Addr: 128},
	})
	if mem.issued[0] != 0 {
		t.Fatalf("first miss at %d", mem.issued[0])
	}
	// After the first returns at t=200, retirement must cover
	// (300-256)=44 instructions (3 ns at width 16) before the second
	// fits in the window.
	if mem.issued[1] < 200 {
		t.Fatalf("second miss issued at %d; ROB should have blocked it until 200+", mem.issued[1])
	}
	if mem.issued[1] > 210 {
		t.Fatalf("second miss issued at %d; expected shortly after 200", mem.issued[1])
	}
}

func TestGapDelaysIssue(t *testing.T) {
	// A miss 4096 instructions in cannot issue before fetch reaches
	// 4096-256 = 3840 instructions = 240 ns.
	_, mem, _ := runCore(t, 16_000, 50, []Access{{Gap: 4096, Addr: 64}})
	if len(mem.issued) != 1 {
		t.Fatalf("issued %d misses", len(mem.issued))
	}
	if mem.issued[0] != 240 {
		t.Fatalf("miss issued at %d, want 240", mem.issued[0])
	}
}

func TestMissBeyondTargetIgnored(t *testing.T) {
	core, mem, _ := runCore(t, 1000, 50, []Access{{Gap: 5000, Addr: 64}})
	if len(mem.issued) != 0 {
		t.Fatal("miss beyond the target must not issue")
	}
	if core.Stats().FinishedAt != 63 { // ceil(1000/16)
		t.Fatalf("finished at %d, want 63", core.Stats().FinishedAt)
	}
}

func TestManyMissesAllServed(t *testing.T) {
	var accs []Access
	for i := 0; i < 200; i++ {
		accs = append(accs, Access{Gap: 40, Addr: int64(i * 64), Dep: i%3 == 0})
	}
	core, mem, _ := runCore(t, 100_000, 80, accs)
	if !core.Done() {
		t.Fatal("core never finished")
	}
	if int64(len(mem.issued)) != core.Stats().Misses || len(mem.issued) != 200 {
		t.Fatalf("issued %d, stats %d, want 200", len(mem.issued), core.Stats().Misses)
	}
	// Sanity: IPC strictly below peak because of dependent misses.
	if ipc := core.IPC(); ipc >= 16 || ipc <= 0 {
		t.Fatalf("IPC = %v", ipc)
	}
}

func TestHigherLatencyLowersIPC(t *testing.T) {
	mk := func(lat int64) float64 {
		var accs []Access
		for i := 0; i < 300; i++ {
			accs = append(accs, Access{Gap: 30, Addr: int64(i * 64), Dep: true})
		}
		core, _, _ := runCore(t, 50_000, lat, accs)
		return core.IPC()
	}
	fast, slow := mk(40), mk(62)
	if !(slow < fast) {
		t.Fatalf("IPC fast=%v slow=%v; latency must hurt dependent chains", fast, slow)
	}
	// The slowdown should be roughly proportional to the latency delta
	// for a fully dependent chain.
	slowdown := 1 - slow/fast
	if slowdown < 0.2 {
		t.Fatalf("slowdown %.3f too small for 55%% latency growth", slowdown)
	}
}

func TestConfigValidation(t *testing.T) {
	eng := event.NewEngine()
	bad := []Config{
		{Width: 0, ROB: 1, TargetInstr: 1, Submit: func(int64, bool, event.Func, any) {}},
		{Width: 1, ROB: 0, TargetInstr: 1, Submit: func(int64, bool, event.Func, any) {}},
		{Width: 1, ROB: 1, TargetInstr: 0, Submit: func(int64, bool, event.Func, any) {}},
		{Width: 1, ROB: 1, TargetInstr: 1},
		{Width: 2, ROB: 1, TargetInstr: 1, Submit: func(int64, bool, event.Func, any) {}},
	}
	for i, cfg := range bad {
		if _, err := New(eng, cfg, &sliceSource{}); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestStoresDoNotBlockRetirement(t *testing.T) {
	// A store at position 0 with huge latency must not stall the core.
	core, mem, _ := runCore(t, 16_000, 1_000_000, []Access{
		{Gap: 0, Addr: 64, Write: true},
	})
	if !core.Done() {
		t.Fatal("core never finished")
	}
	if got := core.Stats().FinishedAt; got != 1000 {
		t.Fatalf("finished at %d; the store must not block", got)
	}
	if mem.writes != 1 || core.Stats().Stores != 1 {
		t.Fatalf("store not submitted: mem=%d stats=%d", mem.writes, core.Stats().Stores)
	}
}

func TestStoreForwardsToDependentLoad(t *testing.T) {
	// A load marked dependent on a preceding store issues immediately
	// (store-to-load forwarding).
	_, mem, _ := runCore(t, 16_000, 500, []Access{
		{Gap: 0, Addr: 64, Write: true},
		{Gap: 0, Addr: 128, Dep: true},
	})
	if len(mem.issued) != 2 || mem.issued[1] != 0 {
		t.Fatalf("dependent load after store issued at %v, want t=0", mem.issued)
	}
}

func TestMSHRLimitSerialisesIssues(t *testing.T) {
	eng := event.NewEngine()
	mem := &fakeMemory{eng: eng, latency: 100}
	core, err := New(eng, Config{
		Width: 16, ROB: 256, TargetInstr: 16_000, MSHRs: 1, Submit: mem.submit,
	}, &sliceSource{accs: []Access{
		{Gap: 0, Addr: 64},
		{Gap: 0, Addr: 128},
		{Gap: 0, Addr: 192},
	}})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(100_000_000)
	if !core.Done() {
		t.Fatal("core never finished")
	}
	// One MSHR: misses issue back to back at 0, 100, 200.
	want := []int64{0, 100, 200}
	for i, at := range mem.issued {
		if at != want[i] {
			t.Fatalf("issue times %v, want %v", mem.issued, want)
		}
	}
	// Total time pays three serialised latencies.
	if got := core.Stats().FinishedAt; got != 300+1000 {
		t.Fatalf("finished at %d, want 1300", got)
	}
}

func TestMSHRLimitIgnoresStores(t *testing.T) {
	eng := event.NewEngine()
	mem := &fakeMemory{eng: eng, latency: 1_000_000}
	core, err := New(eng, Config{
		Width: 16, ROB: 256, TargetInstr: 16_000, MSHRs: 1, Submit: mem.submit,
	}, &sliceSource{accs: []Access{
		{Gap: 0, Addr: 64, Write: true},
		{Gap: 0, Addr: 128, Write: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(100_000_000)
	if !core.Done() || core.Stats().FinishedAt != 1000 {
		t.Fatalf("stores throttled by MSHRs: %+v", core.Stats())
	}
	if mem.writes != 2 {
		t.Fatalf("writes = %d", mem.writes)
	}
}
