// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator only through its public package functions, times those
// calls from its own files, checks the output of every operation, and
// prints one JSON result line last. LAYERS.md describes the workloads,
// the metrics and which layer metric should move which end-to-end one.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload sim-benign --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
// that alternates traced and untraced operations and reports the
// per-layer metrics, the self-time split and the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"mopac/internal/attack"
	"mopac/internal/sim"
)

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"sim-benign":    runSimBenign,
	"attack-search": runAttackSearch,
	"fig-sweep":     runFigSweep,
}

// Bench scale: every simulated system has 8 cores retiring 100k
// instructions each.
const (
	benchCores = 8
	benchInstr = 100_000
	// setupReps is how many times set-up is repeated; setup_s is the
	// median.
	setupReps = 25
	// warmReps is how many warm re-runs follow each operation.
	warmReps = 3
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: sim-benign, attack-search or fig-sweep")
	seed := flag.Uint64("seed", 1, "workload seed; every config is generated from it")
	seconds := flag.Float64("seconds", 20, "length of the measuring window")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for scratch stores and span dumps")
	flag.Parse()
	drive, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (sim-benign|attack-search|fig-sweep), --seconds > 0, --trace 0|1\n")
		return 2
	}
	b, err := newBench(*name, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(b.root)
	defer b.probe.close()
	if err := b.timeSetup(b.setUp); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := drive(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if b.traced {
		path := filepath.Join(*out, "spans", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := b.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	return b.report(os.Stdout)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one run's state: what the workload measured, the checks it
// made, and in a traced run the spans and per-layer sums.
type bench struct {
	name    string
	seed    uint64
	window  time.Duration
	traced  bool
	workers int
	root    string // scratch directory for stores, removed at exit

	tr    *tracer
	acc   layerAcc
	probe *hostProbe
	scale float64 // host-speed factor from the latest probe

	attempted, failed int
	failures          []string

	// Host times at the reference speed (see hostProbe), and as read.
	setup, rawSetup []float64 // s per set-up
	ops, rawOps     []float64 // ms per untraced operation
	warm, rawWarm   []float64 // ms per warm re-run
	rates           []float64 // simulated µs per host second, untraced operations
	tops            []float64 // ms per traced operation, as read
	mem             memDelta

	plan      planAcc
	store     storeAcc
	attackAcc attackAcc
	modelErr  map[string]float64

	metrics map[string]metric
	counts  map[string]int // samples behind a metric, for the text table
	notes   []string       // extra lines for the text table
}

func newBench(name string, seed uint64, seconds float64, traced bool, out string) (*bench, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	b := &bench{
		name: name, seed: seed, traced: traced, root: root,
		window:  time.Duration(seconds * float64(time.Second)),
		workers: min(runtime.NumCPU(), 2),
		metrics: map[string]metric{}, counts: map[string]int{},
	}
	if traced {
		b.tr = newTracer()
	}
	if b.probe, err = newHostProbe(); err != nil {
		os.RemoveAll(root)
		return nil, err
	}
	return b, nil
}

// memDelta is the Go heap activity across the measuring window.
type memDelta struct {
	ops     int
	alloc   uint64
	gc      uint32
	pauseNs uint64
}

// timeSetup runs setup setupReps times and keeps each duration. Each
// repetition starts from a collected heap, so the collections it pays
// for are its own, and is scaled by the host probes on either side.
func (b *bench) timeSetup(setup func(rep int) error) error {
	b.scale = b.probe.scale()
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		t0 := time.Now()
		if err := setup(rep); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		s := time.Since(t0).Seconds()
		b.rawSetup = append(b.rawSetup, s)
		b.setup = append(b.setup, s*b.rescale())
	}
	return nil
}

// rescale probes the host and returns the factor for the work done
// since the previous probe: the mean of the factors on either side.
func (b *bench) rescale() float64 {
	prev := b.scale
	b.scale = b.probe.scale()
	return (prev + b.scale) / 2
}

// setUp is the benchmark's set-up, the same in every workload. It
// builds the simulated machine of every distinct config the three
// workloads simulate (sim.NewSystem; the attack machines also build the
// baseline pattern) plus a figure runner, and opens a store namespace.
// One workload's own share is under a millisecond, too little to time
// steadily on a shared 2-vCPU host; the whole set takes several.
func (b *bench) setUp(rep int) error {
	cfgs := benignConfigs(b.seed)
	sim.NewRunner(b.figScale())
	for _, wl := range figWorkloads {
		cfgs = append(cfgs, b.figConfig(sim.DesignBaseline, 0, wl))
		for _, col := range figColumns {
			cfgs = append(cfgs, b.figConfig(col.d, col.trh, wl))
		}
	}
	for _, c := range cfgs {
		if _, err := sim.NewSystem(c); err != nil {
			return err
		}
	}
	for k := range attackDesigns {
		base := b.attackOptions(k).Base
		base.Cores, base.TrackSecurity = 1, true
		sys, err := sim.NewSystem(base)
		if err != nil {
			return err
		}
		if _, err := attack.BaselineSpec().Build(sys.Mapper()); err != nil {
			return err
		}
	}
	_, err := b.openStore(fmt.Sprintf("setup-%d", rep), sim.StoreSchema)
	return err
}

// measure runs op(i, traced) in a closed loop with one client until the
// window closes, and at least twice. In a traced run every odd
// operation is traced. An error from op is a failed check.
func (b *bench) measure(op func(i int, traced bool) error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	n := 0
	for ; n < 2 || time.Since(start) < b.window; n++ {
		b.attempted++
		traced := b.traced && n%2 == 1
		if traced {
			// Re-measure the timed boundary's cost: the host's speed
			// drifts, and the replays' self times subtract it per call.
			b.tr.calibrate()
		}
		if err := op(n, traced); err != nil {
			b.failed++
			if len(b.failures) < 5 {
				b.failures = append(b.failures, fmt.Sprintf("op %d: %v", n, err))
			}
		}
		if traced {
			// Collect the replays' garbage now, so the next untraced
			// operation does not pay for it.
			runtime.GC()
		}
	}
	runtime.ReadMemStats(&m1)
	b.mem = memDelta{
		ops: n, alloc: m1.TotalAlloc - m0.TotalAlloc,
		gc: m1.NumGC - m0.NumGC, pauseNs: m1.PauseTotalNs - m0.PauseTotalNs,
	}
}

// warmRuns runs warm warmReps times and books the host time each
// reports; the first failed check ends it.
func (b *bench) warmRuns(warm func() (time.Duration, error)) error {
	for r := 0; r < warmReps; r++ {
		d, err := warm()
		ms := float64(d) / 1e6
		b.rawWarm = append(b.rawWarm, ms)
		b.warm = append(b.warm, ms*b.scale)
		if err != nil {
			return err
		}
	}
	return nil
}

// slot maps operation i to the input it runs. A traced run alternates
// traced and untraced operations, so it runs each input twice in a row
// and the tracing overhead compares like with like.
func (b *bench) slot(i int) int {
	if b.traced {
		return i / 2
	}
	return i
}

// opDone books one operation's host time and simulated time. After an
// untraced operation it probes the host's speed: the operation is
// scaled by the probes on either side of it, and the warm re-runs that
// follow it by the one after it.
func (b *bench) opDone(traced bool, d time.Duration, simNs int64) {
	ms := float64(d) / 1e6
	if traced {
		b.tops = append(b.tops, ms)
		return
	}
	f := b.rescale()
	b.rawOps = append(b.rawOps, ms)
	b.ops = append(b.ops, ms*f)
	b.rates = append(b.rates, float64(simNs)/1e3/d.Seconds()/f)
}

func (b *bench) set(name string, v float64, unit string) { b.metrics[name] = metric{v, unit} }

// report computes the metrics, prints them as a table and then the
// JSON result line, and returns the exit code.
func (b *bench) report(w *os.File) int {
	if b.traced {
		b.perLayer()
	} else {
		b.endToEnd()
	}
	correct := b.failed == 0
	for _, f := range b.failures {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", f)
	}
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s seed=%d trace=%v ops=%d failed=%d\n", b.name, b.seed, b.traced, b.attempted, b.failed)
	for _, n := range names {
		m := b.metrics[n]
		extra := ""
		if c, ok := b.counts[n]; ok {
			extra = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "# %-32s %14.6g %s%s\n", n, m.Value, m.Unit, extra)
	}
	for _, n := range b.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, b.attempted, b.failed, b.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !correct {
		return 1
	}
	return 0
}

// endToEnd sets the metrics a user of the simulator sees.
func (b *bench) endToEnd() {
	b.set("setup_s", median(b.setup), "s")
	b.counts["setup_s"] = len(b.setup)
	b.set("op_p50_ms", quantile(b.ops, 0.5), "ms")
	b.set("op_p90_ms", quantile(b.ops, 0.9), "ms")
	b.counts["op_p50_ms"], b.counts["op_p90_ms"] = len(b.ops), len(b.ops)
	b.set("sim_us_per_s", median(b.rates), "us/s")
	b.set("warm_ms", median(b.warm), "ms")
	b.counts["warm_ms"] = len(b.warm)
	b.set("alloc_mb_per_op", float64(b.mem.alloc)/float64(b.mem.ops)/1e6, "MB")
	b.set("peak_rss_mb", peakRSSMB()-float64(len(b.probe.mem))/(1<<20), "MB")
	b.set("pass_rate", float64(b.attempted-b.failed)/float64(b.attempted), "ratio")
	b.notes = append(b.notes,
		fmt.Sprintf("host times above are at the reference speed; host probe median %.3f ms (reference %.0f ms)", median(b.probe.raw), probeRefMs),
		fmt.Sprintf("as read: setup_s %.6g s, op_p50_ms %.6g ms, op_p90_ms %.6g ms, warm_ms %.6g ms",
			median(b.rawSetup), quantile(b.rawOps, 0.5), quantile(b.rawOps, 0.9), median(b.rawWarm)))
}

// peakRSSMB reads the process's peak resident set from /proc. It
// includes the host probe's buffer, which endToEnd takes out again.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
