// Command mopac-bench turns `go test -bench` text output into a stable
// JSON document and, given a baseline, fails on regressions. It is the
// regression half of the performance harness: `make bench` pipes the
// benchmark run through it to refresh BENCH_baseline.json, and CI can
// re-run with -against to keep the hot path honest.
//
//	go test -run='^$' -bench=SimulatorThroughput -benchmem . | mopac-bench -o BENCH_baseline.json
//	go test -run='^$' -bench=SimulatorThroughput -benchmem . | mopac-bench -against BENCH_baseline.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"

	"mopac/internal/buildinfo"
)

// Entry is one benchmark's parsed result. Metrics maps unit -> value
// ("ns/op", "allocs/op", plus custom b.ReportMetric units such as
// "simNs/op"). Repeated -count samples of the same benchmark keep the
// median per metric, so one slow sample on a noisy host does not move
// it; Spread records each metric's [min, max] over the samples and
// Samples the samples themselves in run order, which -against tests
// for a significant shift.
type Entry struct {
	Iterations int64                 `json:"iterations"`
	Metrics    map[string]float64    `json:"metrics"`
	Spread     map[string][2]float64 `json:"spread,omitempty"`
	Samples    map[string][]float64  `json:"samples,omitempty"`
}

// median returns the middle sample (the mean of the middle two for an
// even count); it sorts xs.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// Report is the document written to disk. GoMaxProcs/NumCPU record
// the parallelism available to the run, so a trajectory of reports can
// tell scheduling noise on a small host from a real change.
type Report struct {
	Goos       string           `json:"goos,omitempty"`
	Goarch     string           `json:"goarch,omitempty"`
	CPU        string           `json:"cpu,omitempty"`
	GoMaxProcs int              `json:"gomaxprocs,omitempty"`
	NumCPU     int              `json:"num_cpu,omitempty"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// annotate fills the host-parallelism fields.
func (rep *Report) annotate() {
	rep.GoMaxProcs = runtime.GOMAXPROCS(0)
	rep.NumCPU = runtime.NumCPU()
}

// parse consumes `go test -bench` output. Unrecognised lines (test
// chatter, PASS/ok trailers) are echoed to echo so the run stays
// visible when piped through this tool.
func parse(r io.Reader, echo io.Writer) (Report, error) {
	rep := Report{Benchmarks: map[string]Entry{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then value/unit pairs.
		if len(fields) < 4 || (len(fields)-2)%2 != 0 {
			continue
		}
		name := fields[0]
		// Strip the -GOMAXPROCS suffix so names are machine-independent.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		metrics := map[string]float64{}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return rep, fmt.Errorf("bad value %q in line %q", fields[i], line)
			}
			metrics[fields[i+1]] = v
		}
		e, seen := rep.Benchmarks[name]
		if !seen {
			e = Entry{Samples: map[string][]float64{}}
		}
		e.Iterations += iters
		for unit, v := range metrics {
			e.Samples[unit] = append(e.Samples[unit], v)
		}
		rep.Benchmarks[name] = e
	}
	for name, e := range rep.Benchmarks {
		e.Metrics = map[string]float64{}
		for unit, xs := range e.Samples {
			sorted := slices.Clone(xs)
			e.Metrics[unit] = median(sorted)
			if len(xs) > 1 {
				if e.Spread == nil {
					e.Spread = map[string][2]float64{}
				}
				e.Spread[unit] = [2]float64{sorted[0], sorted[len(sorted)-1]}
			} else {
				delete(e.Samples, unit)
			}
		}
		if len(e.Samples) == 0 {
			e.Samples = nil
		}
		rep.Benchmarks[name] = e
	}
	return rep, sc.Err()
}

// compare prints a per-metric delta table of cur versus base medians
// and reports regressions beyond tol (fractional; 0.3 = 30%). Only growth
// is a failure: ns/op, B/op and allocs/op are all better when smaller.
// Where both sides kept at least minSamples samples of a metric, the row
// also shows the two-sided Mann-Whitney p-value of the shift; it informs
// the reader, while the gate stays the median tolerance.
// A non-empty only set restricts the check (and the table) to those
// units — CI gates on the deterministic simNs/op this way without
// tripping on shared-runner wall-clock noise. Benchmarks present on
// one side only are noted but not fatal, so adding a benchmark does
// not break CI.
func compare(base, cur Report, tol float64, only map[string]bool, w io.Writer) (failures int) {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			fmt.Fprintf(w, "note: %s missing from current run\n", name)
			continue
		}
		units := make([]string, 0, len(b.Metrics))
		for unit := range b.Metrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			if len(only) > 0 && !only[unit] {
				continue
			}
			bv := b.Metrics[unit]
			cv, ok := c.Metrics[unit]
			if !ok || bv <= 0 {
				continue
			}
			growth := cv/bv - 1
			sig := ""
			if xs, ys := b.Samples[unit], c.Samples[unit]; len(xs) >= minSamples && len(ys) >= minSamples {
				_, p := mannWhitney(xs, ys)
				sig = fmt.Sprintf("  p=%.3f", p)
			}
			mark := ""
			if growth > tol {
				failures++
				mark = fmt.Sprintf("  << REGRESSION (tolerance %.0f%%)", 100*tol)
			}
			fmt.Fprintf(w, "%-44s %-14s %12.5g -> %12.5g  %+6.1f%%%s%s\n",
				name, unit, bv, cv, 100*growth, sig, mark)
		}
	}
	return failures
}

// minSamples is the per-side sample count below which compare prints no
// p-value: with fewer, the normal approximation is too coarse to read.
const minSamples = 5

// mannWhitney returns the Mann-Whitney U statistic of xs against ys
// (the number of (x, y) pairs with x > y, ties counting half) and its
// two-sided p-value under the normal approximation with the tie
// correction, without continuity correction. When every sample ties,
// nothing separates the sides and p is 1.
func mannWhitney(xs, ys []float64) (u, p float64) {
	type obs struct {
		v float64
		x bool
	}
	all := make([]obs, 0, len(xs)+len(ys))
	for _, v := range xs {
		all = append(all, obs{v, true})
	}
	for _, v := range ys {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	// Rank the pooled samples from 1, giving each tie group its mean
	// rank, and sum the ranks of xs and the tie correction t^3 - t.
	var rankX, ties float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		rank := float64(i+j+1) / 2
		for _, o := range all[i:j] {
			if o.x {
				rankX += rank
			}
		}
		t := float64(j - i)
		ties += t*t*t - t
		i = j
	}
	n1, n2 := float64(len(xs)), float64(len(ys))
	n := n1 + n2
	u = rankX - n1*(n1+1)/2
	variance := n1 * n2 / 12 * ((n + 1) - ties/(n*(n-1)))
	if variance <= 0 {
		return u, 1
	}
	z := (u - n1*n2/2) / math.Sqrt(variance)
	return u, math.Erfc(math.Abs(z) / math.Sqrt2)
}

func main() {
	var (
		out     = flag.String("o", "", "write the JSON report to this file (default stdout)")
		against = flag.String("against", "", "compare to this baseline JSON instead of writing a report")
		tol     = flag.Float64("tolerance", 0.30, "allowed fractional growth per metric before -against fails")
		current = flag.String("current", "", `also write the parsed report here (default: BENCH_current.json next to the -against/-o target; "-" disables)`)
		metrics = flag.String("metrics", "", "comma-separated metric units to gate on with -against (default: all)")
		quiet   = flag.Bool("q", false, "do not echo the benchmark output while parsing")
		version = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String())
		return
	}

	echo := io.Writer(os.Stderr)
	if *quiet {
		echo = io.Discard
	}
	rep, err := parse(os.Stdin, echo)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "mopac-bench: no benchmark lines on stdin")
		os.Exit(1)
	}
	rep.annotate()

	// Every run leaves BENCH_current.json behind (next to the baseline
	// it was checked against, or wherever -current points): CI uploads
	// it as an artifact, and a local `make bench-check` leaves the
	// numbers on disk for comparison without rerunning the suite.
	if *current != "-" {
		path := *current
		if path == "" {
			switch {
			case *against != "":
				path = filepath.Join(filepath.Dir(*against), "BENCH_current.json")
			case *out != "":
				path = filepath.Join(filepath.Dir(*out), "BENCH_current.json")
			default:
				path = "BENCH_current.json"
			}
		}
		if err := writeReport(path, rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *against != "" {
		raw, err := os.ReadFile(*against)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var base Report
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintf(os.Stderr, "mopac-bench: bad baseline %s: %v\n", *against, err)
			os.Exit(1)
		}
		only := map[string]bool{}
		for _, u := range strings.Split(*metrics, ",") {
			if u = strings.TrimSpace(u); u != "" {
				only[u] = true
			}
		}
		if n := compare(base, rep, *tol, only, os.Stdout); n > 0 {
			fmt.Fprintf(os.Stderr, "mopac-bench: %d metric(s) regressed beyond %.0f%%\n", n, 100**tol)
			os.Exit(1)
		}
		fmt.Printf("mopac-bench: %d benchmark(s) within %.0f%% of %s\n",
			len(base.Benchmarks), 100**tol, *against)
		return
	}

	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// writeReport writes the indented JSON report to path.
func writeReport(path string, rep Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
