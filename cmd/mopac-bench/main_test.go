package main

import (
	"io"
	"math"
	"slices"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: mopac
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimulatorThroughput-8 	       5	  76089221 ns/op	     71364 simNs/op	 2369865 B/op	    4028 allocs/op
BenchmarkSimulatorThroughput-8 	       5	  75911227 ns/op	     71364 simNs/op	 2369865 B/op	    4030 allocs/op
BenchmarkEngineScheduleAndFireFunc 	  200000	        14.58 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	mopac	1.385s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.CPU == "" {
		t.Fatalf("metadata not captured: %+v", rep)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	sim, ok := rep.Benchmarks["BenchmarkSimulatorThroughput"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", rep.Benchmarks)
	}
	if sim.Iterations != 10 {
		t.Fatalf("iterations = %d, want summed 10", sim.Iterations)
	}
	if got := sim.Metrics["simNs/op"]; got != 71364 {
		t.Fatalf("simNs/op = %v", got)
	}
	if got := sim.Metrics["allocs/op"]; got != 4029 {
		t.Fatalf("allocs/op = %v, want the two-sample median 4029", got)
	}
	if got := sim.Spread["ns/op"]; got != [2]float64{75911227, 76089221} {
		t.Fatalf("ns/op spread = %v", got)
	}
	eng := rep.Benchmarks["BenchmarkEngineScheduleAndFireFunc"]
	if got := eng.Metrics["ns/op"]; got != 14.58 {
		t.Fatalf("ns/op = %v", got)
	}
}

func TestCompare(t *testing.T) {
	base, err := parse(strings.NewReader(sample), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := parse(strings.NewReader(strings.ReplaceAll(
		sample, "76089221 ns/op", "176089221 ns/op")), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if n := compare(base, cur, 0.30, nil, io.Discard); n != 1 {
		t.Fatalf("failures = %d, want 1 (ns/op more than doubled)", n)
	}
	if n := compare(base, base, 0.30, nil, io.Discard); n != 0 {
		t.Fatalf("self-compare failures = %d", n)
	}
	// A metric filter confines the gate: the regressed ns/op is ignored
	// when only simNs/op is checked.
	if n := compare(base, cur, 0.30, map[string]bool{"simNs/op": true}, io.Discard); n != 0 {
		t.Fatalf("filtered compare failures = %d, want 0", n)
	}
	// A benchmark missing from the current run is a note, not a failure.
	partial, err := parse(strings.NewReader(sample), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	delete(partial.Benchmarks, "BenchmarkEngineScheduleAndFireFunc")
	if n := compare(base, partial, 0.30, nil, io.Discard); n != 0 {
		t.Fatalf("missing benchmark treated as failure: %d", n)
	}
}

// TestMedianIgnoresOutlier: one sample from a stalled host must not
// move the recorded value or fail the gate; the spread still shows it.
func TestMedianIgnoresOutlier(t *testing.T) {
	run := func(ns ...string) Report {
		var b strings.Builder
		for _, v := range ns {
			b.WriteString("BenchmarkSimulatorThroughput-2 \t 5 \t " + v + " ns/op\t 71364 simNs/op\n")
		}
		rep, err := parse(strings.NewReader(b.String()), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := run("100", "102", "98")
	cur := run("101", "250", "99")
	e := cur.Benchmarks["BenchmarkSimulatorThroughput"]
	if got := e.Metrics["ns/op"]; got != 101 {
		t.Fatalf("ns/op = %v, want the median 101", got)
	}
	if got := e.Spread["ns/op"]; got != [2]float64{99, 250} {
		t.Fatalf("ns/op spread = %v, want [99 250]", got)
	}
	if n := compare(base, cur, 0.10, nil, io.Discard); n != 0 {
		t.Fatalf("an outlier sample failed the gate (%d failures)", n)
	}
	if _, ok := e.Spread["simNs/op"]; !ok {
		t.Fatal("a constant metric still records its spread")
	}
}

func TestAnnotate(t *testing.T) {
	rep := Report{Benchmarks: map[string]Entry{
		"BenchmarkSimulatorThroughput": {Metrics: map[string]float64{"ns/op": 60e6}},
	}}
	rep.annotate()
	if rep.GoMaxProcs < 1 || rep.NumCPU < 1 {
		t.Fatalf("host parallelism not recorded: %+v", rep)
	}
}

// TestMannWhitneyHandComputed checks U and p against a hand computation
// with a three-way tie. Pooled ranks of xs = {1, 2, 3, 3, 5} and
// ys = {3, 4, 6, 7, 8}: the 3s share rank 4, so R_x = 1+2+4+4+7 = 18
// and U = 18 - 5*6/2 = 3. With mu = 12.5 and the tie term 3^3-3 = 24,
// var = 25/12 * (11 - 24/90) = 22.3611, z = -9.5/4.72875 = -2.00899
// and p = erfc(|z|/sqrt 2) = 0.044539.
func TestMannWhitneyHandComputed(t *testing.T) {
	xs := []float64{3, 1, 5, 2, 3}
	ys := []float64{7, 3, 8, 4, 6}
	u, p := mannWhitney(xs, ys)
	if u != 3 {
		t.Fatalf("U = %v, want 3", u)
	}
	if math.Abs(p-0.0445386) > 1e-6 {
		t.Fatalf("p = %v, want 0.0445386", p)
	}
	// Two-sided: swapping the sides mirrors U and keeps p.
	u2, p2 := mannWhitney(ys, xs)
	if u2 != 22 || math.Abs(p2-p) > 1e-12 {
		t.Fatalf("swapped: U = %v p = %v, want 22 and %v", u2, p2, p)
	}
	// Every sample tied (a deterministic metric): nothing separates the
	// sides.
	if _, p := mannWhitney([]float64{7, 7, 7, 7, 7}, []float64{7, 7, 7, 7, 7}); p != 1 {
		t.Fatalf("all-tied p = %v, want 1", p)
	}
}

// TestCompareSignificance: raw samples survive parsing in run order,
// and compare prints a p-value only when both sides have minSamples.
func TestCompareSignificance(t *testing.T) {
	run := func(ns ...string) Report {
		var b strings.Builder
		for _, v := range ns {
			b.WriteString("BenchmarkSimulatorThroughput-2 \t 5 \t " + v + " ns/op\t 71364 simNs/op\n")
		}
		rep, err := parse(strings.NewReader(b.String()), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := run("100", "104", "98", "101", "99")
	cur := run("90", "91", "89", "93", "92")
	got := cur.Benchmarks["BenchmarkSimulatorThroughput"].Samples["ns/op"]
	if !slices.Equal(got, []float64{90, 91, 89, 93, 92}) {
		t.Fatalf("samples = %v, want run order", got)
	}
	var out strings.Builder
	if n := compare(base, cur, 0.10, nil, &out); n != 0 {
		t.Fatalf("an improvement failed the gate (%d failures)", n)
	}
	// Complete separation of 5 vs 5: U = 25, z = 12.5/sqrt(275/12).
	if !strings.Contains(out.String(), "p=0.009") {
		t.Fatalf("no p-value for 5 vs 5 samples:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "simNs/op") || strings.Count(out.String(), "p=1.000") != 1 {
		t.Fatalf("a constant metric should read p=1.000:\n%s", out.String())
	}
	out.Reset()
	compare(run("100", "104", "98"), cur, 0.10, nil, &out)
	if strings.Contains(out.String(), "p=") {
		t.Fatalf("p-value printed with 3 baseline samples:\n%s", out.String())
	}
	one := run("100")
	if s := one.Benchmarks["BenchmarkSimulatorThroughput"].Samples; s != nil {
		t.Fatalf("a single run keeps samples %v", s)
	}
}
