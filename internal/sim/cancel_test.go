package sim

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestRunContextCancelMidFlight aborts a long run and checks it returns
// promptly with the sentinel error and leaks no goroutines.
func TestRunContextCancelMidFlight(t *testing.T) {
	before := runtime.NumGoroutine()

	sys, err := NewSystem(Config{
		Design: DesignMoPACD, TRH: 500, Workload: "lbm",
		InstrPerCore: 200_000_000, Seed: 1, // far longer than the test runs
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := sys.RunContext(ctx, 0)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the run get mid-flight
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("RunContext error = %v, want ErrCanceled", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunContext error = %v, want wrapped context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled run did not return within 5 s")
	}

	// The run goroutine must be gone; allow the scheduler a moment.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after cancel", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunContextCapThenResume stops a run at a time cap and resumes it:
// the second call must finish exactly where an uninterrupted run does,
// so a cap never shifts the epoch sequence the stop rule follows.
func TestRunContextCapThenResume(t *testing.T) {
	cfg := Config{
		Design:       DesignBaseline,
		Workload:     "bwaves",
		Cores:        2,
		InstrPerCore: 30_000,
		Seed:         7,
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunContext(context.Background(), 1000); err == nil {
		t.Fatal("1 µs cap should not complete 30k instructions")
	}
	res, err := sys.RunContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wholeRes, err := whole.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimeNs != wholeRes.TimeNs {
		t.Fatalf("resumed run finished at %d ns, uninterrupted run at %d ns", res.TimeNs, wholeRes.TimeNs)
	}
}

// TestRunContextAlreadyCancelled checks a dead context never starts the
// engine.
func TestRunContextAlreadyCancelled(t *testing.T) {
	sys, err := NewSystem(quickCfg(DesignBaseline, "lbm"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.RunContext(ctx, 0); !errors.Is(err, ErrCanceled) {
		t.Fatalf("error = %v, want ErrCanceled", err)
	}
	if sys.Engine().Fired() != 0 {
		t.Fatalf("engine fired %d events under a dead context", sys.Engine().Fired())
	}
}

// TestRunContextBackgroundMatchesRun checks RunContext with a live
// context is just Run.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	cfg := quickCfg(DesignBaseline, "lbm")
	sysA, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resA, err := sysA.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	sysB, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := sysB.RunContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if resA.TimeNs != resB.TimeNs || resA.SumIPC != resB.SumIPC {
		t.Fatalf("RunContext diverged from Run: %d/%f vs %d/%f",
			resA.TimeNs, resA.SumIPC, resB.TimeNs, resB.SumIPC)
	}
}
