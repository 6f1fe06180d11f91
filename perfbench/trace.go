package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"mopac/internal/cpu"
	"mopac/internal/dram"
	"mopac/internal/oracle"
)

// span is one timed call into a layer, recorded from this package.
// Hot per-call boundaries inside it (generator Next, guard and oracle
// calls) are not spans of their own: they are summed into Hot.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"` // -1 for a root span
	Op     int            `json:"op"`     // operation the span belongs to
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"` // since the run started
	End    int64          `json:"end_ns"`
	Hot    map[string]hot `json:"hot,omitempty"`
}

// hot is a count of calls across one boundary and the ns spent inside
// them, net of the clock's own cost.
type hot struct {
	Calls int64 `json:"calls"`
	Ns    int64 `json:"ns"`
}

// since books one call that started at t0.
func (h *hot) since(t0 time.Time) {
	h.Calls++
	h.Ns += int64(time.Since(t0))
}

// tracer keeps the spans of a traced run in memory; write dumps them
// when the run ends.
type tracer struct {
	t0        time.Time
	spans     []span
	clockCost int64 // what an empty timed region reads, in ns
	wrapCost  int64 // wall time a timed boundary adds per call, in ns
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.calibrate()
	return t
}

// calibrate measures the timed boundary on an empty region: clockCost
// is what each hot call adds to its own measurement, wrapCost what it
// adds to the wall time of the span around it.
func (t *tracer) calibrate() {
	const n = 1 << 17
	var h hot
	start := time.Now()
	for i := 0; i < n; i++ {
		h.since(time.Now())
	}
	t.wrapCost = int64(time.Since(start)) / n
	t.clockCost = h.Ns / n
}

// net returns the time spent behind a hot boundary, clock cost taken
// out.
func (t *tracer) net(h hot) int64 {
	return max(h.Ns-h.Calls*t.clockCost, 0)
}

// occupied returns the wall time a hot boundary took out of its span:
// the calls themselves plus the timing around them.
func (t *tracer) occupied(h hot) int64 {
	return t.net(h) + h.Calls*t.wrapCost
}

func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Op: op, Name: name,
		Start: int64(time.Since(t.t0)),
	})
	return len(t.spans) - 1
}

// add records a finished span timed outside the tracer.
func (t *tracer) add(name string, parent, op int, start, end time.Time) {
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) int64 {
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	return s.End - s.Start
}

// addHot attaches a hot-boundary total to span id.
func (t *tracer) addHot(id int, name string, h hot) {
	s := &t.spans[id]
	if s.Hot == nil {
		s.Hot = map[string]hot{}
	}
	prev := s.Hot[name]
	s.Hot[name] = hot{Calls: prev.Calls + h.Calls, Ns: prev.Ns + h.Ns}
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// recSource wraps a core's access source: it times and counts every
// Next call and records the stream for the cpu and mc replays.
type recSource struct {
	src cpu.Source
	hot hot
	rec []cpu.Access
}

func (r *recSource) Next() (cpu.Access, bool) {
	t0 := time.Now()
	a, ok := r.src.Next()
	r.hot.since(t0)
	if ok {
		r.rec = append(r.rec, a)
	}
	return a, ok
}

// timedGuard wraps a bank guard: every call is timed into hot, and,
// when alerts is set, the guard's alert requests are counted on their
// rising edge.
type timedGuard struct {
	g      dram.BankGuard
	hot    *hot
	alerts *int64
	raised bool
}

func (t *timedGuard) Activate(now int64, row int) {
	t0 := time.Now()
	t.g.Activate(now, row)
	t.hot.since(t0)
}

func (t *timedGuard) PrechargeClose(now int64, row int, openNs int64, cu bool) {
	t0 := time.Now()
	t.g.PrechargeClose(now, row, openNs, cu)
	t.hot.since(t0)
}

func (t *timedGuard) Refresh(now int64) []dram.Mitigation {
	t0 := time.Now()
	m := t.g.Refresh(now)
	t.hot.since(t0)
	return m
}

func (t *timedGuard) ABOAction(now int64) []dram.Mitigation {
	t0 := time.Now()
	m := t.g.ABOAction(now)
	t.hot.since(t0)
	return m
}

func (t *timedGuard) AlertRequested() bool {
	t0 := time.Now()
	v := t.g.AlertRequested()
	t.hot.since(t0)
	if v && !t.raised && t.alerts != nil {
		*t.alerts++
	}
	t.raised = v
	return v
}

// timedObserver wraps the security oracle with a timed boundary.
type timedObserver struct {
	o   *oracle.Oracle
	hot *hot
}

func (t timedObserver) ObserveActivate(now int64, bank, row int) {
	t0 := time.Now()
	t.o.ObserveActivate(now, bank, row)
	t.hot.since(t0)
}

func (t timedObserver) ObserveMitigation(now int64, bank, row int) {
	t0 := time.Now()
	t.o.ObserveMitigation(now, bank, row)
	t.hot.since(t0)
}

func (t timedObserver) ObserveRefresh(now int64, bank, lo, hi int) {
	t0 := time.Now()
	t.o.ObserveRefresh(now, bank, lo, hi)
	t.hot.since(t0)
}
