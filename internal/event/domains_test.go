package event

import (
	"testing"
)

// drainDomains advances ds epoch by epoch until no events remain.
func drainDomains(ds *Domains) int {
	total := 0
	for {
		n, ok := ds.RunEpoch()
		if !ok {
			return total
		}
		total += n
	}
}

// drainSerialEpochs advances a serial engine with the same epoch-aligned
// schedule RunEpoch uses: run everything before nextAt+lookahead, park at
// the boundary, repeat.
func drainSerialEpochs(e *Engine, lookahead int64) int {
	total := 0
	for {
		at, ok := e.NextAt()
		if !ok {
			return total
		}
		total += e.RunUntil(at + lookahead - 1)
	}
}

func TestDomainsBasicsAndAccounting(t *testing.T) {
	ds := NewDomains(3, 15)
	defer ds.Shutdown()
	if ds.N() != 3 || ds.Lookahead() != 15 {
		t.Fatalf("N=%d lookahead=%d", ds.N(), ds.Lookahead())
	}
	var order []int64
	for i, at := range []int64{40, 5, 22} {
		d := ds.Domain(i)
		at := at
		d.At(at, func() { order = append(order, at) })
	}
	if ds.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", ds.Pending())
	}
	if at, ok := ds.NextAt(); !ok || at != 5 {
		t.Fatalf("NextAt = %d,%v, want 5,true", at, ok)
	}
	if n := drainDomains(ds); n != 3 {
		t.Fatalf("drained %d events, want 3", n)
	}
	// Cross-domain events at different times may interleave freely in
	// wall-clock, but all three appends are ordered by the epoch barrier
	// happens-before edges, and epochs run in time order.
	if order[0] != 5 || order[1] != 22 || order[2] != 40 {
		t.Fatalf("fire order %v", order)
	}
	if ds.Pending() != 0 || ds.Fired() != 3 {
		t.Fatalf("post-drain Pending=%d Fired=%d", ds.Pending(), ds.Fired())
	}
	// Clock parks at the last epoch's upper edge.
	if ds.Now() != 40+15-1 {
		t.Fatalf("Now = %d, want %d", ds.Now(), 40+15-1)
	}
	if _, ok := ds.RunEpoch(); ok {
		t.Fatal("RunEpoch on a drained engine reported ok")
	}
}

func TestDomainsSendDelivers(t *testing.T) {
	ds := NewDomains(2, 10)
	defer ds.Shutdown()
	got := int64(-1)
	var gotAt int64
	d0, d1 := ds.Domain(0), ds.Domain(1)
	d1.At(0, func() {}) // give domain 1 a clock reference
	d0.At(3, func() {
		d0.Send(1, 10, func(_ any, arg int64) {
			got, gotAt = arg, d1.Now()
		}, nil, 42)
	})
	drainDomains(ds)
	if got != 42 || gotAt != 13 {
		t.Fatalf("delivered arg=%d at=%d, want 42 at 13", got, gotAt)
	}
}

func TestDomainsSendBelowLookaheadPanics(t *testing.T) {
	ds := NewDomains(2, 15)
	defer func() {
		if recover() == nil {
			t.Fatal("Send below lookahead did not panic")
		}
	}()
	ds.Domain(0).Send(1, 14, func(any, int64) {}, nil, 0)
}

func TestDomainsCancel(t *testing.T) {
	ds := NewDomains(2, 15)
	defer ds.Shutdown()
	fired := false
	d := ds.Domain(0)
	tok := d.At(100, func() { fired = true })
	d.At(5, func() { tok.Cancel() })
	drainDomains(ds)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if ds.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", ds.Pending())
	}
}

func TestDomainsInterrupt(t *testing.T) {
	ds := NewDomains(2, 15)
	defer ds.Shutdown()
	ran := 0
	ds.Domain(0).At(1, func() { ran++ })
	ds.Interrupt()
	if !ds.Interrupted() {
		t.Fatal("Interrupted() false after Interrupt")
	}
	// An interrupted engine still finishes the requested epoch inline so
	// the caller can abandon the run from a consistent barrier.
	if n, ok := ds.RunEpoch(); !ok || n != 1 {
		t.Fatalf("RunEpoch after interrupt = %d,%v", n, ok)
	}
	if ran != 1 {
		t.Fatalf("ran = %d", ran)
	}
}

// The differential workload: a deterministic branching cascade of
// events, replayed once on the serial engine (with Send marking the
// cross-domain hops) and once on the sharded engine. Handler decisions
// derive from a hash of (arg, now) rather than shared RNG state, so
// both elaborations make identical choices, and every cross send goes
// to the next domain in the ring, so each destination has a single
// cross-traffic source (matching the simulator's topology, where only
// the core sends to a controller).
const (
	diffDomains   = 3
	diffLookahead = 15
	diffMaxGen    = 40
)

type diffRec struct {
	at  int64
	arg int64
}

type diffDom struct {
	id  int64
	log []diffRec
	s   Sched
	// next is the ring successor's handler context.
	next *diffDom
	// send issues the cross hop on the underlying engine.
	send func(from *diffDom, delay int64, arg int64)
}

func diffMix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// diffHop is the cascade handler. arg packs generation<<48 | payload.
func diffHop(ctx any, arg int64) {
	d := ctx.(*diffDom)
	now := d.s.Now()
	d.log = append(d.log, diffRec{at: now, arg: arg})
	gen := arg >> 48
	if gen >= diffMaxGen {
		return
	}
	m := diffMix(uint64(arg) ^ uint64(now)*0x9e3779b97f4a7c15 ^ uint64(d.id)<<17)
	child := func(salt uint64) int64 {
		return (gen+1)<<48 | int64(diffMix(m^salt)&0xffffffffffff)
	}
	if m%3 != 0 {
		d.s.AfterFunc(int64(m>>8%29), diffHop, d, child(1))
	}
	if m%5 < 2 {
		d.send(d, diffLookahead+int64(m>>16%17), child(2))
	}
}

func diffSeed(doms []*diffDom) {
	for i, d := range doms {
		for j := 0; j < 5; j++ {
			d.s.AtFunc(int64(i*7+j*13), diffHop, d, int64(diffMix(uint64(i*31+j))&0xffffffffffff))
		}
	}
}

func TestDomainsMatchSerialCascade(t *testing.T) {
	// Serial elaboration: one engine, cross hops via Engine.Send.
	eng := NewEngine()
	serial := make([]*diffDom, diffDomains)
	for i := range serial {
		serial[i] = &diffDom{id: int64(i), s: eng}
	}
	for i, d := range serial {
		d.next = serial[(i+1)%diffDomains]
		d.send = func(from *diffDom, delay int64, arg int64) {
			eng.Send(int(from.id), delay, diffHop, from.next, arg)
		}
	}
	diffSeed(serial)
	serialFired := drainSerialEpochs(eng, diffLookahead)

	// Sharded elaboration: one DomainEngine per diffDom.
	ds := NewDomains(diffDomains, diffLookahead)
	defer ds.Shutdown()
	sharded := make([]*diffDom, diffDomains)
	for i := range sharded {
		sharded[i] = &diffDom{id: int64(i), s: ds.Domain(i)}
	}
	for i, d := range sharded {
		d.next = sharded[(i+1)%diffDomains]
		d.send = func(from *diffDom, delay int64, arg int64) {
			ds.Domain(int(from.id)).Send(int32(from.next.id), delay, diffHop, from.next, arg)
		}
	}
	diffSeed(sharded)
	shardedFired := drainDomains(ds)

	if serialFired != shardedFired {
		t.Fatalf("serial fired %d events, sharded %d", serialFired, shardedFired)
	}
	if serialFired < 100 {
		t.Fatalf("cascade too small to be meaningful: %d events", serialFired)
	}
	for i := range serial {
		sl, pl := serial[i].log, sharded[i].log
		if len(sl) != len(pl) {
			t.Fatalf("domain %d: serial logged %d events, sharded %d", i, len(sl), len(pl))
		}
		for j := range sl {
			if sl[j] != pl[j] {
				t.Fatalf("domain %d event %d: serial %+v, sharded %+v", i, j, sl[j], pl[j])
			}
		}
	}
	if eng.Now() != ds.Now() {
		t.Fatalf("final clocks differ: serial %d, sharded %d", eng.Now(), ds.Now())
	}
}
