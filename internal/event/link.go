package event

// Link is a FIFO of modelled fixed-latency hops from one source: the
// simulation layer's core→controller arrivals and controller→core
// completions. A hop fires fn(ctx, arg) Latency nanoseconds after it
// departs. Hops do not enter the engine's heap: they wait in the link's
// ring, and the engine merges the link's head with its other queues.
//
// Ordering. A hop takes its sequence number when it is sent, so it
// sorts as an event at departure+Latency scheduled at the send: at one
// instant it fires in send order with every other event and hop.
// Departures on a link never go backwards in time (a push that would
// panics), landing = departure + one fixed latency, and seqs only
// grow, so the ring is sorted by the engine's (at, seq) order and its
// head is always its minimum.
//
// A hop can depart now (Send) or at a later instant (SendAt): a
// deferred hop departs without an event of its own, so a controller
// can hand a completion to the return link the moment it schedules the
// data transfer. Hops cannot be cancelled.
type Link struct {
	e    *Engine
	lat  int64
	ring []linkEntry // power-of-two capacity, grown only when full
	head int         // ring index of the oldest hop
	n    int         // hops queued
	last int64       // departure of the newest hop
}

// linkEntry is one queued hop: its landing instant, its send-time
// sequence key and its pre-bound handler.
type linkEntry struct {
	at  int64
	key uint64
	fn  Func
	ctx any
	arg int64
}

// NewLink returns a hop FIFO with a fixed latency.
func (e *Engine) NewLink(latency int64) *Link {
	if latency < 0 {
		panic("event: negative hop latency")
	}
	l := &Link{e: e, lat: latency}
	e.links = append(e.links, l)
	return l
}

// Latency returns the link's fixed hop latency.
func (l *Link) Latency() int64 { return l.lat }

// Send sends a hop that departs now and fires fn(ctx, arg) at
// Now()+Latency().
func (l *Link) Send(fn Func, ctx any, arg int64) { l.SendAt(l.e.now, fn, ctx, arg) }

// SendAt sends a hop that departs at depart and fires fn(ctx, arg) at
// depart+Latency(). depart must not precede the clock or the link's
// previous departure: either would reorder the FIFO.
func (l *Link) SendAt(depart int64, fn Func, ctx any, arg int64) {
	if depart < l.e.now || depart < l.last {
		panic("event: link hop departs out of order")
	}
	if fn == nil {
		panic("event: nil handler")
	}
	if l.n == len(l.ring) {
		l.grow()
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = linkEntry{at: depart + l.lat, key: l.e.nextKey(), fn: fn, ctx: ctx, arg: arg}
	l.n++
	l.last = depart
	l.e.live++
}

// grow doubles the ring, unwrapping it so the oldest hop sits at 0.
// Capacity tracks the most hops ever in flight at once, not the number
// ever sent.
func (l *Link) grow() {
	ring := make([]linkEntry, max(16, 2*len(l.ring)))
	for i := 0; i < l.n; i++ {
		ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring, l.head = ring, 0
}

// pop removes the head hop (the engine is about to fire it) and returns
// its handler.
func (l *Link) pop() (Func, any, int64) {
	h := &l.ring[l.head]
	fn, ctx, arg := h.fn, h.ctx, h.arg
	h.fn, h.ctx = nil, nil
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return fn, ctx, arg
}
