// Package event provides the discrete-event simulation engine that drives
// the whole CMP model: a simulated cycle clock and a scheduling structure
// of pending callbacks.
//
// Determinism is a hard requirement (experiments must be reproducible), so
// events scheduled for the same cycle fire in scheduling order (FIFO within
// a cycle). The engine is built so that contract holds by construction:
//
//   - Near-future events (delta < ringSize cycles — L1/L2 latencies, memory
//     round trips, per-hop router/link delays; almost every schedule) land
//     in a calendar ring of per-cycle FIFO buckets. Appending to a bucket
//     and consuming it front to back is FIFO with no comparisons at all.
//   - Far-future events (congested-link arrival times, coarse timeouts) go
//     to a monomorphic binary min-heap ordered by (when, seq). A far event
//     at cycle T is, necessarily, scheduled while T is outside the ring
//     window; once the window reaches T every later schedule for T lands in
//     the ring. The clock is monotone, so every heap event at T precedes
//     every ring event at T in scheduling order — draining the heap first
//     at each cycle preserves global FIFO without cross-structure
//     sequence comparisons.
//
// Events are stored as plain struct values in reused bucket slices: no
// per-event allocation, and steady-state scheduling allocates nothing (see
// bench_test.go for the enforced ceilings). Every event is one (fn, arg)
// pair: the pre-bound AtFn/AfterFn forms store theirs directly, and At/After
// store their Func as the arg of a package-level trampoline (a func value is
// pointer-shaped, so it is not boxed). Hot call sites that would otherwise
// allocate a closure per schedule use the pre-bound forms with a pointer-
// shaped argument.
//
// Run drains each cycle's ring bucket in one loop once that cycle's heap
// events have fired, instead of searching for the next event per firing.
// FIFO still holds: while cycle T runs, every new event for T has delta 0
// and lands at the tail of T's bucket, so the loop reaches it in
// scheduling order. Step fires a single event.
package event

import "fmt"

// Time is a simulation timestamp in clock cycles.
type Time uint64

// Func is a scheduled callback. It runs with the simulator clock set to its
// scheduled time.
type Func func()

// ArgFunc is a pre-bound scheduled callback: fn(arg) runs at the scheduled
// time. Passing a pointer (or other pointer-shaped value) as arg avoids the
// interface-boxing allocation a capturing closure would pay on every
// schedule.
type ArgFunc func(arg any)

// ringBits sizes the calendar ring. The window must comfortably cover the
// common scheduling deltas (the largest fixed latency in the machine model
// is the ~150-cycle memory round trip); congestion-delayed deliveries
// beyond the window take the heap fallback.
const (
	ringBits = 9
	ringSize = 1 << ringBits // cycles covered by the calendar ring
	ringMask = ringSize - 1
)

// ev is one scheduled event: fn(arg) runs at its cycle.
type ev struct {
	fn  ArgFunc
	arg any
}

// callFunc is the ArgFunc under At/After: arg is the scheduled Func.
func callFunc(arg any) { arg.(Func)() }

// bucket is one calendar cycle's FIFO: appended at the tail, consumed by
// advancing head. The backing slice is retained across reuse (head = len
// resets both to zero), so a warmed-up ring schedules with zero
// allocations.
type bucket struct {
	head int
	evs  []ev
}

func (b *bucket) empty() bool { return b.head >= len(b.evs) }

// farEv is a heap-resident far-future event; seq breaks same-cycle ties in
// scheduling order.
type farEv struct {
	when Time
	seq  uint64
	ev   ev
}

// farHeap is a hand-rolled binary min-heap on (when, seq) — monomorphic, so
// push/pop move struct values with no interface calls or boxing.
type farHeap []farEv

func (h farHeap) less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}

//spcoh:noalloc
func (h *farHeap) push(e farEv) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

//spcoh:noalloc
func (h *farHeap) pop() farEv {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = farEv{} // release callback references
	q = q[:n]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
	return top
}

// Sim is a discrete-event simulator instance. The zero value is not usable;
// call New.
type Sim struct {
	now Time
	// cursor is the lowest cycle whose ring bucket may be non-empty; buckets
	// in [now, cursor) are known-drained. Scanning from cursor amortizes the
	// next-event search to O(1) per simulated cycle.
	cursor  Time
	ring    [ringSize]bucket
	ringCnt int
	far     farHeap
	seq     uint64 // far-heap tie-break; ring FIFO needs no sequence numbers
	// Fired counts executed events; useful for budget checks and debugging.
	Fired uint64
	// obs, when set, observes every fired event (metrics layer). Nil — the
	// default — costs one branch per event.
	obs func(now Time, queueDepth int)
}

// SetObserver attaches (or, with nil, detaches) a per-event observer for
// the run-time metrics layer: it fires for every fired event (in Step and
// Run alike) after the clock advances and before the event's callback
// runs, receiving the current time and the remaining queue depth.
func (s *Sim) SetObserver(fn func(now Time, queueDepth int)) { s.obs = fn }

// bucketCap is each ring bucket's initial capacity: its share of the one
// backing array New carves the ring from.
const bucketCap = 16

// New returns an empty simulator at time 0. Its ring buckets start as
// three-index subslices of one array, bucketCap events each, so a fresh
// engine does not grow 512 slices from nil; a bucket that outgrows its
// share reallocates on its own instead of writing into its neighbour's.
func New() *Sim {
	s := &Sim{}
	evs := make([]ev, ringSize*bucketCap)
	for i := range s.ring {
		s.ring[i].evs = evs[i*bucketCap : i*bucketCap : (i+1)*bucketCap]
	}
	return s
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// At schedules fn to run at absolute time t. Scheduling in the past (t <
// Now) is a programming error and fires the event at the current time
// instead, preserving monotonicity.
//
//spcoh:noalloc
func (s *Sim) At(t Time, fn Func) { s.schedule(t, ev{callFunc, fn}) }

// AtFn schedules fn(arg) at absolute time t. Semantics match At; the
// pre-bound form exists so hot call sites need not allocate a closure per
// schedule (pass a pointer as arg to stay allocation-free end to end).
//
//spcoh:noalloc
func (s *Sim) AtFn(t Time, fn ArgFunc, arg any) { s.schedule(t, ev{fn, arg}) }

// After schedules fn to run d cycles from now.
//
//spcoh:noalloc
func (s *Sim) After(d Time, fn Func) { s.schedule(s.now+d, ev{callFunc, fn}) }

// AfterFn schedules fn(arg) to run d cycles from now.
//
//spcoh:noalloc
func (s *Sim) AfterFn(d Time, fn ArgFunc, arg any) { s.schedule(s.now+d, ev{fn, arg}) }

//spcoh:noalloc
func (s *Sim) schedule(t Time, e ev) {
	if t < s.now {
		t = s.now
	}
	if t-s.now < ringSize {
		// The ring admits by delta from the monotone clock, so every ring
		// event lies in [now, now+ringSize) and bucket indexing by t is
		// collision-free. (Admitting by cursor instead would let the window
		// retreat and break the heap-before-ring FIFO argument.)
		b := &s.ring[uint64(t)&ringMask]
		b.evs = append(b.evs, e)
		s.ringCnt++
		if t < s.cursor {
			s.cursor = t
		}
		return
	}
	s.seq++
	s.far.push(farEv{when: t, seq: s.seq, ev: e})
}

// Pending returns the number of scheduled-but-unfired events.
func (s *Sim) Pending() int { return s.ringCnt + len(s.far) }

// scanRing returns the cycle of the earliest ring event, advancing cursor
// past drained buckets. It must only be called when ringCnt > 0. Every
// ring event lies in [now, now+ringSize), so the scan stops after one
// revolution: finding no event there means ringCnt disagrees with the
// buckets, and the engine panics rather than spinning forever.
//
//spcoh:noalloc
func (s *Sim) scanRing() Time {
	if s.cursor < s.now {
		s.cursor = s.now
	}
	for s.ring[uint64(s.cursor)&ringMask].empty() {
		s.cursor++
		if s.cursor-s.now >= ringSize {
			panic(ringCorrupt{s})
		}
	}
	return s.cursor
}

// ringCorrupt is the panic value of a ring whose event count disagrees
// with its buckets. It holds only the engine pointer, so raising it
// allocates nothing and scanRing stays small enough to inline; the
// message is formatted only when the panic is printed.
type ringCorrupt struct{ s *Sim }

func (e ringCorrupt) Error() string {
	return fmt.Sprintf("event: ring holds no event in one revolution but ringCnt = %d (cursor %d, now %d)",
		e.s.ringCnt, e.s.cursor, e.s.now)
}

// pop removes and returns the earliest event. At equal cycles the heap
// drains before the ring: heap events for a cycle are always scheduled
// earlier than ring events for it (see the package comment), so this is
// exactly FIFO order.
//
//spcoh:noalloc
func (s *Sim) pop() (ev, Time, bool) {
	var ringT Time
	hasRing := s.ringCnt > 0
	if hasRing {
		ringT = s.scanRing()
	}
	if len(s.far) > 0 && (!hasRing || s.far[0].when <= ringT) {
		it := s.far.pop()
		return it.ev, it.when, true
	}
	if !hasRing {
		return ev{}, 0, false
	}
	b := &s.ring[uint64(ringT)&ringMask]
	e := b.evs[b.head]
	b.evs[b.head] = ev{} // release callback references
	b.head++
	if b.empty() {
		// Reset for reuse, keeping the backing slice as the bucket's
		// freelist.
		b.head = 0
		b.evs = b.evs[:0]
	}
	s.ringCnt--
	return e, ringT, true
}

// Step fires the next event, advancing the clock to its timestamp. It
// reports false if no events remain.
//
//spcoh:noalloc
func (s *Sim) Step() bool {
	e, when, ok := s.pop()
	if !ok {
		return false
	}
	s.now = when
	s.fire(e)
	return true
}

// fire runs one event that has just left the queue at the current clock.
//
//spcoh:noalloc
func (s *Sim) fire(e ev) {
	s.Fired++
	if s.obs != nil {
		s.obs(s.now, s.Pending())
	}
	e.fn(e.arg)
}

// Run fires events until the queue drains. It fires exactly the events
// a Step loop would, in the same order and with the same observer calls,
// but once a cycle's heap events have fired it drains the rest of that
// cycle's ring bucket in one loop (see the package comment for why that
// is still FIFO).
//
//spcoh:noalloc
func (s *Sim) Run() {
	for s.Step() {
		if len(s.far) > 0 && s.far[0].when == s.now {
			continue // the heap's events for this cycle go first
		}
		b := &s.ring[uint64(s.now)&ringMask]
		for b.head < len(b.evs) {
			e := b.evs[b.head]
			b.evs[b.head] = ev{} // release callback references
			b.head++
			s.ringCnt--
			s.fire(e)
		}
		b.head, b.evs = 0, b.evs[:0]
	}
}
