// Package netsim is a discrete-event network simulator, the substitute for
// the OPNET testbed in the Verus paper's trace-driven evaluation (§6.2) and
// for the tc-controlled dumbbell of the micro-evaluation (§7).
//
// The building blocks mirror the paper's topology: congestion-controlled
// Sources feed a shared bottleneck (a Queue drained by a Link whose service
// process is either a fixed rate or a recorded cellular trace); a Sink
// acknowledges every packet over a delayed return path; and per-flow metrics
// capture throughput and per-packet delay.
package netsim

import "time"

// event is one pending heap entry: at its time it fires as r.Receive(p).
// Every kind of work shares this one shape — a packet delivery (r a
// component, p the packet), a plain closure (r a Func, p nil), a registered
// one-shot callback (r a *Callback) or a recurring tick (r a *Timer, which
// re-pushes itself when it fires). What a checkpoint can serialize follows
// from r's type (see snapshot.go); the hot path never asks.
type event struct {
	at time.Duration
	// seq is the same-time tiebreaker: FIFO among same-time events. In a
	// standalone Sim it is a plain insertion counter. In a Mesh cell it is a
	// composite order key — the owning cell's id in the high bits, the
	// cell-local insertion counter in the low bits (see orderKey) — assigned
	// at creation time by whichever cell created the event. Creation-time
	// assignment is what makes the key independent of the executor: the
	// merged single-heap run and the sharded run order every event by the
	// exact same (at, seq) pair.
	seq uint64
	r   Receiver
	p   *Packet
}

// Func adapts a plain closure to a Receiver, ignoring the packet. A Func is
// unregistered by type: the event fires normally, but a checkpoint with one
// pending fails (use RegisterFunc for events that must survive one).
// Converting a func value to Receiver does not allocate.
type Func func()

// Receive implements Receiver.
func (f Func) Receive(*Packet) { f() }

// cellSeqBits is the width of the cell-local counter inside a composite
// order key: 2^44 ≈ 1.7e13 events per cell before overflow, with the
// remaining 20 high bits holding the cell id (up to ~1M cells). A standalone
// Sim has id 0, so its keys are the bare counter — ordering is bit-for-bit
// what it was before meshes existed.
const cellSeqBits = 44

// cellSeqMask masks the cell-local counter out of a composite order key.
const cellSeqMask = (uint64(1) << cellSeqBits) - 1

// orderKey composes a cell id and a cell-local insertion counter into one
// uint64 that compares like the lexicographic pair (cell, seq). Panics on
// overflow of either field rather than silently corrupting event order.
func orderKey(cell uint32, seq uint64) uint64 {
	if seq > cellSeqMask {
		panic("netsim: cell event counter overflow")
	}
	if uint64(cell) > uint64(1)<<(64-cellSeqBits)-1 {
		panic("netsim: cell id overflows order key")
	}
	return uint64(cell)<<cellSeqBits | seq
}

// orderKeyParts splits a composite order key back into (cell, seq) — the
// inverse of orderKey, used by introspection and the fuzz harness.
func orderKeyParts(key uint64) (cell uint32, seq uint64) {
	return uint32(key >> cellSeqBits), key & cellSeqMask
}

// Timer is one recurring registration: a Receiver that runs fn and then
// re-pushes itself interval later with a fresh order key, so a tick reuses
// one object for the registration's lifetime. id is its registry id (zero
// for plain Every timers, which cannot be checkpointed).
type Timer struct {
	sim      *Sim
	interval time.Duration
	fn       func()
	stopped  bool
	id       int64
}

// Receive implements Receiver: fire, then reschedule. The fresh key is
// claimed after fn runs, so events fn schedules at the next tick's instant
// precede the tick (same-time FIFO).
func (t *Timer) Receive(*Packet) {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.sim.After(t.interval, t, nil)
	}
}

// Stop ends the registration: a pending tick drains without firing.
func (t *Timer) Stop() { t.stopped = true }

// eventLess orders events by (time, insertion sequence) — a strict total
// order, so the pop sequence is identical for any heap arity or layout.
func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Sim is the event loop. The zero value is not usable; construct with NewSim.
// All simulation entities must be driven from a single goroutine.
//
// The pending set is a 4-ary heap in a flat []event: no container/heap
// interface boxing (which allocated on every push), shallower sift paths
// than a binary heap, and slice storage whose capacity is reused across
// push/pop cycles — steady-state scheduling allocates nothing.
type Sim struct {
	now    time.Duration
	events []event
	seq    uint64
	// id and mesh are set when this Sim is one cell of a Mesh (see mesh.go).
	// A standalone Sim has id 0 and a nil mesh; every code path below then
	// behaves exactly as it did before meshes existed.
	id   uint32
	mesh *Mesh
	// outbox buffers cross-cell messages originated by this cell while the
	// mesh is executing a sharded window; the coordinator drains it at the
	// next barrier. Only the goroutine executing this cell appends to it.
	outbox []crossMsg
	// pool is this Sim's packet free list (see pool.go). Owned per cell, so
	// sharded mesh execution recycles packets with no synchronization.
	pool packetPool
	// reg maps stable ids to the long-lived callbacks, receivers, and timers
	// a checkpoint needs to serialize heap entries (see snapshot.go). All
	// maps are touched at construction and restore time only — never on the
	// event hot path.
	reg simRegistry
}

// NewSim returns an empty simulation at time zero.
func NewSim() *Sim { return &Sim{} }

// Now returns the current simulated time.
func (s *Sim) Now() time.Duration { return s.now }

// push inserts e, restoring the heap invariant by sifting up.
func (s *Sim) push(e event) {
	s.events = append(s.events, e)
	i := len(s.events) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(s.events[i], s.events[p]) {
			break
		}
		s.events[i], s.events[p] = s.events[p], s.events[i]
		i = p
	}
}

// pop removes and returns the earliest event, sifting the displaced tail
// element down. The vacated slot is zeroed so the slice does not pin the
// handler (and whatever it closes over) after the event has fired.
func (s *Sim) pop() event {
	ev := s.events[0]
	last := len(s.events) - 1
	s.events[0] = s.events[last]
	s.events[last] = event{}
	s.events = s.events[:last]
	n := last
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if eventLess(s.events[c], s.events[min]) {
				min = c
			}
		}
		if !eventLess(s.events[min], s.events[i]) {
			break
		}
		s.events[i], s.events[min] = s.events[min], s.events[i]
		i = min
	}
	return ev
}

// nextKey claims the next order key from this cell's insertion counter.
func (s *Sim) nextKey() uint64 {
	s.seq++
	return orderKey(s.id, s.seq)
}

// pushKeyed inserts an externally-created event (a cross-cell arrival) whose
// order key was already claimed by the sending cell. The key travels with
// the message, so the insertion moment — immediate in the merged reference
// executor, barrier-deferred in the sharded one — never affects ordering.
func (s *Sim) pushKeyed(at time.Duration, key uint64, r Receiver, p *Packet) {
	s.push(event{at: at, seq: key, r: r, p: p})
}

// Schedule delivers p to r at the given absolute simulated time; r is a
// component for a packet delivery, or a Func, *Callback or *Timer handler
// with a nil p. Times in the past are clamped to now (the event runs next).
func (s *Sim) Schedule(at time.Duration, r Receiver, p *Packet) {
	if at < s.now {
		at = s.now
	}
	s.push(event{at: at, seq: s.nextKey(), r: r, p: p})
}

// After delivers p to r d from now.
func (s *Sim) After(d time.Duration, r Receiver, p *Packet) { s.Schedule(s.now+d, r, p) }

// Every runs fn every interval, starting one interval from now, until the
// returned timer is stopped. Steady-state ticking allocates nothing.
func (s *Sim) Every(interval time.Duration, fn func()) *Timer {
	t := s.newTimer(0, interval, fn)
	s.After(interval, t, nil)
	return t
}

// newTimer creates a timer without arming it, registered under id when id
// is non-zero. A component arms its registered timer with After(interval,
// t, nil); a restore leaves it unarmed, since the pending tick, if any,
// arrives with the heap.
func (s *Sim) newTimer(id int64, interval time.Duration, fn func()) *Timer {
	if interval <= 0 {
		panic("netsim: Every interval must be positive")
	}
	t := &Timer{sim: s, interval: interval, fn: fn, id: id}
	s.reg.registerTimer(t)
	return t
}

// Run processes events in time order until the queue empties or the next
// event is beyond `until`, then advances the clock to `until`.
func (s *Sim) Run(until time.Duration) {
	for len(s.events) > 0 && s.events[0].at <= until {
		s.step()
	}
	if until > s.now {
		s.now = until
	}
}

// step pops and executes the earliest event, advancing the clock to it.
func (s *Sim) step() {
	e := s.pop()
	s.now = e.at
	e.r.Receive(e.p)
}

// headBefore reports whether the earliest pending event falls strictly
// before horizon (or at/below it when inclusive), i.e. whether this cell has
// work inside the current conservative window.
func (s *Sim) headBefore(horizon time.Duration, inclusive bool) bool {
	if len(s.events) == 0 {
		return false
	}
	if inclusive {
		return s.events[0].at <= horizon
	}
	return s.events[0].at < horizon
}

// headKey returns the (at, seq) key of the earliest pending event; callers
// must have checked the heap is non-empty.
func (s *Sim) headKey() (time.Duration, uint64) {
	return s.events[0].at, s.events[0].seq
}

// runWindow executes every pending event strictly before horizon (or at/
// below it when inclusive) and then advances the clock to the horizon — the
// null-message advance: even an idle cell's clock reaches the window edge,
// which is what tells its peers they may proceed past it.
func (s *Sim) runWindow(horizon time.Duration, inclusive bool) {
	for s.headBefore(horizon, inclusive) {
		s.step()
	}
	if horizon > s.now {
		s.now = horizon
	}
}

// Pending returns the number of queued events (useful in tests).
func (s *Sim) Pending() int { return len(s.events) }
