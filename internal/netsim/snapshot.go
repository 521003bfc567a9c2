package netsim

import (
	"errors"
	"fmt"
	"reflect"

	"repro/internal/snap"
	"repro/internal/stats"
)

// Checkpoint/restore for the simulation core (DESIGN.md §15).
//
// The event heap holds closures and interface values, which no codec can
// serialize. The snapshot subsystem therefore uses a rebuild-and-patch
// scheme: a restore first re-runs the deterministic topology construction
// (same config, same seed), which re-creates every component, closure, and
// receiver and re-registers them under the same stable ids — construction
// order is deterministic, so the id sequence is too. The restore then clears
// the rebuilt heaps and pushes the snapshot's events with their exact saved
// (time, order key) pairs, resolving each callback/receiver/timer id through
// the registry, and finally overwrites each component's mutable fields.
// Heap array layout is irrelevant: (time, key) is a strict total order, so
// any valid heap pops the identical event sequence.
//
// Whether an event can be checkpointed is a property of its handler's type:
// a *Callback or registered *Timer carries its registry id, a packet
// delivery's receiver is looked up by identity, and a Func (or a plain
// Every timer) carries none, so a snapshot with one pending fails.
//
// Id discipline: registrations draw ids from a per-Sim counter (nextID),
// which both the original run and the rebuild advance identically, so ids
// are drawn during topology setup only — a mid-run draw order would depend
// on event interleaving across components. A component's timers are created
// at construction, unarmed, under ids derived from the component's own id
// and a fixed slot (derivedID); they draw nothing, so adding one never
// shifts another component's ids.

// Snapshotter is the component checkpoint interface: Snapshot appends the
// component's mutable state, Restore consumes the same fields in the same
// order, recording failures on the decoder.
type Snapshotter = snap.Snapshotter

// simRegistry maps stable ids to the long-lived handlers heap entries
// reference, for restore to resolve. Receivers, callbacks, and timers live
// in separate namespaces, so ids may repeat across kinds but never within
// one.
type simRegistry struct {
	nextID  int64
	funcs   map[int64]*Callback
	recvs   map[int64]Receiver
	recvIDs map[Receiver]int64
	timers  map[int64]*Timer
}

// Callback is a registered one-shot handler: scheduled with Schedule or
// After (nil packet), it runs fn, and a checkpoint serializes the pending
// event by the id it carries.
type Callback struct {
	fn func()
	id int64
}

// Receive implements Receiver.
func (c *Callback) Receive(*Packet) { c.fn() }

// Named RestoreHeap rejections of heap sections a snapshot encoder never
// writes; a crafted but CRC-valid file must fail here, not at the next Run.
var (
	// ErrPacketAbsent: a packet-delivery event whose packet is missing.
	ErrPacketAbsent = errors.New("netsim: heap packet delivery has no packet")
	// ErrEventInPast: an event due before the restored clock.
	ErrEventInPast = errors.New("netsim: heap event due before the restored clock")
)

// derivedID composes an owner's construction-time id with a fixed slot into
// a mid-run-safe registry id. Derived ids are negative; counter-drawn ids
// are positive — the two spaces cannot collide.
func derivedID(owner, slot int64) int64 {
	if slot <= 0 || slot > 15 {
		panic("netsim: derived id slot out of range")
	}
	return -(owner<<4 | slot)
}

func (r *simRegistry) registerTimer(t *Timer) {
	if t.id == 0 {
		return // plain Every: unregistered, not checkpointable
	}
	if r.timers == nil {
		r.timers = make(map[int64]*Timer)
	}
	if _, dup := r.timers[t.id]; dup {
		panic(fmt.Sprintf("netsim: duplicate timer registration id %d", t.id))
	}
	r.timers[t.id] = t
}

func (r *simRegistry) registerRecv(id int64, rcv Receiver) {
	if !reflect.TypeOf(rcv).Comparable() {
		panic(fmt.Sprintf("netsim: receiver %T is not comparable and cannot be registered; use a pointer receiver, not a func adapter", rcv))
	}
	if r.recvs == nil {
		r.recvs = make(map[int64]Receiver)
		r.recvIDs = make(map[Receiver]int64)
	}
	if _, dup := r.recvs[id]; dup {
		panic(fmt.Sprintf("netsim: duplicate receiver registration id %d", id))
	}
	r.recvs[id] = rcv
	r.recvIDs[rcv] = id
}

// nextID draws the next construction-order id. Draw ids only during
// topology setup — never from event callbacks (see the id discipline above).
func (s *Sim) nextID() int64 {
	s.reg.nextID++
	return s.reg.nextID
}

// RegisterReceiver registers r under a construction-order id and returns the
// id; registering the same receiver again returns the existing id without
// drawing a new one. Receivers must be comparable (pointer types) —
// ReceiverFunc adapters are rejected. Registration is what lets a pending
// packet delivery to r survive a checkpoint.
func (s *Sim) RegisterReceiver(r Receiver) int64 {
	if reflect.TypeOf(r).Comparable() {
		if id, ok := s.reg.recvIDs[r]; ok {
			return id
		}
	}
	id := s.nextID()
	s.reg.registerRecv(id, r)
	return id
}

// RegisterFunc registers a long-lived callback under a fresh construction-
// order id and returns its handle; schedule the handle (with a nil packet)
// as often as needed. Call it at construction time — each call draws an id.
func (s *Sim) RegisterFunc(fn func()) *Callback {
	c := &Callback{fn: fn, id: s.nextID()}
	if s.reg.funcs == nil {
		s.reg.funcs = make(map[int64]*Callback)
	}
	s.reg.funcs[c.id] = c
	return c
}

// SnapshotState writes this Sim's core mutable state: virtual clock, order-
// key counter, registry id counter, and packet-pool accounting. The event
// heap is snapshotted separately (SnapshotHeap) because restore must happen
// in two phases: core state and components first, then the heap, which
// resolves ids against the registry.
func (s *Sim) SnapshotState(e *snap.Encoder) {
	e.Tag("simcore")
	e.Dur(s.now)
	e.U64(s.seq)
	e.I64(s.reg.nextID)
	st := s.pool.stats
	e.U64(st.Allocated)
	e.U64(st.Gets)
	e.U64(st.Frees)
	// Free-list depth: restore rematerializes this many recycled packets so
	// the pool's miss/reuse trajectory — and therefore Allocated — continues
	// exactly as the uninterrupted run's would.
	e.U32(uint32(len(s.pool.free)))
}

// RestoreState consumes SnapshotState's fields, clears the rebuilt event
// heap (its entries were all re-claimed by the deterministic rebuild and
// will be replaced verbatim by RestoreHeap), and re-arms the pool
// accounting: Gets/Frees are restored wholesale, so once RestoreHeap and the
// component restores have rematerialized every live packet through the
// non-counting path, Live() is conserved exactly.
func (s *Sim) RestoreState(d *snap.Decoder) {
	d.Expect("simcore")
	now := d.Dur()
	seq := d.U64()
	nextID := d.I64()
	alloc := d.U64()
	gets := d.U64()
	frees := d.U64()
	freeDepth := int(d.U32())
	if d.Err() != nil {
		return
	}
	if nextID != s.reg.nextID {
		d.Fail(fmt.Errorf("netsim: rebuild registered %d ids, snapshot had %d — topology rebuild diverged from the checkpointed construction", s.reg.nextID, nextID))
		return
	}
	s.now = now
	s.seq = seq
	s.pool.stats = PacketPoolStats{Allocated: alloc, Gets: gets, Frees: frees}
	s.pool.free = s.pool.free[:0]
	for i := 0; i < freeDepth; i++ {
		//lint:poolrelease pool-internal -- rematerializing the checkpointed free list: each of these replaces a packet whose release was already counted in the restored Frees
		p := &Packet{}
		p.markFreed()
		s.pool.free = append(s.pool.free, p)
	}
	for i := range s.events {
		s.events[i] = event{}
	}
	s.events = s.events[:0]
	s.outbox = s.outbox[:0]
}

// Event kind bytes in a heap snapshot.
const (
	snapEvFunc   = 0
	snapEvTimer  = 1
	snapEvPacket = 2
)

// SnapshotHeap serializes every pending event. Each entry keeps its exact
// (time, order key) pair; callbacks and timers serialize as the registry ids
// they carry, packet deliveries as (receiver id, packet fields). An event
// whose handler type carries no id — a Func, a plain Every timer, an
// unregistered receiver — fails the snapshot with a named error: a
// checkpoint either captures everything or nothing.
func (s *Sim) SnapshotHeap(e *snap.Encoder) {
	e.Tag("heap")
	e.U32(uint32(len(s.events)))
	for i := range s.events {
		ev := &s.events[i]
		e.Dur(ev.at)
		e.U64(ev.seq)
		switch h := ev.r.(type) {
		case *Timer:
			e.U8(snapEvTimer)
			if h.id == 0 {
				e.Fail(fmt.Errorf("netsim: pending timer at %v was created with Every, not a snapshot-aware registration", ev.at))
				return
			}
			e.I64(h.id)
		case *Callback:
			e.U8(snapEvFunc)
			e.I64(h.id)
		case Func:
			e.Fail(fmt.Errorf("netsim: pending callback at %v is a plain Func and cannot be checkpointed", ev.at))
			return
		default:
			e.U8(snapEvPacket)
			if !reflect.TypeOf(h).Comparable() {
				e.Fail(fmt.Errorf("netsim: pending delivery at %v targets unregistrable receiver %T", ev.at, h))
				return
			}
			id, ok := s.reg.recvIDs[h]
			if !ok {
				e.Fail(fmt.Errorf("netsim: pending delivery at %v targets unregistered receiver %T", ev.at, h))
				return
			}
			e.I64(id)
			SnapshotPacket(e, ev.p)
		}
	}
}

// RestoreHeap pushes the snapshot's events into the (cleared) heap,
// resolving every id against the registry the rebuild populated. Pushing
// re-sifts, but since (time, key) is a strict total order the pop sequence
// is independent of heap layout. It fails closed on what no encoder writes:
// an event before the restored clock (ErrEventInPast) or a packet delivery
// without its packet (ErrPacketAbsent).
func (s *Sim) RestoreHeap(d *snap.Decoder) {
	d.Expect("heap")
	n := int(d.U32())
	for i := 0; i < n; i++ {
		at := d.Dur()
		seq := d.U64()
		kind := d.U8()
		id := d.I64()
		if d.Err() != nil {
			return
		}
		if at < s.now {
			d.Fail(fmt.Errorf("%w: event at %v, clock %v", ErrEventInPast, at, s.now))
			return
		}
		var r Receiver
		var p *Packet
		switch kind {
		case snapEvTimer:
			t, ok := s.reg.timers[id]
			if !ok {
				d.Fail(fmt.Errorf("netsim: heap references timer id %d, which the rebuild did not register", id))
				return
			}
			r = t
		case snapEvPacket:
			rcv, ok := s.reg.recvs[id]
			if !ok {
				d.Fail(fmt.Errorf("netsim: heap references receiver id %d, which the rebuild did not register", id))
				return
			}
			r, p = rcv, RestorePacket(d)
			if d.Err() != nil {
				return
			}
			if p == nil {
				d.Fail(fmt.Errorf("%w: delivery to receiver id %d at %v", ErrPacketAbsent, id, at))
				return
			}
		case snapEvFunc:
			c, ok := s.reg.funcs[id]
			if !ok {
				d.Fail(fmt.Errorf("netsim: heap references callback id %d, which the rebuild did not register", id))
				return
			}
			r = c
		default:
			d.Fail(fmt.Errorf("netsim: unknown heap event kind %d", kind))
			return
		}
		s.push(event{at: at, seq: seq, r: r, p: p})
	}
}

// SnapshotPacket writes a packet's wire fields and its in-flight delay
// attribution state (nil-tolerant).
func SnapshotPacket(e *snap.Encoder, p *Packet) {
	if p == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	e.Int(p.Flow)
	e.I64(p.Seq)
	e.Int(p.Bytes)
	e.Dur(p.SentAt)
	e.Int(p.Window)
	for _, c := range p.comps {
		e.Dur(c)
	}
	e.Dur(p.mark)
	e.U8(uint8(p.pend))
}

// RestorePacket rematerializes a live packet from its snapshot. It
// deliberately bypasses the counting pool path: the packet's original
// NewPacket/ClonePacket was already counted in the Gets that RestoreState
// re-armed, so counting again would break the Live() conservation identity.
// The fresh allocation is born live, which re-arms pooldebug poisoning
// exactly — live packets are live, and freed packets are simply never
// rematerialized.
func RestorePacket(d *snap.Decoder) *Packet {
	if !d.Bool() {
		return nil
	}
	//lint:poolrelease pool-internal -- checkpoint rematerialization: the packet this replaces was checked out through the counting pool path before the snapshot, and RestoreState restored that accounting wholesale
	p := &Packet{}
	p.Flow = d.Int()
	p.Seq = d.I64()
	p.Bytes = d.Int()
	p.SentAt = d.Dur()
	p.Window = d.Int()
	for i := range p.comps {
		p.comps[i] = d.Dur()
	}
	p.mark = d.Dur()
	pend := d.U8()
	if d.Err() != nil {
		return p
	}
	if int(pend) >= stats.NumDelayComps {
		d.Fail(fmt.Errorf("netsim: packet snapshot pending component %d, this build has %d", pend, stats.NumDelayComps))
		return p
	}
	p.pend = stats.DelayComp(pend)
	p.markLive()
	return p
}

// Snapshot writes the mesh's synchronization state and every cell's core
// state. It must be called at a barrier: the mesh quiescent, no sharded
// window executing, every lookahead channel drained. Heaps are written by
// SnapshotHeaps after the components, mirroring the two-phase restore.
func (m *Mesh) Snapshot(e *snap.Encoder) {
	e.Tag("mesh")
	if m.buffering {
		e.Fail(fmt.Errorf("netsim: mesh snapshot during a sharded window — snapshots are only valid at barriers"))
		return
	}
	if n := m.PendingCross(); n != 0 {
		e.Fail(fmt.Errorf("netsim: mesh snapshot with %d undelivered cross-cell messages — not at a quiescent barrier", n))
		return
	}
	e.Int(len(m.cells))
	e.Dur(m.lookahead)
	e.Dur(m.clock)
	e.U64(m.windows)
	e.U64(m.crossDelivered)
	for _, c := range m.cells {
		c.SnapshotState(e)
	}
}

// Restore consumes Snapshot's fields into a freshly rebuilt mesh,
// cross-checking the rebuilt topology shape.
func (m *Mesh) Restore(d *snap.Decoder) {
	d.Expect("mesh")
	cells := d.Int()
	la := d.Dur()
	clock := d.Dur()
	windows := d.U64()
	cross := d.U64()
	if d.Err() != nil {
		return
	}
	if cells != len(m.cells) || la != m.lookahead {
		d.Fail(fmt.Errorf("netsim: snapshot is of a %d-cell mesh at lookahead %v, rebuild produced %d cells at %v", cells, la, len(m.cells), m.lookahead))
		return
	}
	m.clock = clock
	m.windows = windows
	m.crossDelivered = cross
	for _, c := range m.cells {
		c.RestoreState(d)
		if d.Err() != nil {
			return
		}
	}
}

// SnapshotHeaps writes every cell's pending events.
func (m *Mesh) SnapshotHeaps(e *snap.Encoder) {
	e.Tag("meshheaps")
	for _, c := range m.cells {
		c.SnapshotHeap(e)
		if e.Err() != nil {
			return
		}
	}
}

// RestoreHeaps restores every cell's pending events; call it after every
// component's Restore.
func (m *Mesh) RestoreHeaps(d *snap.Decoder) {
	d.Expect("meshheaps")
	for _, c := range m.cells {
		c.RestoreHeap(d)
		if d.Err() != nil {
			return
		}
	}
}
