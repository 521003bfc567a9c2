package netsim

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Mesh partitions a simulation into per-cell event heaps with deterministic
// conservative synchronization, the substrate for multi-cell "metro"
// topologies (DESIGN.md §12). Each cell is an ordinary *Sim — links, queues,
// and flows are built against it exactly as against a standalone simulator —
// and cross-cell interactions travel over lookahead channels: Send schedules
// an event in another cell's timeline at least `lookahead` in the future.
//
// Two executors run the same mesh:
//
//   - RunSingle is the reference single-heap executor: one merged event
//     order over every cell, popped strictly by (time, order key).
//   - RunSharded is the conservative parallel executor: cells are grouped
//     into shards, each shard executes lookahead-wide windows on its own
//     goroutine, and cross-cell messages are exchanged at window barriers.
//     An idle shard still advances its clock to each window edge — the
//     null-message advance — so no shard ever stalls more than one
//     lookahead behind its peers.
//
// The two are byte-identical, for any shard count, because of two
// structural properties. First, every event's order key — (cell id,
// cell-local insertion counter) packed by orderKey — is claimed at creation
// time by the cell that creates it and travels with the event, so heap
// order never depends on when a message is physically delivered. Second,
// cross-cell delays are at least the lookahead, so two events in different
// cells closer together than one window can never interact; any execution
// interleaving between cells inside a window observes the same state.
// Within one cell, events execute in identical (time, key) order under both
// executors, by induction over windows.
type Mesh struct {
	cells     []*Sim
	lookahead time.Duration
	clock     time.Duration

	// buffering is true while RunSharded windows execute: Send then appends
	// to the source cell's outbox (owned by the executing shard goroutine)
	// instead of pushing into the destination heap, and the coordinator
	// drains outboxes at barriers. It is written only by the coordinating
	// goroutine before workers start and after they join.
	buffering bool

	windows        uint64 // completed sharded windows (barrier count)
	crossDelivered uint64 // cross-cell messages delivered into a heap

	// windowHook, when non-nil, runs on the coordinating goroutine after
	// each sharded window's barrier with that window's horizon — the
	// liveness probe the watchdog tests use.
	windowHook func(horizon time.Duration)

	obs *meshObs
}

// NewMesh returns a mesh of n cells synchronized at the given lookahead —
// the minimum cross-cell propagation delay. A non-positive lookahead is
// rejected at construction: a zero-delay cross-cell link would make
// conservative synchronization impossible (no window in which cells are
// independent), so it is a topology error, not a runtime condition.
func NewMesh(n int, lookahead time.Duration) *Mesh {
	if n <= 0 {
		panic("netsim: mesh needs at least one cell")
	}
	if lookahead <= 0 {
		panic("netsim: mesh lookahead must be positive — zero-delay cross-cell links cannot be conservatively synchronized")
	}
	m := &Mesh{cells: make([]*Sim, n), lookahead: lookahead}
	for i := range m.cells {
		m.cells[i] = &Sim{id: uint32(i), mesh: m}
	}
	return m
}

// Cells returns the number of cells.
func (m *Mesh) Cells() int { return len(m.cells) }

// Cell returns cell i's simulator. Entities owned by cell i must be
// constructed against this Sim and touched only from its timeline.
func (m *Mesh) Cell(i int) *Sim { return m.cells[i] }

// Lookahead returns the synchronization horizon.
func (m *Mesh) Lookahead() time.Duration { return m.lookahead }

// Now returns the virtual time the whole mesh has reached.
func (m *Mesh) Now() time.Duration { return m.clock }

// Windows returns how many conservative windows RunSharded has completed.
func (m *Mesh) Windows() uint64 { return m.windows }

// CrossDelivered returns how many cross-cell messages have been delivered
// into a destination heap so far.
func (m *Mesh) CrossDelivered() uint64 { return m.crossDelivered }

// PendingCross returns the number of cross-cell messages sitting in
// lookahead channels (sent but not yet delivered into a destination heap).
// Only meaningful between Run calls.
func (m *Mesh) PendingCross() int {
	n := 0
	for _, c := range m.cells {
		n += len(c.outbox)
	}
	return n
}

// crossMsg is one message in a lookahead channel: an event bound for
// another cell, carrying the arrival time and the order key its sending cell
// claimed for it. A packet delivery boxes no closure: the packet simply
// migrates to the destination cell (whose pool it will be released into).
type crossMsg struct {
	dst int32
	at  time.Duration
	key uint64
	r   Receiver
	p   *Packet
}

// Send schedules the event r.Receive(p) in cell dst's timeline at the
// sending cell's now+delay — a packet delivery, or a handler with a nil p as
// in Sim.Schedule. It must be called from within cell src's event execution
// (or during setup, before any executor runs). The delay must be at least
// the mesh lookahead; anything shorter would let the message arrive inside
// the window its sender is still executing, which the conservative protocol
// cannot order. A packet must not be touched by the sending cell after the
// call (ownership migrates with it).
func (m *Mesh) Send(src, dst int, delay time.Duration, r Receiver, p *Packet) {
	if delay < m.lookahead {
		panic(fmt.Sprintf("netsim: cross-cell delay %v below mesh lookahead %v", delay, m.lookahead))
	}
	if dst < 0 || dst >= len(m.cells) {
		panic(fmt.Sprintf("netsim: cross-cell send to unknown cell %d (mesh has %d)", dst, len(m.cells)))
	}
	if p != nil {
		AssertLive(p, "Mesh.Send")
	}
	s := m.cells[src]
	msg := crossMsg{dst: int32(dst), at: s.now + delay, key: s.nextKey(), r: r, p: p}
	if m.buffering {
		s.outbox = append(s.outbox, msg)
		return
	}
	m.deliver(msg)
}

// deliver pushes one channel message into its destination heap.
func (m *Mesh) deliver(msg crossMsg) {
	m.cells[msg.dst].pushKeyed(msg.at, msg.key, msg.r, msg.p)
	m.crossDelivered++
}

// drain moves every buffered channel message into its destination heap, in
// cell-id order. Because order keys were claimed at send time, drain order
// cannot influence event order; the fixed iteration keeps the merge
// deterministic anyway (and keeps allocation behavior reproducible).
func (m *Mesh) drain() {
	for _, c := range m.cells {
		for i := range c.outbox {
			m.deliver(c.outbox[i])
			c.outbox[i] = crossMsg{} // release the handler
		}
		c.outbox = c.outbox[:0]
	}
	if m.obs != nil {
		m.obs.sync(m)
	}
}

// RunSingle advances the mesh to `until` on the reference single-heap
// executor: every cell's pending events merged into one global order by
// (time, order key) and executed on the calling goroutine. It exists as the
// executable specification the sharded executor is tested against — and as
// the debug path when a sharded run needs to be bisected.
func (m *Mesh) RunSingle(until time.Duration) {
	m.drain()
	for {
		best := -1
		var bestAt time.Duration
		var bestKey uint64
		for i, c := range m.cells {
			if !c.headBefore(until, true) {
				continue
			}
			at, key := c.headKey()
			if best < 0 || at < bestAt || (at == bestAt && key < bestKey) {
				best, bestAt, bestKey = i, at, key
			}
		}
		if best < 0 {
			break
		}
		m.cells[best].step()
	}
	for _, c := range m.cells {
		if until > c.now {
			c.now = until
		}
	}
	if until > m.clock {
		m.clock = until
	}
	if m.obs != nil {
		m.obs.sync(m)
	}
}

// RunSharded advances the mesh to `until` on the conservative executor with
// the given shard count. Cells are assigned round-robin (cell i → shard
// i%shards); each shard runs on its own goroutine. Execution proceeds in
// lookahead-wide windows on a grid anchored at zero: within a window every
// shard executes its cells' events strictly before the horizon, buffering
// cross-cell sends; at the barrier the coordinator drains every channel in
// cell-id order and all clocks advance to the horizon (the null-message
// advance for idle shards). Events exactly at `until` run in a final
// inclusive pass, mirroring Sim.Run's at<=until semantics.
//
// Output is byte-identical to RunSingle for every shard count; see the type
// comment for why.
func (m *Mesh) RunSharded(until time.Duration, shards int) {
	if shards <= 0 {
		panic("netsim: shard count must be positive")
	}
	if shards > len(m.cells) {
		shards = len(m.cells)
	}
	m.drain()
	groups := make([][]*Sim, shards)
	for i, c := range m.cells {
		groups[i%shards] = append(groups[i%shards], c)
	}

	// Workers live for the whole call: one channel round-trip per shard per
	// window instead of a goroutine spawn. Within a window the cells of a
	// shard cannot interact (every cross-cell delay spans at least one
	// window), so each cell runs to the horizon independently.
	type winCmd struct {
		horizon   time.Duration
		inclusive bool
	}
	runGroup := func(g []*Sim, c winCmd) {
		for _, cell := range g {
			cell.runWindow(c.horizon, c.inclusive)
		}
	}
	var starts []chan winCmd
	var done chan struct{}
	var wg sync.WaitGroup
	if shards > 1 {
		starts = make([]chan winCmd, shards)
		done = make(chan struct{}, shards)
		for w := range groups {
			starts[w] = make(chan winCmd, 1)
			wg.Add(1)
			go func(g []*Sim, in chan winCmd) {
				defer wg.Done()
				for c := range in {
					runGroup(g, c)
					done <- struct{}{}
				}
			}(groups[w], starts[w])
		}
	}
	m.buffering = true
	window := func(horizon time.Duration, inclusive bool) {
		if shards == 1 {
			runGroup(groups[0], winCmd{horizon, inclusive})
		} else {
			for _, ch := range starts {
				ch <- winCmd{horizon, inclusive}
			}
			for range groups {
				<-done
			}
		}
		m.drain()
		m.windows++
		if m.windowHook != nil {
			m.windowHook(horizon)
		}
	}
	for m.clock < until {
		// Next grid boundary strictly past the clock, clamped to `until`.
		h := m.clock - m.clock%m.lookahead + m.lookahead
		if h > until {
			h = until
		}
		window(h, false)
		m.clock = h
	}
	// Events exactly at `until`: any message they send arrives strictly
	// after `until`, so this pass needs no further barrier.
	window(until, true)
	m.buffering = false
	if shards > 1 {
		for _, ch := range starts {
			close(ch)
		}
		wg.Wait()
	}
}

// Instrument attaches passive observability: counters for delivered
// cross-cell messages and completed windows, plus a gauge of messages
// currently in lookahead channels. All instruments are updated by the
// coordinating goroutine only, at barriers — never from shard workers.
func (m *Mesh) Instrument(o *obs.Observer, run int64) {
	if o == nil {
		m.obs = nil
		return
	}
	label := func(name string) string {
		return obs.Labeled(name, "run", strconv.FormatInt(run, 10))
	}
	m.obs = &meshObs{
		cross:   o.Counter(label("netsim_mesh_cross_total")),
		windows: o.Counter(label("netsim_mesh_windows_total")),
		pending: o.Gauge(label("netsim_mesh_cross_pending")),
	}
}

// meshObs holds the mesh's resolved metric instruments.
type meshObs struct {
	cross   *obs.Counter
	windows *obs.Counter
	pending *obs.Gauge

	lastCross   uint64
	lastWindows uint64
}

// sync folds the mesh's monotone totals into the registry instruments.
func (mo *meshObs) sync(m *Mesh) {
	mo.cross.Add(int64(m.crossDelivered - mo.lastCross))
	mo.lastCross = m.crossDelivered
	mo.windows.Add(int64(m.windows - mo.lastWindows))
	mo.lastWindows = m.windows
	mo.pending.Set(float64(m.PendingCross()))
}

// CellID returns this simulator's cell index within its mesh (0 when
// standalone).
func (s *Sim) CellID() int { return int(s.id) }

// Mesh returns the mesh this simulator belongs to, or nil when standalone.
func (s *Sim) Mesh() *Mesh { return s.mesh }
