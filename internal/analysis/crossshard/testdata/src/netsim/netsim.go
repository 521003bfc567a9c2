// Package netsim is a crossshard fixture: a miniature of the mesh and
// cell-sim surface, enough for the cell-origin dataflow to classify
// Cell() provenance and scheduling contexts.
package netsim

// Packet mirrors the pooled type (only its existence matters here).
type Packet struct{ Seq int64 }

// Receiver mirrors the event handler interface.
type Receiver interface{ Receive(p *Packet) }

// Func adapts a closure to a Receiver.
type Func func()

// Receive implements Receiver.
func (f Func) Receive(*Packet) { f() }

// Callback mirrors a registered one-shot handler.
type Callback struct{ fn func() }

// Receive implements Receiver.
func (c *Callback) Receive(*Packet) { c.fn() }

// Sim mirrors one cell's event loop.
type Sim struct{ now int64 }

// Schedule delivers p to r inside this cell's shard at the given time.
func (s *Sim) Schedule(at int64, r Receiver, p *Packet) {}

// After is Schedule with a relative deadline.
func (s *Sim) After(d int64, r Receiver, p *Packet) {}

// RegisterFunc registers a callback that runs inside this cell's shard.
func (s *Sim) RegisterFunc(fn func()) *Callback { return &Callback{fn: fn} }

// Now returns the cell's virtual clock.
func (s *Sim) Now() int64 { return s.now }

// Mesh mirrors the multi-cell router.
type Mesh struct{ cells []*Sim }

// Cell returns cell i's Sim.
func (m *Mesh) Cell(i int) *Sim { return m.cells[i] }

// Send routes a cross-cell event through the outbox.
func (m *Mesh) Send(src, dst int, delay int64, r Receiver, p *Packet) {}
