package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/obs"
	"repro/internal/snap"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Receiver consumes packets that exit a link.
type Receiver interface {
	Receive(p *Packet)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(p *Packet)

// Receive implements Receiver.
func (f ReceiverFunc) Receive(p *Packet) { f(p) }

// Link is a bottleneck entry point: sources push packets in, the link queues
// and serves them, and delivered packets reach the configured Receiver.
type Link interface {
	Send(p *Packet)
	// Queue exposes the link's buffer (for instrumentation).
	Queue() Queue
}

// linkCore is the state and logic shared by FixedLink and TraceLink: the
// queue, the destination, i.i.d. loss, propagation, counters, and the obs
// tap. Concentrating the enqueue path (ingress) and the loss/delivery path
// (finish) here means each packet release point exists in exactly one place,
// instead of once per link type.
type linkCore struct {
	sim   *Sim
	queue Queue
	dst   Receiver
	rng   *rand.Rand
	// src is the counting source behind rng, making the loss-draw stream
	// position checkpointable (see snapshot.go).
	src *snap.Source

	propDly  time.Duration
	lossProb float64
	obs      *linkObs

	// Delivered counts packets that exited the link.
	Delivered int64
	// Lost counts packets dropped by loss injection.
	Lost int64
}

// ingress enqueues p, reporting false when the queue rejected it. A rejected
// packet's life ends here: it is released after the obs drop record.
func (c *linkCore) ingress(p *Packet) bool {
	AssertLive(p, "link ingress")
	if !c.queue.Enqueue(p, c.sim.Now()) {
		if c.obs != nil {
			c.obs.onDrop(c.sim.Now(), p, "queue")
		}
		c.sim.FreePacket(p)
		return false
	}
	if c.obs != nil {
		c.obs.onEnqueue(c.sim.Now(), p, c.queue.Len(), c.queue.Bytes())
	}
	return true
}

// finish completes service of p: apply the i.i.d. loss draw and either end
// the packet's life (loss) or count the delivery and schedule propagation to
// the destination. Counter, obs, and scheduling order match the historical
// per-link code exactly — the loss RNG is only consulted when lossProb > 0.
func (c *linkCore) finish(p *Packet) {
	if c.lossProb > 0 && c.rng.Float64() < c.lossProb {
		c.Lost++
		if c.obs != nil {
			c.obs.onDrop(c.sim.Now(), p, "loss")
		}
		c.sim.FreePacket(p)
		return
	}
	c.Delivered++
	// Serialization ends here: charge the open interval (queue wait when the
	// packet cleared in one trace opportunity, serialization otherwise) and
	// open the propagation interval.
	p.MarkDelay(c.sim.Now(), stats.DelayPropagate)
	if c.obs != nil {
		c.obs.onDeliver(c.sim.Now(), p)
	}
	c.sim.After(c.propDly, c.dst, p)
}

// SetPropDelay changes the one-way propagation delay for future deliveries.
func (c *linkCore) SetPropDelay(d time.Duration) { c.propDly = d }

// SetLossProb changes the i.i.d. loss probability in [0, 1].
func (c *linkCore) SetLossProb(p float64) {
	if p < 0 || p > 1 {
		panic("netsim: loss probability out of range")
	}
	c.lossProb = p
}

// Queue implements Link.
func (c *linkCore) Queue() Queue { return c.queue }

// Instrument attaches an observer for packet-level tracing and link
// counters; run labels the trial. A nil observer leaves the link on its
// disabled fast path.
func (c *linkCore) Instrument(o *obs.Observer, run int64) {
	c.obs = newLinkObs(o, run)
}

// FixedLink serializes packets at a configurable rate with a propagation
// delay and an optional i.i.d. loss probability. Rate, delay, and loss can
// change at runtime — the mechanism behind the paper's §7 micro-evaluations
// where "every five seconds the whole network parameters, i.e. link
// capacity, network RTT, and loss rate, are changed."
type FixedLink struct {
	linkCore

	rateBps float64
	busy    bool
	// serving is the packet currently on the wire; served is the one
	// registered serialization-complete callback reused for every packet,
	// so serving a packet schedules no closures.
	serving *Packet
	served  *Callback
}

// NewFixedLink returns a link serving q at rateMbps with the given one-way
// propagation delay, delivering to dst.
func NewFixedLink(sim *Sim, q Queue, rateMbps float64, prop time.Duration, dst Receiver, seed int64) *FixedLink {
	if rateMbps <= 0 {
		panic("netsim: link rate must be positive")
	}
	src := snap.NewSource(seed)
	l := &FixedLink{
		linkCore: linkCore{
			sim:     sim,
			queue:   q,
			dst:     dst,
			rng:     rand.New(src),
			src:     src,
			propDly: prop,
		},
		rateBps: rateMbps * 1e6,
	}
	l.served = sim.RegisterFunc(l.onServed)
	return l
}

// SetRateMbps changes the link capacity; it applies to the next
// serialization.
func (l *FixedLink) SetRateMbps(m float64) {
	if m <= 0 {
		panic("netsim: link rate must be positive")
	}
	l.rateBps = m * 1e6
}

// RateMbps returns the current capacity.
func (l *FixedLink) RateMbps() float64 { return l.rateBps / 1e6 }

// Send implements Link.
func (l *FixedLink) Send(p *Packet) {
	if !l.ingress(p) {
		return
	}
	if !l.busy {
		l.serveNext()
	}
}

func (l *FixedLink) serveNext() {
	p := l.queue.Dequeue(l.sim.Now())
	if p == nil {
		l.busy = false
		return
	}
	l.busy = true
	l.serving = p
	p.MarkDelay(l.sim.Now(), stats.DelaySerialize)
	ser := time.Duration(float64(p.Bytes*8) / l.rateBps * float64(time.Second))
	l.sim.After(ser, l.served, nil)
}

// onServed fires when the serving packet's last bit leaves the sender:
// finish it (loss or propagation), then start on the next queued packet.
// With nothing on the wire it does nothing: only a crafted checkpoint's
// heap can fire it then.
func (l *FixedLink) onServed() {
	p := l.serving
	if p == nil {
		return
	}
	l.serving = nil
	l.finish(p)
	l.serveNext()
}

// TraceLink drains its queue according to a recorded cellular trace: at each
// delivery opportunity up to Opportunity.Bytes of whole packets leave the
// queue. Unused opportunity bytes are wasted, as in a real cellular
// scheduler (and in mahimahi's trace replay). This is the paper's OPNET
// traffic shaper: "The channel traces are fed into a traffic shaper and
// replayed upon packet arrival."
type TraceLink struct {
	linkCore

	tr   *trace.Trace
	loop bool
	// headServed is how many bytes of the head packet have already been
	// served by earlier opportunities (RLC-style segmentation: a packet may
	// span several transmission opportunities).
	headServed int
	// opIdx/opBase locate the pending delivery opportunity; op is the one
	// registered callback reused for every opportunity, so trace replay
	// schedules no closures.
	opIdx  int
	opBase time.Duration
	op     *Callback

	// WastedBytes counts unused opportunity capacity.
	WastedBytes int64
}

// NewTraceLink returns a link that replays tr. When loop is true the trace
// repeats indefinitely; otherwise the channel goes silent when the trace
// ends.
func NewTraceLink(sim *Sim, q Queue, tr *trace.Trace, prop time.Duration, dst Receiver, loop bool, seed int64) *TraceLink {
	if len(tr.Ops) == 0 {
		panic("netsim: trace has no delivery opportunities")
	}
	src := snap.NewSource(seed)
	l := &TraceLink{
		linkCore: linkCore{
			sim:     sim,
			queue:   q,
			dst:     dst,
			rng:     rand.New(src),
			src:     src,
			propDly: prop,
		},
		tr:   tr,
		loop: loop,
	}
	l.op = sim.RegisterFunc(l.runOp)
	l.scheduleOp(0, 0)
	return l
}

// Send implements Link.
func (l *TraceLink) Send(p *Packet) {
	l.ingress(p)
}

func (l *TraceLink) scheduleOp(idx int, base time.Duration) {
	if idx >= len(l.tr.Ops) {
		if !l.loop || l.tr.Duration <= 0 {
			return
		}
		idx = 0
		base += l.tr.Duration
	}
	l.opIdx, l.opBase = idx, base
	l.sim.Schedule(base+l.tr.Ops[idx].At, l.op, nil)
}

// runOp serves the pending delivery opportunity and schedules the next one.
func (l *TraceLink) runOp() {
	op := l.tr.Ops[l.opIdx]
	l.serve(op.Bytes)
	l.scheduleOp(l.opIdx+1, l.opBase)
}

func (l *TraceLink) serve(budget int) {
	for budget > 0 {
		head := l.peek()
		if head == nil {
			// Idle channel: this opportunity's capacity is lost, the
			// non-work-conserving property of a cellular scheduler.
			l.WastedBytes += int64(budget)
			return
		}
		need := head.Bytes - l.headServed
		if need > budget {
			// Partial service; the packet completes in a later opportunity
			// (RLC segmentation). The first byte served marks the end of
			// queue wait — serialization now spans opportunities until the
			// finishing dequeue. A packet fully served within one opportunity
			// never reaches this branch and charges zero serialization.
			if l.headServed == 0 {
				head.MarkDelay(l.sim.Now(), stats.DelaySerialize)
			}
			l.headServed += budget
			return
		}
		budget -= need
		l.headServed = 0
		l.finish(l.queue.Dequeue(l.sim.Now()))
	}
}

// peek returns the head packet without removing it. Queue has no Peek, so
// TraceLink relies on the concrete types used in this package.
func (l *TraceLink) peek() *Packet {
	switch q := l.queue.(type) {
	case *DropTail:
		return q.Peek()
	case *RED:
		return q.Peek()
	default:
		panic("netsim: TraceLink requires a DropTail or RED queue")
	}
}

// snapshot writes the shared link state: tunable parameters (rate/delay/loss
// experiments mutate them mid-run), the loss RNG position, the delivery
// counters, and the queue contents.
func (c *linkCore) snapshot(e *snap.Encoder) {
	e.Tag("linkcore")
	if c.src == nil {
		e.Fail(fmt.Errorf("netsim: link has no checkpointable RNG; construct with NewFixedLink/NewTraceLink"))
		return
	}
	e.Dur(c.propDly)
	e.F64(c.lossProb)
	c.src.Snapshot(e)
	e.I64(c.Delivered)
	e.I64(c.Lost)
	snapshotQueue(e, c.queue)
}

// restore consumes snapshot's fields into the rebuilt core.
func (c *linkCore) restore(d *snap.Decoder) {
	d.Expect("linkcore")
	if c.src == nil {
		d.Fail(fmt.Errorf("netsim: link has no checkpointable RNG; construct with NewFixedLink/NewTraceLink"))
		return
	}
	c.propDly = d.Dur()
	c.lossProb = d.F64()
	c.src.Restore(d)
	c.Delivered = d.I64()
	c.Lost = d.I64()
	restoreQueue(d, c.queue)
}

// Snapshot implements Snapshotter: the core state plus the serializer — the
// current rate, the busy flag, and the packet on the wire. The pending
// serialization-complete event itself is restored with the heap.
func (l *FixedLink) Snapshot(e *snap.Encoder) {
	e.Tag("fixedlink")
	l.linkCore.snapshot(e)
	e.F64(l.rateBps)
	e.Bool(l.busy)
	SnapshotPacket(e, l.serving)
}

// Restore implements Snapshotter.
func (l *FixedLink) Restore(d *snap.Decoder) {
	d.Expect("fixedlink")
	l.linkCore.restore(d)
	l.rateBps = d.F64()
	l.busy = d.Bool()
	l.serving = RestorePacket(d)
}

// Snapshot implements Snapshotter: the core state plus trace replay
// position — which opportunity is pending, the loop base offset, partial
// service of the head packet, and wasted capacity. The pending opportunity
// event itself is restored with the heap.
func (l *TraceLink) Snapshot(e *snap.Encoder) {
	e.Tag("tracelink")
	l.linkCore.snapshot(e)
	e.Int(l.headServed)
	e.Int(l.opIdx)
	e.Dur(l.opBase)
	e.I64(l.WastedBytes)
}

// Restore implements Snapshotter.
func (l *TraceLink) Restore(d *snap.Decoder) {
	d.Expect("tracelink")
	l.linkCore.restore(d)
	l.headServed = d.Int()
	l.opIdx = d.Int()
	l.opBase = d.Dur()
	l.WastedBytes = d.I64()
}
