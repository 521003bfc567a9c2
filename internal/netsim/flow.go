package netsim

import (
	"fmt"
	"time"

	"repro/internal/cc"
	"repro/internal/host"
	"repro/internal/obs"
	"repro/internal/snap"
	"repro/internal/stats"
)

// FlowMetrics aggregates what the paper reports per flow: delivered
// throughput (1-second windows, the Table 1 fairness granularity),
// per-packet one-way delay, and packet accounting.
type FlowMetrics struct {
	Flow int
	// Throughput is delivered bytes in 1 s windows at the sink.
	Throughput *stats.ThroughputSeries
	// Delay summarizes per-packet one-way delay in seconds (send to sink
	// arrival, including queueing).
	Delay *stats.Summary
	// DelayOverTime is the mean one-way delay per 1 s window.
	DelayOverTime *stats.WindowedMean
	// Sent, Received, LossDetected, Timeouts count packets and events.
	Sent, Received, LossDetected, Timeouts int64
	// AttribNs[c] is the delivered packets' summed delay attributable to
	// component c, in nanoseconds — the compact per-flow rollup (full
	// histograms live in per-cell stats.Attribution aggregates, because a
	// histogram per flow at 100k-flow metro scale would cost tens of MB).
	// Integer accumulation keeps the totals executor-independent.
	AttribNs [stats.NumDelayComps]int64
}

// NewFlowMetrics returns zeroed metrics for a flow.
func NewFlowMetrics(flow int) *FlowMetrics {
	return &FlowMetrics{
		Flow:       flow,
		Throughput: stats.NewThroughputSeries(time.Second),
		// A modest capacity hint: at 100k-flow metro scale each flow sees few
		// packets, and Summary grows on demand anyway — a large hint here
		// multiplies into hundreds of MB of idle preallocation.
		Delay:         stats.NewSummary(64),
		DelayOverTime: stats.NewWindowedMean(time.Second),
	}
}

// MeanMbps returns the flow's average delivered rate over the given horizon.
// Using the horizon rather than the spanned windows avoids over-crediting
// flows that stopped early.
func (m *FlowMetrics) MeanMbps(horizon time.Duration) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(m.Throughput.TotalBytes()) * 8 / horizon.Seconds() / 1e6
}

// Sink terminates a flow: it records delivery metrics and schedules the
// acknowledgement's arrival back at the source after the reverse-path delay.
type Sink struct {
	sim      *Sim
	metrics  *FlowMetrics
	ackDelay time.Duration
	src      *Source
	// attrib, when non-nil, receives each delivered packet's delay
	// decomposition (the metro harness shares one per home cell).
	attrib *stats.Attribution
	// obs, when non-nil, emits per-delivery attribution events and
	// histograms; nil is the disabled fast path.
	obs *sinkObs
}

// Receive implements Receiver.
func (k *Sink) Receive(p *Packet) {
	AssertLive(p, "Sink.Receive")
	now := k.sim.Now()
	oneWay := now - p.SentAt
	// Close the packet's final attribution interval; the component sum now
	// telescopes exactly to oneWay (integer nanoseconds).
	p.CloseDelay(now)
	k.metrics.Received++
	k.metrics.Throughput.Add(now, p.Bytes)
	k.metrics.Delay.Add(oneWay.Seconds())
	k.metrics.DelayOverTime.Add(now, oneWay.Seconds())
	comps := p.DelayComps()
	for c := 0; c < stats.NumDelayComps; c++ {
		k.metrics.AttribNs[c] += int64(comps[c])
	}
	if k.attrib != nil {
		k.attrib.Record(comps, oneWay)
	}
	if k.obs != nil {
		k.obs.onAttrib(now, p, comps, oneWay)
	}
	if k.src == nil {
		// CBR flows have no feedback loop: delivery ends the packet's life.
		k.sim.FreePacket(p)
		return
	}
	// The delivered packet doubles as its own acknowledgement: it rides the
	// reverse path back to the Source (a Receiver), which releases it after
	// processing the ack. No closure, no ack object.
	k.sim.After(k.ackDelay, k.src, p)
}

// Source is a full-buffer sender driven by a cc.Controller. Its host.Window
// performs the host duties the controller interface leaves out: sequencing,
// RTT estimation, duplicate-ack and timer loss detection, and the
// retransmission timeout. The Source adds the packets and the flow metrics.
type Source struct {
	sim  *Sim
	flow int
	ctrl cc.Controller
	link Link
	mtu  int

	metrics *FlowMetrics

	win     host.Window
	stopped bool
	started bool
	// tick (nil when the controller has no tick) and rto are created at
	// construction under ids derived from the start callback's, and armed
	// when the flow starts.
	tick *Timer
	rto  *Timer
	sink *Sink
}

// Derived-id slots for a Source's timers.
const (
	slotSourceTick = 1
	slotSourceRTO  = 2
)

// rtoPoll is the period of a Source's retransmission-timeout check.
const rtoPoll = 10 * time.Millisecond

// NewSource wires a controller into the simulation. The flow starts sending
// at `start` and stops at `stop` (0 = run forever). ackDelay is the
// reverse-path one-way delay, which together with the link's forward
// propagation delay forms the flow's base RTT.
func NewSource(sim *Sim, flow int, ctrl cc.Controller, link Link, mtu int,
	ackDelay, start, stop time.Duration) (*Source, *FlowMetrics) {
	if mtu <= 0 {
		panic("netsim: MTU must be positive")
	}
	m := NewFlowMetrics(flow)
	s := &Source{sim: sim, flow: flow, ctrl: ctrl, link: link, mtu: mtu, metrics: m}
	s.sink = &Sink{sim: sim, metrics: m, ackDelay: ackDelay, src: s}
	startCB := sim.RegisterFunc(s.start)
	sim.RegisterReceiver(s)
	sim.RegisterReceiver(s.sink)
	if iv := ctrl.TickInterval(); iv > 0 {
		s.tick = sim.newTimer(derivedID(startCB.id, slotSourceTick), iv, s.onTick)
	}
	s.rto = sim.newTimer(derivedID(startCB.id, slotSourceRTO), rtoPoll, s.checkRTO)
	sim.Schedule(start, startCB, nil)
	if stop > 0 {
		sim.Schedule(stop, sim.RegisterFunc(s.Stop), nil)
	}
	return s, m
}

// start begins transmission: it arms the controller tick and RTO timers,
// then sends the first window.
func (s *Source) start() {
	s.started = true
	s.win.Start(s.sim.Now())
	if s.tick != nil {
		s.sim.After(s.tick.interval, s.tick, nil)
	}
	s.sim.After(rtoPoll, s.rto, nil)
	s.trySend()
}

// onTick drives the controller's periodic update (the Verus epoch).
func (s *Source) onTick() {
	if s.stopped {
		return
	}
	s.ctrl.Tick(s.sim.Now())
	s.trySend()
}

// Stop halts the flow (no further transmissions).
func (s *Source) Stop() {
	s.stopped = true
	s.stopTimers()
}

// stopTimers stops the armed timers. Before the flow starts there are none:
// a flow stopped early still arms live timers at its start event.
func (s *Source) stopTimers() {
	if !s.started {
		return
	}
	if s.tick != nil {
		s.tick.Stop()
	}
	s.rto.Stop()
}

// Metrics returns the flow's metric sink.
func (s *Source) Metrics() *FlowMetrics { return s.metrics }

// Sink returns the flow's receiver, to be registered with the link
// dispatcher.
func (s *Source) Sink() Receiver { return s.sink }

// Instrument attaches an observer to the flow's sink: each delivery emits a
// net.attrib event carrying the packet's delay decomposition and feeds the
// per-component delay histograms, labeled by run. Nil leaves the sink on its
// disabled fast path.
func (s *Source) Instrument(o *obs.Observer, run int64) {
	s.sink.obs = newSinkObs(o, run)
}

// SetAttribution points the flow's sink at a shared attribution aggregate
// (per home cell in the metro harness). The aggregate must only ever be
// touched from this sink's timeline.
func (s *Source) SetAttribution(a *stats.Attribution) { s.sink.attrib = a }

// Receive implements Receiver: the Source is the terminus of the reverse
// path, consuming the delivered packet as its acknowledgement and releasing
// it back to the pool. The ack path is the flow path's release point for
// every packet that survives the network.
func (s *Source) Receive(p *Packet) {
	AssertLive(p, "Source ack")
	s.onAck(p)
	s.sim.FreePacket(p)
}

func (s *Source) trySend() {
	if s.stopped || !s.started {
		return
	}
	now := s.sim.Now()
	n := s.ctrl.Allowance(now, s.win.Inflight())
	for i := 0; i < n; i++ {
		p := s.sim.NewPacket(s.flow, s.win.NextSeq(), s.mtu, now, s.ctrl.SendTag())
		s.win.Send(now, p.Window)
		s.metrics.Sent++
		s.ctrl.OnSend(now, p.Seq, s.win.Inflight())
		s.link.Send(p)
	}
}

// onAck processes the acknowledgement for packet p arriving now.
func (s *Source) onAck(p *Packet) {
	if s.stopped {
		return
	}
	now := s.sim.Now()
	o, rtt, ok := s.win.Ack(now, p.Seq)
	if !ok {
		return // already declared lost or duplicate ack
	}
	s.ctrl.OnAck(now, cc.AckSample{Seq: p.Seq, RTT: rtt, SentWindow: o.Window, Bytes: p.Bytes})
	for _, l := range s.win.DetectLosses(now, p.Seq) {
		s.metrics.LossDetected++
		s.ctrl.OnLoss(now, cc.LossEvent{Seq: l.Seq, SentWindow: l.Window})
	}
	s.trySend()
}

func (s *Source) checkRTO() {
	now := s.sim.Now()
	if s.stopped || !s.win.Timeout(now) {
		return
	}
	s.metrics.Timeouts++
	s.ctrl.OnTimeout(now)
	s.trySend()
}

// Snapshot writes the flow's accumulated metrics.
func (m *FlowMetrics) Snapshot(e *snap.Encoder) {
	e.Tag("flowmetrics")
	m.Throughput.Snapshot(e)
	m.Delay.Snapshot(e)
	m.DelayOverTime.Snapshot(e)
	e.I64(m.Sent)
	e.I64(m.Received)
	e.I64(m.LossDetected)
	e.I64(m.Timeouts)
	e.I64s(m.AttribNs[:])
}

// Restore replaces the flow's metrics with a snapshot.
func (m *FlowMetrics) Restore(d *snap.Decoder) {
	d.Expect("flowmetrics")
	m.Throughput.Restore(d)
	m.Delay.Restore(d)
	m.DelayOverTime.Restore(d)
	m.Sent = d.I64()
	m.Received = d.I64()
	m.LossDetected = d.I64()
	m.Timeouts = d.I64()
	attrib := d.I64s()
	if d.Err() != nil {
		return
	}
	if len(attrib) != stats.NumDelayComps {
		d.Fail(fmt.Errorf("netsim: flow metrics snapshot has %d attribution components, this build has %d",
			len(attrib), stats.NumDelayComps))
		return
	}
	copy(m.AttribNs[:], attrib)
}

// Snapshot implements Snapshotter: sender protocol state, the flow's metrics,
// and the controller's state (the controller must itself be a Snapshotter).
// Pending ack deliveries, timer ticks, and the start/stop events live in the
// heap snapshot, not here.
func (s *Source) Snapshot(e *snap.Encoder) {
	e.Tag("source")
	cs, ok := s.ctrl.(snap.Snapshotter)
	if !ok {
		e.Fail(fmt.Errorf("netsim: controller %T is not checkpointable (no Snapshot/Restore)", s.ctrl))
		return
	}
	s.win.Snapshot(e)
	e.Bool(s.stopped)
	e.Bool(s.started)
	s.metrics.Snapshot(e)
	cs.Snapshot(e)
}

// Restore implements Snapshotter. The rebuilt timers are unarmed — their
// pending ticks arrive with the heap — and carry the stopped flag.
func (s *Source) Restore(d *snap.Decoder) {
	d.Expect("source")
	cs, ok := s.ctrl.(snap.Snapshotter)
	if !ok {
		d.Fail(fmt.Errorf("netsim: controller %T is not checkpointable (no Snapshot/Restore)", s.ctrl))
		return
	}
	s.win.Restore(d)
	s.stopped = d.Bool()
	s.started = d.Bool()
	s.metrics.Restore(d)
	cs.Restore(d)
	if d.Err() == nil && s.stopped {
		s.stopTimers()
	}
}
