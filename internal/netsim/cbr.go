package netsim

import (
	"time"

	"repro/internal/obs"
	"repro/internal/snap"
	"repro/internal/stats"
)

// CBR is a constant-bit-rate sender with an optional ON/OFF duty cycle — the
// traffic generator behind the paper's §3 measurements (a UDP tool sending
// at fixed intervals) and the competing-traffic experiment of Fig. 3 (a
// second user "set to operate in ON/OFF periods of one minute intervals").
type CBR struct {
	sim     *Sim
	flow    int
	link    Link
	mtu     int
	metrics *FlowMetrics
	sink    *Sink

	interval time.Duration
	onFor    time.Duration // 0 = always on
	offFor   time.Duration
	nextSeq  int64
	stopped  bool
	run      *Callback // the one self-rescheduling registered callback
}

// NewCBR creates a constant-rate flow of rateMbps using mtu-sized packets,
// starting at `start` and stopping at `stop` (0 = forever). When onFor and
// offFor are positive the flow alternates between sending for onFor and
// staying silent for offFor, beginning with an ON period.
func NewCBR(sim *Sim, flow int, link Link, mtu int, rateMbps float64,
	start, stop, onFor, offFor time.Duration) (*CBR, *FlowMetrics) {
	if rateMbps <= 0 {
		panic("netsim: CBR rate must be positive")
	}
	if mtu <= 0 {
		panic("netsim: MTU must be positive")
	}
	m := NewFlowMetrics(flow)
	c := &CBR{
		sim:      sim,
		flow:     flow,
		link:     link,
		mtu:      mtu,
		metrics:  m,
		interval: time.Duration(float64(mtu*8) / (rateMbps * 1e6) * float64(time.Second)),
		onFor:    onFor,
		offFor:   offFor,
	}
	c.sink = &Sink{sim: sim, metrics: m} // no src: CBR needs no ACKs
	sim.RegisterReceiver(c.sink)
	c.run = sim.RegisterFunc(c.onRun)
	sim.Schedule(start, c.run, nil)
	if stop > 0 {
		sim.Schedule(stop, sim.RegisterFunc(c.halt), nil)
	}
	return c, m
}

// halt ends the flow; it is the registered form of the old stop closure.
func (c *CBR) halt() { c.stopped = true }

// Metrics returns the flow's metric sink.
func (c *CBR) Metrics() *FlowMetrics { return c.metrics }

// Sink returns the flow's receiver, to be registered with the link
// dispatcher.
func (c *CBR) Sink() Receiver { return c.sink }

// Instrument attaches an observer to the flow's sink, as on Source.
func (c *CBR) Instrument(o *obs.Observer, run int64) {
	c.sink.obs = newSinkObs(o, run)
}

// SetAttribution points the flow's sink at a shared attribution aggregate,
// as on Source.
func (c *CBR) SetAttribution(a *stats.Attribution) { c.sink.attrib = a }

func (c *CBR) onRun() {
	if c.stopped {
		return
	}
	if c.onFor > 0 && c.offFor > 0 {
		cycle := c.onFor + c.offFor
		phase := c.sim.Now() % cycle
		if phase >= c.onFor {
			// In an OFF period: sleep until the next ON boundary.
			c.sim.After(cycle-phase, c.run, nil)
			return
		}
	}
	c.send()
	c.sim.After(c.interval, c.run, nil)
}

func (c *CBR) send() {
	p := c.sim.NewPacket(c.flow, c.nextSeq, c.mtu, c.sim.Now(), 0)
	c.nextSeq++
	c.metrics.Sent++
	c.link.Send(p)
}

// Snapshot implements Snapshotter: sequence position, the stop flag, and the
// flow's metrics. The pending send (or ON-boundary wakeup) event is restored
// with the heap.
func (c *CBR) Snapshot(e *snap.Encoder) {
	e.Tag("cbr")
	e.I64(c.nextSeq)
	e.Bool(c.stopped)
	c.metrics.Snapshot(e)
}

// Restore implements Snapshotter.
func (c *CBR) Restore(d *snap.Decoder) {
	d.Expect("cbr")
	c.nextSeq = d.I64()
	c.stopped = d.Bool()
	c.metrics.Restore(d)
}
