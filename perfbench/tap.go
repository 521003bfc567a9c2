package main

import (
	"time"

	"repro/internal/cc"
	"repro/internal/netsim"
	"repro/internal/sprout"
	"repro/internal/tcp"
	"repro/internal/verus"
)

// tap holds the timing seams of a traced round. Each seam wraps a public
// interface the layers already accept (netsim.Link, netsim.Receiver,
// cc.Controller), so the simulator itself is untouched: a wrapper only
// forwards, and the traced round's fingerprint must equal the untraced
// one's. A nil *tap attaches nothing.
//
// A tap is used from one goroutine at a time: the simulator's event loop,
// or the UDP sender's event loop, whose exit the caller waits for before
// reading the counters.
type tap struct {
	// outer times Send on the link the sources see; inner times Send on the
	// trace-driven bottleneck behind a fault decorator, when there is one.
	outer, inner span
	deliver      span
	// ctrl is controller busy time and call counts by family.
	ctrl    map[string]*span
	methods [numMethods]int64
}

// span accumulates calls and wall time at one seam.
type span struct {
	calls int64
	ns    int64
}

func (s *span) since(t0 time.Time) {
	s.calls++
	s.ns += int64(time.Since(t0))
}

func (s *span) seconds() float64 { return float64(s.ns) / 1e9 }

func newTap() *tap {
	return &tap{ctrl: map[string]*span{"verus": {}, "tcp": {}, "sprout": {}}}
}

// link wraps l so its Send is timed into the inner or the outer span.
func (tp *tap) link(l netsim.Link, inner bool) netsim.Link {
	if tp == nil {
		return l
	}
	s := &tp.outer
	if inner {
		s = &tp.inner
	}
	return &timedLink{Link: l, s: s}
}

type timedLink struct {
	netsim.Link
	s *span
}

func (l *timedLink) Send(p *netsim.Packet) {
	t0 := time.Now()
	l.Link.Send(p)
	l.s.since(t0)
}

// receiver wraps the delivery receiver the bottleneck hands packets to.
func (tp *tap) receiver(r netsim.Receiver) netsim.Receiver {
	if tp == nil {
		return r
	}
	return &timedRecv{r: r, s: &tp.deliver}
}

type timedRecv struct {
	r netsim.Receiver
	s *span
}

func (t *timedRecv) Receive(p *netsim.Packet) {
	t0 := time.Now()
	t.r.Receive(p)
	t.s.since(t0)
}

// Controller methods counted by the wrapper, in the order of the cc.* metrics.
const (
	mOnAck = iota
	mOnLoss
	mOnTimeout
	mTick
	mAllowance
	mSendTag
	mOnSend
	numMethods
)

var methodMetrics = [numMethods]string{"cc.on_ack", "cc.on_loss", "cc.on_timeout", "cc.tick", "cc.allowance", "cc.send_tag", "cc.on_send"}

// family names the layer a controller belongs to.
func family(c cc.Controller) string {
	switch c.(type) {
	case *verus.Verus:
		return "verus"
	case *sprout.Sprout:
		return "sprout"
	case *tcp.Cubic, *tcp.NewReno, *tcp.Vegas:
		return "tcp"
	}
	panic("perfbench: unclassified controller " + c.Name())
}

// controller wraps c so every call is counted by method and timed into
// its family's busy time.
func (tp *tap) controller(c cc.Controller) cc.Controller {
	if tp == nil {
		return c
	}
	return &timedCtrl{c: c, tp: tp, s: tp.ctrl[family(c)]}
}

type timedCtrl struct {
	c  cc.Controller
	tp *tap
	s  *span
}

func (t *timedCtrl) done(m int, t0 time.Time) {
	t.tp.methods[m]++
	t.s.since(t0)
}

func (t *timedCtrl) Name() string                { return t.c.Name() }
func (t *timedCtrl) TickInterval() time.Duration { return t.c.TickInterval() }

func (t *timedCtrl) OnAck(now time.Duration, a cc.AckSample) {
	t0 := time.Now()
	t.c.OnAck(now, a)
	t.done(mOnAck, t0)
}

func (t *timedCtrl) OnLoss(now time.Duration, l cc.LossEvent) {
	t0 := time.Now()
	t.c.OnLoss(now, l)
	t.done(mOnLoss, t0)
}

func (t *timedCtrl) OnTimeout(now time.Duration) {
	t0 := time.Now()
	t.c.OnTimeout(now)
	t.done(mOnTimeout, t0)
}

func (t *timedCtrl) Tick(now time.Duration) {
	t0 := time.Now()
	t.c.Tick(now)
	t.done(mTick, t0)
}

func (t *timedCtrl) Allowance(now time.Duration, inflight int) int {
	t0 := time.Now()
	n := t.c.Allowance(now, inflight)
	t.done(mAllowance, t0)
	return n
}

func (t *timedCtrl) SendTag() int {
	t0 := time.Now()
	n := t.c.SendTag()
	t.done(mSendTag, t0)
	return n
}

func (t *timedCtrl) OnSend(now time.Duration, seq int64, inflight int) {
	t0 := time.Now()
	t.c.OnSend(now, seq, inflight)
	t.done(mOnSend, t0)
}

// record writes the seams' totals into a round's per-layer values.
// runS is the wall time of the traced run phases; netsim.self_s is what is
// left of it once every timed child seam is subtracted (event heap, host
// ack/loss/RTO logic and link service).
func (tp *tap) record(layer map[string]float64, runS float64) {
	if tp == nil {
		return
	}
	send := tp.outer
	if tp.inner.calls > 0 {
		send = tp.inner
		layer["faults.send_s"] = tp.outer.seconds() - tp.inner.seconds()
	}
	layer["netsim.link_send_calls"] = float64(send.calls)
	layer["netsim.link_send_s"] = send.seconds()
	layer["netsim.deliver_calls"] = float64(tp.deliver.calls)
	layer["netsim.deliver_s"] = tp.deliver.seconds()
	children := tp.outer.seconds() + tp.deliver.seconds()
	for fam, s := range tp.ctrl {
		layer[fam+".calls"] = float64(s.calls)
		layer[fam+".busy_s"] = s.seconds()
		children += s.seconds()
	}
	for m, n := range tp.methods {
		layer[methodMetrics[m]] = float64(n)
	}
	if tp.outer.calls > 0 || tp.deliver.calls > 0 {
		layer["netsim.self_s"] = runS - children
	}
}
