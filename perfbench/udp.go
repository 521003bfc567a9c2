package main

import (
	"fmt"
	"time"

	"repro/internal/cc"
	"repro/internal/transport"
	"repro/internal/verus"
)

// udpTransfer is the wall time one Verus sender streams to the receiver.
const udpTransfer = 3 * time.Second

// udpRateMbps is the offered load. Unpaced, Verus on loopback is limited
// only by how much CPU the host grants the process: its goodput ranged from
// 64 to 176 Mbps between runs of the same code on a shared 2-core host, and
// the work a draw does ranged with it. Capped at 50 Mbps, Verus's own window
// still held some draws at 35 or 43 Mbps. At 20 Mbps the cap always binds,
// every draw does the same work, and cpu_s and the RTT measure its cost.
const udpRateMbps = 20

// pacedCtrl caps a controller's allowance with a token bucket at a fixed
// rate; the controller still sees every ack, loss and tick.
type pacedCtrl struct {
	cc.Controller
	pktsPerSec float64
	tokens     float64
	last       time.Duration
}

// pacingBurst bounds the tokens saved up between allowance calls, in
// packets. The sender asks for an allowance on every ack and every tick, and
// on a loaded host ticks arrive late; a burst of many ticks' worth keeps
// late ticks from losing tokens, so the achieved rate stays at the paced one.
const pacingBurst = 256

func newPacedCtrl(c cc.Controller, mbps float64, pktBytes int) *pacedCtrl {
	return &pacedCtrl{Controller: c, pktsPerSec: mbps * 1e6 / 8 / float64(pktBytes)}
}

func (p *pacedCtrl) Allowance(now time.Duration, inflight int) int {
	p.tokens = min(pacingBurst, p.tokens+(now-p.last).Seconds()*p.pktsPerSec)
	p.last = now
	return min(p.Controller.Allowance(now, inflight), int(p.tokens))
}

func (p *pacedCtrl) OnSend(now time.Duration, seq int64, inflight int) {
	p.tokens--
	p.Controller.OnSend(now, seq, inflight)
}

// udpConnect opens the receiver and dials it with a Verus controller,
// wrapped by tp when tracing.
func udpConnect(seed int64, tp *tap) (*transport.Receiver, *transport.Sender, *verus.Verus, error) {
	rx, err := transport.NewReceiver("127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	v := verus.New(verus.DefaultConfig())
	cfg := transport.DefaultSenderConfig()
	cfg.HandshakeSeed = seed // jitter of handshake retries, the transfer's only random input
	paced := newPacedCtrl(tp.controller(v), udpRateMbps, cfg.PayloadBytes)
	tx, err := transport.Dial(rx.Addr().String(), paced, cfg)
	if err != nil {
		rx.Close()
		return nil, nil, nil, err // a handshake failure wraps transport.ErrHandshakeFailed
	}
	return rx, tx, v, nil
}

// udpSetup is one set-up: receiver socket, Dial and its handshake, then
// both ends closed again.
func udpSetup(seed int64, _ float64) {
	rx, tx, _, err := udpConnect(seed, nil)
	if err != nil {
		panic(err)
	}
	if err := tx.Close(); err != nil {
		panic(err)
	}
	if err := rx.Close(); err != nil {
		panic(err)
	}
}

// udpRun streams from one transport.Sender driven by Verus to one
// transport.Receiver over 127.0.0.1 for a fixed wall time. The run is the
// transfer and the close of both ends.
func udpRun(seed int64, scale float64, tp *tap) drawResult {
	rr := drawResult{layer: map[string]float64{}}
	var t trialOut
	if err := guard(func() {
		rx, tx, v, err := udpConnect(seed, tp)
		if err != nil {
			t.err = err
			return
		}
		defer rx.Close()

		m := startMeter()
		time.Sleep(time.Duration(float64(udpTransfer) * scale))
		closeErr := tx.Close()
		rxErr := rx.Close()
		rr.cost.add(m.end())
		if closeErr != nil || rxErr != nil {
			t.err = fmt.Errorf("close: sender %v, receiver %v", closeErr, rxErr)
			return
		}
		select {
		case err := <-tx.Errors():
			t.err = err // a stall or a failed socket operation
			return
		default:
		}

		ss, rs := tx.Stats(), rx.Stats()
		rr.pkts = rs.UniquePackets
		rr.q.goodputMbps = rs.MeanMbps()
		rr.q.verusMbps = rr.q.goodputMbps
		rr.q.rttP50ms = 1000 * ss.RTT.Percentile(50)
		rr.q.verusDelayP95ms = 1000 * ss.RTT.Percentile(95)
		// The RTT tail is reported by the traced run only: on a shared host
		// it follows the machine's scheduling load from run to run.
		rr.layer["transport.rtt_p99_ms"] = 1000 * ss.RTT.Percentile(99)
		epochs, _, _, refits := v.Stats()
		for name, x := range map[string]int64{
			"transport.sent": ss.Sent, "transport.acked": ss.Acked, "transport.retransmits": ss.Retransmits,
			"transport.losses": ss.Losses, "transport.timeouts": ss.Timeouts, "transport.unique_pkts": rs.UniquePackets,
			"verus.epochs": epochs, "verus.refits": refits,
		} {
			rr.layer[name] = float64(x)
		}
		// Loopback neither invents nor duplicates packets: every ack answers
		// a distinct packet the receiver took, and nothing arrives unsent.
		switch {
		case ss.Acked == 0:
			t.err = fmt.Errorf("no packet acknowledged in %v", udpTransfer)
		case rs.UniquePackets < ss.Acked || rs.UniquePackets > ss.Sent:
			t.err = fmt.Errorf("%d unique packets received, but %d sent and %d acked", rs.UniquePackets, ss.Sent, ss.Acked)
		case rs.Packets > ss.Sent+ss.Retransmits:
			t.err = fmt.Errorf("%d packets received, but only %d sent and %d retransmitted", rs.Packets, ss.Sent, ss.Retransmits)
		}
	}); err != nil {
		t.err = err
	}
	rr.trials = append(rr.trials, t)
	tp.record(rr.layer, rr.cost.wallS)
	return rr
}
