// Package host is the I/O-free half of a congestion-controlled sender: the
// duties the cc.Controller interface leaves out. A Window does the paper
// prototype's sequencing, ack matching, RTT estimation and loss detection
// (§5.2: a packet is lost after DupThresh later acks or a 3×SRTT timer),
// and the retransmission timeout with exponential backoff.
//
// netsim.Source and transport.Sender both drive one Window, so a controller
// meets the same host in emulation and over real sockets. A Window never
// calls the controller; its caller does, in the order results come back.
package host

import (
	"fmt"
	"time"

	"repro/internal/snap"
)

const (
	// DupThresh is the number of later acks after which a missing packet
	// is declared lost (TCP's three duplicate ACKs).
	DupThresh = 3
	// MinRTO and MaxRTO clamp the retransmission timeout. MaxRTO must
	// comfortably exceed the deepest bufferbloat delay (multi-second on
	// cellular links, §2), or flows livelock in spurious-timeout loops.
	MinRTO = 200 * time.Millisecond
	MaxRTO = 60 * time.Second
	// MaxRetx is how often the transport resends one seq before giving up
	// on it; the stream is a full-buffer source anyway.
	MaxRetx = 3
)

// Entry is one unacknowledged packet.
type Entry struct {
	Seq    int64
	SentAt time.Duration
	Window int // the controller's send tag (cc.Controller.SendTag)
	Retx   int // times resent (see Resend)
	// ackedAfter counts acks of higher seqs since the send.
	ackedAfter int
}

// Window is a sender's unacknowledged packets plus its RTT estimator and
// retransmission-timeout state. The zero value is ready; call Start when
// the flow begins sending.
type Window struct {
	nextSeq  int64
	pending  []Entry // ordered by seq; by value, so tracking allocates nothing steady-state
	srtt     time.Duration
	rttvar   time.Duration
	lastProg time.Duration // last forward progress, for the RTO
	backoff  int           // consecutive RTOs without progress
	lost     []Entry       // DetectLosses result, reused
}

// Start marks now as the last progress, so the first RTO counts from it.
func (w *Window) Start(now time.Duration) { w.lastProg = now }

// NextSeq returns the seq the next Send records.
func (w *Window) NextSeq() int64 { return w.nextSeq }

// Inflight returns the number of unacknowledged packets.
func (w *Window) Inflight() int { return len(w.pending) }

// Backoff returns the number of consecutive RTOs without ack progress.
func (w *Window) Backoff() int { return w.backoff }

// Send records packet NextSeq as sent now under send tag window.
func (w *Window) Send(now time.Duration, window int) {
	w.pending = append(w.pending, Entry{Seq: w.nextSeq, SentAt: now, Window: window})
	w.nextSeq++
}

// Ack matches an ack of seq arriving now. A pending seq leaves the window,
// feeds its RTT to the estimator, resets the backoff, and comes back with
// its RTT. An ack of a seq acked, lost or never sent returns ok == false.
func (w *Window) Ack(now time.Duration, seq int64) (e Entry, rtt time.Duration, ok bool) {
	idx := -1
	for i := range w.pending {
		if w.pending[i].Seq == seq {
			idx = i
			break
		}
		if w.pending[i].Seq > seq {
			break
		}
	}
	if idx < 0 {
		return Entry{}, 0, false
	}
	e = w.pending[idx]
	w.pending = append(w.pending[:idx], w.pending[idx+1:]...)
	rtt = now - e.SentAt
	w.updateRTT(rtt)
	w.lastProg = now
	w.backoff = 0
	return e, rtt, true
}

// DetectLosses applies the loss rules after the ack of ackedSeq: each
// pending packet below it is acked past once more and lost at DupThresh,
// and one acked past at least once is lost after more than 3×SRTT out.
// Lost packets leave the window and return in seq order, in a slice the
// next call reuses.
func (w *Window) DetectLosses(now time.Duration, ackedSeq int64) []Entry {
	timerCut := 3 * w.srtt
	w.lost = w.lost[:0]
	kept := w.pending[:0]
	// Index iteration so ackedAfter++ mutates in place; the kept compaction
	// writes at an index ≤ the read index, so the in-place append is safe.
	for i := range w.pending {
		e := &w.pending[i]
		lost := false
		if e.Seq < ackedSeq {
			e.ackedAfter++
			lost = e.ackedAfter >= DupThresh
		}
		if !lost && w.srtt > 0 && now-e.SentAt > timerCut && e.ackedAfter > 0 {
			lost = true
		}
		if lost {
			w.lost = append(w.lost, *e)
		} else {
			kept = append(kept, *e)
		}
	}
	w.pending = kept
	return w.lost
}

// Resend re-inserts lost entry e in seq order, resent now under send tag
// window.
func (w *Window) Resend(now time.Duration, e Entry, window int) {
	pos := len(w.pending)
	for i := range w.pending {
		if w.pending[i].Seq > e.Seq {
			pos = i
			break
		}
	}
	w.pending = append(w.pending, Entry{})
	copy(w.pending[pos+1:], w.pending[pos:])
	w.pending[pos] = Entry{Seq: e.Seq, SentAt: now, Window: window, Retx: e.Retx + 1}
}

// RTO returns the retransmission timeout: 1 s before any RTT sample, then
// 2×SRTT + 4×RTTVAR, doubled per consecutive timeout and clamped to
// [MinRTO, MaxRTO]. The 2×SRTT tolerates the RTT doubling within one round
// that slow start over a filling buffer produces; RTTVAR alone lags it.
func (w *Window) RTO() time.Duration {
	r := time.Second
	if w.srtt != 0 {
		r = 2*w.srtt + 4*w.rttvar
	}
	for i := 0; i < w.backoff && r < MaxRTO; i++ {
		r *= 2
	}
	return min(max(r, MinRTO), MaxRTO)
}

// Timeout fires the RTO if packets are pending and no ack made progress for
// RTO: the whole window is presumed lost, and the backoff grows. It reports
// whether the timeout fired.
func (w *Window) Timeout(now time.Duration) bool {
	if len(w.pending) == 0 || now-w.lastProg < w.RTO() {
		return false
	}
	w.pending = w.pending[:0]
	w.lastProg = now
	w.backoff++
	return true
}

// updateRTT is RFC 6298 smoothing.
func (w *Window) updateRTT(rtt time.Duration) {
	if w.srtt == 0 {
		w.srtt = rtt
		w.rttvar = rtt / 2
		return
	}
	diff := w.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	w.rttvar = (3*w.rttvar + diff) / 4
	w.srtt = (7*w.srtt + rtt) / 8
}

// Snapshot writes the window state.
func (w *Window) Snapshot(e *snap.Encoder) {
	e.Tag("window")
	e.I64(w.nextSeq)
	e.U32(uint32(len(w.pending)))
	for _, p := range w.pending {
		e.I64(p.Seq)
		e.Dur(p.SentAt)
		e.Int(p.Window)
		e.Int(p.Retx)
		e.Int(p.ackedAfter)
	}
	e.Dur(w.srtt)
	e.Dur(w.rttvar)
	e.Dur(w.lastProg)
	e.Int(w.backoff)
}

// Restore replaces the window state with a snapshot. Entries out of
// ascending seq order below the next seq fail the decoder, and a failed
// restore leaves the window unchanged.
func (w *Window) Restore(d *snap.Decoder) {
	d.Expect("window")
	r := Window{nextSeq: d.I64(), lost: w.lost}
	n := int(d.U32())
	for i := 0; i < n && d.Err() == nil; i++ {
		p := Entry{Seq: d.I64(), SentAt: d.Dur(), Window: d.Int(), Retx: d.Int(), ackedAfter: d.Int()}
		if p.Seq >= r.nextSeq || (i > 0 && p.Seq <= r.pending[i-1].Seq) {
			d.Fail(fmt.Errorf("host: window snapshot entry %d has seq %d out of order (next seq %d)", i, p.Seq, r.nextSeq))
		}
		r.pending = append(r.pending, p)
	}
	r.srtt, r.rttvar, r.lastProg, r.backoff = d.Dur(), d.Dur(), d.Dur(), d.Int()
	if d.Err() == nil {
		*w = r
	}
}
