package host

import (
	"time"

	"repro/internal/cc"
)

// This file keeps the two host loops that predate Window — the simulator
// source's and the UDP sender's — as test-only reference implementations.
// They are the linear-scan originals with their I/O cut away: the simulator
// loop without packets and metrics, the transport loop with a fakeWire in
// place of its socket. The differential test drives them and Window-based
// hosts with the same scripts and demands identical controller call logs.

// refSimHost is the simulator source's original host logic.
type refSimHost struct {
	ctrl     cc.Controller
	nextSeq  int64
	inflight []refOutstanding
	srtt     time.Duration
	rttvar   time.Duration
	lastProg time.Duration
	backoff  int
}

type refOutstanding struct {
	seq        int64
	sentAt     time.Duration
	window     int
	ackedAfter int
}

func (s *refSimHost) start(now time.Duration) {
	s.lastProg = now
	s.trySend(now)
}

func (s *refSimHost) trySend(now time.Duration) {
	n := s.ctrl.Allowance(now, len(s.inflight))
	for i := 0; i < n; i++ {
		seq, tag := s.nextSeq, s.ctrl.SendTag()
		s.nextSeq++
		s.inflight = append(s.inflight, refOutstanding{seq: seq, sentAt: now, window: tag})
		s.ctrl.OnSend(now, seq, len(s.inflight))
	}
}

func (s *refSimHost) onAck(now time.Duration, seq int64) {
	idx := -1
	for i, o := range s.inflight {
		if o.seq == seq {
			idx = i
			break
		}
		if o.seq > seq {
			break
		}
	}
	if idx < 0 {
		return
	}
	o := s.inflight[idx]
	s.inflight = append(s.inflight[:idx], s.inflight[idx+1:]...)
	rtt := now - o.sentAt
	s.updateRTT(rtt)
	s.lastProg = now
	s.backoff = 0
	s.ctrl.OnAck(now, cc.AckSample{Seq: seq, RTT: rtt, SentWindow: o.window, Bytes: testBytes})
	s.detectLosses(now, seq)
	s.trySend(now)
}

func (s *refSimHost) detectLosses(now time.Duration, ackedSeq int64) {
	timerCut := 3 * s.srtt
	kept := s.inflight[:0]
	for i := range s.inflight {
		o := &s.inflight[i]
		lost := false
		if o.seq < ackedSeq {
			o.ackedAfter++
			if o.ackedAfter >= 3 {
				lost = true
			}
		}
		if !lost && s.srtt > 0 && now-o.sentAt > timerCut && o.ackedAfter > 0 {
			lost = true
		}
		if lost {
			s.ctrl.OnLoss(now, cc.LossEvent{Seq: o.seq, SentWindow: o.window})
			continue
		}
		kept = append(kept, *o)
	}
	s.inflight = kept
}

func (s *refSimHost) updateRTT(rtt time.Duration) {
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttvar = rtt / 2
		return
	}
	diff := s.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	s.rttvar = (3*s.rttvar + diff) / 4
	s.srtt = (7*s.srtt + rtt) / 8
}

func (s *refSimHost) rto() time.Duration {
	r := time.Second
	if s.srtt != 0 {
		r = 2*s.srtt + 4*s.rttvar
	}
	for i := 0; i < s.backoff && r < 60*time.Second; i++ {
		r *= 2
	}
	if r < 200*time.Millisecond {
		r = 200 * time.Millisecond
	}
	if r > 60*time.Second {
		r = 60 * time.Second
	}
	return r
}

func (s *refSimHost) checkRTO(now time.Duration) {
	if len(s.inflight) == 0 {
		return
	}
	if now-s.lastProg < s.rto() {
		return
	}
	s.inflight = s.inflight[:0]
	s.lastProg = now
	s.backoff++
	s.ctrl.OnTimeout(now)
	s.trySend(now)
}

// refUDPHost is the UDP sender's original event-loop logic, with its
// pointer-per-packet pending list and insertion-shift retransmit.
type refUDPHost struct {
	ctrl     cc.Controller
	wire     *fakeWire
	nextSeq  int64
	pending  []*refPendingPkt
	srtt     time.Duration
	rttvar   time.Duration
	lastProg time.Duration
	backoff  int
	capped   int // losses not resent because of the cap (test coverage)
}

type refPendingPkt struct {
	seq        int64
	sentAt     time.Duration
	window     int
	ackedAfter int
	retx       int
}

func (s *refUDPHost) start(now time.Duration) {
	s.lastProg = now
	s.trySend(now)
}

func (s *refUDPHost) trySend(now time.Duration) {
	n := s.ctrl.Allowance(now, len(s.pending))
	for i := 0; i < n; i++ {
		seq, tag := s.nextSeq, s.ctrl.SendTag()
		if !s.wire.write(seq, tag) {
			return
		}
		s.pending = append(s.pending, &refPendingPkt{seq: seq, sentAt: now, window: tag})
		s.nextSeq++
		s.ctrl.OnSend(now, seq, len(s.pending))
	}
}

func (s *refUDPHost) handleAck(now time.Duration, seq int64) {
	idx := -1
	for i, p := range s.pending {
		if p.seq == seq {
			idx = i
			break
		}
		if p.seq > seq {
			break
		}
	}
	if idx < 0 {
		return
	}
	p := s.pending[idx]
	s.pending = append(s.pending[:idx], s.pending[idx+1:]...)
	rtt := now - p.sentAt
	s.updateRTT(rtt)
	s.lastProg = now
	s.backoff = 0
	s.ctrl.OnAck(now, cc.AckSample{Seq: seq, RTT: rtt, SentWindow: p.window, Bytes: testBytes})
	s.detectLosses(now, seq)
}

func (s *refUDPHost) detectLosses(now time.Duration, ackedSeq int64) {
	timerCut := 3 * s.srtt
	kept := s.pending[:0]
	var lost []*refPendingPkt
	for _, p := range s.pending {
		isLost := false
		if p.seq < ackedSeq {
			p.ackedAfter++
			if p.ackedAfter >= 3 {
				isLost = true
			}
		}
		if !isLost && s.srtt > 0 && now-p.sentAt > timerCut && p.ackedAfter > 0 {
			isLost = true
		}
		if isLost {
			lost = append(lost, p)
			continue
		}
		kept = append(kept, p)
	}
	s.pending = kept
	for _, p := range lost {
		s.ctrl.OnLoss(now, cc.LossEvent{Seq: p.seq, SentWindow: p.window})
		s.retransmit(p, now)
	}
}

func (s *refUDPHost) retransmit(p *refPendingPkt, now time.Duration) {
	if p.retx >= 3 {
		s.capped++
		return
	}
	tag := s.ctrl.SendTag()
	if !s.wire.write(p.seq, tag) {
		return
	}
	np := &refPendingPkt{seq: p.seq, sentAt: now, window: tag, retx: p.retx + 1}
	pos := len(s.pending)
	for i, q := range s.pending {
		if q.seq > np.seq {
			pos = i
			break
		}
	}
	s.pending = append(s.pending, nil)
	copy(s.pending[pos+1:], s.pending[pos:])
	s.pending[pos] = np
}

func (s *refUDPHost) updateRTT(rtt time.Duration) {
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttvar = rtt / 2
		return
	}
	diff := s.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	s.rttvar = (3*s.rttvar + diff) / 4
	s.srtt = (7*s.srtt + rtt) / 8
}

func (s *refUDPHost) rto() time.Duration {
	r := time.Second
	if s.srtt != 0 {
		r = 2*s.srtt + 4*s.rttvar
	}
	for i := 0; i < s.backoff && r < 60*time.Second; i++ {
		r *= 2
	}
	if r < 200*time.Millisecond {
		r = 200 * time.Millisecond
	}
	if r > 60*time.Second {
		r = 60 * time.Second
	}
	return r
}

func (s *refUDPHost) checkTimers(now time.Duration) {
	if len(s.pending) == 0 {
		return
	}
	if now-s.lastProg < s.rto() {
		return
	}
	s.pending = s.pending[:0]
	s.lastProg = now
	s.backoff++
	s.ctrl.OnTimeout(now)
}
