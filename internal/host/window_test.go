package host

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/snap"
)

// testBytes is the ack size every test host reports.
const testBytes = 1400

// call is one controller invocation with all of its arguments.
type call struct {
	op  string
	now time.Duration
	seq int64
	rtt time.Duration
	tag int
	n   int // Allowance/OnSend inflight, or the ack's bytes
}

// logCtrl is a small AIMD window controller that records every call. Its
// decisions depend only on the calls it has seen, so two hosts that make
// the same calls get the same answers back.
type logCtrl struct {
	cwnd, maxCwnd int
	log           []call
}

func (c *logCtrl) Name() string                { return "log" }
func (c *logCtrl) TickInterval() time.Duration { return 0 }
func (c *logCtrl) Tick(time.Duration)          {}

func (c *logCtrl) OnAck(now time.Duration, a cc.AckSample) {
	c.log = append(c.log, call{op: "ack", now: now, seq: a.Seq, rtt: a.RTT, tag: a.SentWindow, n: a.Bytes})
	c.cwnd = min(c.cwnd+1, c.maxCwnd)
}

func (c *logCtrl) OnLoss(now time.Duration, l cc.LossEvent) {
	c.log = append(c.log, call{op: "loss", now: now, seq: l.Seq, tag: l.SentWindow})
	c.cwnd = max(c.cwnd/2, 1)
}

func (c *logCtrl) OnTimeout(now time.Duration) {
	c.log = append(c.log, call{op: "timeout", now: now})
	c.cwnd = 1
}

func (c *logCtrl) Allowance(now time.Duration, inflight int) int {
	c.log = append(c.log, call{op: "allowance", now: now, n: inflight})
	return max(c.cwnd-inflight, 0)
}

func (c *logCtrl) SendTag() int {
	c.log = append(c.log, call{op: "tag"})
	return c.cwnd
}

func (c *logCtrl) OnSend(now time.Duration, seq int64, inflight int) {
	c.log = append(c.log, call{op: "send", now: now, seq: seq, n: inflight})
}

// fakeWire stands in for the transport's socket: it logs every data
// packet written and fails the writes the script marks.
type fakeWire struct {
	writes []call
	failAt map[int]bool // write index → fail
}

func (w *fakeWire) write(seq int64, tag int) bool {
	i := len(w.writes)
	w.writes = append(w.writes, call{op: "write", seq: seq, tag: tag})
	return !w.failAt[i]
}

// simHost drives a Window the way netsim.Source does.
type simHost struct {
	w    Window
	ctrl cc.Controller
}

func (s *simHost) start(now time.Duration) {
	s.w.Start(now)
	s.trySend(now)
}

func (s *simHost) trySend(now time.Duration) {
	n := s.ctrl.Allowance(now, s.w.Inflight())
	for i := 0; i < n; i++ {
		seq := s.w.NextSeq()
		s.w.Send(now, s.ctrl.SendTag())
		s.ctrl.OnSend(now, seq, s.w.Inflight())
	}
}

func (s *simHost) onAck(now time.Duration, seq int64) {
	o, rtt, ok := s.w.Ack(now, seq)
	if !ok {
		return
	}
	s.ctrl.OnAck(now, cc.AckSample{Seq: seq, RTT: rtt, SentWindow: o.Window, Bytes: testBytes})
	for _, l := range s.w.DetectLosses(now, seq) {
		s.ctrl.OnLoss(now, cc.LossEvent{Seq: l.Seq, SentWindow: l.Window})
	}
	s.trySend(now)
}

func (s *simHost) checkRTO(now time.Duration) {
	if !s.w.Timeout(now) {
		return
	}
	s.ctrl.OnTimeout(now)
	s.trySend(now)
}

// udpHost drives a Window the way transport.Sender does.
type udpHost struct {
	w    Window
	ctrl cc.Controller
	wire *fakeWire
}

func (s *udpHost) start(now time.Duration) {
	s.w.Start(now)
	s.trySend(now)
}

func (s *udpHost) trySend(now time.Duration) {
	n := s.ctrl.Allowance(now, s.w.Inflight())
	for i := 0; i < n; i++ {
		seq, tag := s.w.NextSeq(), s.ctrl.SendTag()
		if !s.wire.write(seq, tag) {
			return
		}
		s.w.Send(now, tag)
		s.ctrl.OnSend(now, seq, s.w.Inflight())
	}
}

func (s *udpHost) handleAck(now time.Duration, seq int64) {
	p, rtt, ok := s.w.Ack(now, seq)
	if !ok {
		return
	}
	s.ctrl.OnAck(now, cc.AckSample{Seq: seq, RTT: rtt, SentWindow: p.Window, Bytes: testBytes})
	for _, l := range s.w.DetectLosses(now, seq) {
		s.ctrl.OnLoss(now, cc.LossEvent{Seq: l.Seq, SentWindow: l.Window})
		if l.Retx >= MaxRetx {
			continue
		}
		tag := s.ctrl.SendTag()
		if !s.wire.write(l.Seq, tag) {
			continue
		}
		s.w.Resend(now, l, tag)
	}
}

func (s *udpHost) checkTimers(now time.Duration) {
	if s.w.Timeout(now) {
		s.ctrl.OnTimeout(now)
	}
}

// Script op kinds.
const (
	opInOrder = iota // ack the script cursor, advance it
	opSkip           // advance the cursor without acking: a missing ack
	opAhead          // ack up to 8 past the cursor: reordering
	opDup            // re-ack up to 8 below the cursor: duplicates
	opFuture         // ack a seq never sent
	opPoll           // RTO poll (the simulator's 10 ms timer, the transport's tick)
	opTick           // controller tick: a send opportunity
	numOps
)

type scriptOp struct {
	kind  int
	dt    time.Duration
	param int64
}

// genScript draws a random script. About one op in 40 jumps seconds ahead
// so RTOs fire and back off.
func genScript(rng *rand.Rand, n int) []scriptOp {
	ops := make([]scriptOp, n)
	for i := range ops {
		dt := time.Duration(rng.Intn(30)) * time.Millisecond
		if rng.Intn(40) == 0 {
			dt = time.Duration(rng.Intn(5000)) * time.Millisecond
		}
		ops[i] = scriptOp{kind: rng.Intn(numOps), dt: dt, param: int64(rng.Intn(9))}
	}
	return ops
}

// scriptHost is the surface a script drives. ack and poll include the
// follow-up send each host performs after the event.
type scriptHost interface {
	start(now time.Duration)
	ack(now time.Duration, seq int64)
	poll(now time.Duration)
	tick(now time.Duration)
	nextSeq() int64
}

func runScript(h scriptHost, ops []scriptOp) {
	now := 50 * time.Millisecond
	h.start(now)
	var cursor int64
	for _, op := range ops {
		now += op.dt
		switch op.kind {
		case opInOrder:
			h.ack(now, cursor)
			cursor++
		case opSkip:
			cursor++
		case opAhead:
			h.ack(now, cursor+op.param)
		case opDup:
			h.ack(now, cursor-op.param)
		case opFuture:
			h.ack(now, h.nextSeq()+op.param)
		case opPoll:
			h.poll(now)
		case opTick:
			h.tick(now)
		}
		cursor = min(cursor, h.nextSeq())
	}
}

// Adapters from each host to scriptHost. The simulator acks through
// onAck, which sends only after a matched ack; the transport's event loop
// sends after every ack and every tick.
type refSimScript struct{ *refSimHost }

func (h refSimScript) ack(now time.Duration, seq int64) { h.onAck(now, seq) }
func (h refSimScript) poll(now time.Duration)           { h.checkRTO(now) }
func (h refSimScript) tick(now time.Duration)           { h.trySend(now) }
func (h refSimScript) nextSeq() int64                   { return h.refSimHost.nextSeq }

type simScript struct{ *simHost }

func (h simScript) ack(now time.Duration, seq int64) { h.onAck(now, seq) }
func (h simScript) poll(now time.Duration)           { h.checkRTO(now) }
func (h simScript) tick(now time.Duration)           { h.trySend(now) }
func (h simScript) nextSeq() int64                   { return h.w.NextSeq() }

type refUDPScript struct{ *refUDPHost }

func (h refUDPScript) ack(now time.Duration, seq int64) { h.handleAck(now, seq); h.trySend(now) }
func (h refUDPScript) poll(now time.Duration)           { h.checkTimers(now); h.trySend(now) }
func (h refUDPScript) tick(now time.Duration)           { h.trySend(now) }
func (h refUDPScript) nextSeq() int64                   { return h.refUDPHost.nextSeq }

type udpScript struct{ *udpHost }

func (h udpScript) ack(now time.Duration, seq int64) { h.handleAck(now, seq); h.trySend(now) }
func (h udpScript) poll(now time.Duration)           { h.checkTimers(now); h.trySend(now) }
func (h udpScript) tick(now time.Duration)           { h.trySend(now) }
func (h udpScript) nextSeq() int64                   { return h.w.NextSeq() }

func firstDiff(a, b []call) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestWindowMatchesReferenceHosts is the differential test: for seeded
// random scripts of sends, in-order, reordered, duplicate, missing and
// never-sent acks, and RTO polls, a Window-based host must make exactly
// the controller calls the original linear host made, with the same
// arguments, and the transport host must write exactly the same data and
// retransmit packets (including when the resend cap binds and when writes
// fail).
func TestWindowMatchesReferenceHosts(t *testing.T) {
	var losses, timeouts, capped, failed int
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		maxCwnd := 4 + rng.Intn(60)
		ops := genScript(rng, 600)
		failAt := map[int]bool{}
		for i := 0; i < 5; i++ {
			failAt[rng.Intn(400)] = true
		}

		refC, newC := &logCtrl{cwnd: 2, maxCwnd: maxCwnd}, &logCtrl{cwnd: 2, maxCwnd: maxCwnd}
		runScript(refSimScript{&refSimHost{ctrl: refC}}, ops)
		runScript(simScript{&simHost{ctrl: newC}}, ops)
		if !slices.Equal(refC.log, newC.log) {
			i := firstDiff(refC.log, newC.log)
			t.Fatalf("seed %d: simulator host diverges at call %d of %d/%d", seed, i, len(refC.log), len(newC.log))
		}

		refC, newC = &logCtrl{cwnd: 2, maxCwnd: maxCwnd}, &logCtrl{cwnd: 2, maxCwnd: maxCwnd}
		refW, newW := &fakeWire{failAt: failAt}, &fakeWire{failAt: failAt}
		ref := &refUDPHost{ctrl: refC, wire: refW}
		runScript(refUDPScript{ref}, ops)
		runScript(udpScript{&udpHost{ctrl: newC, wire: newW}}, ops)
		if !slices.Equal(refC.log, newC.log) {
			i := firstDiff(refC.log, newC.log)
			t.Fatalf("seed %d: transport host diverges at call %d of %d/%d", seed, i, len(refC.log), len(newC.log))
		}
		if !slices.Equal(refW.writes, newW.writes) {
			i := firstDiff(refW.writes, newW.writes)
			t.Fatalf("seed %d: transport writes diverge at write %d of %d/%d", seed, i, len(refW.writes), len(newW.writes))
		}

		for _, c := range refC.log {
			switch c.op {
			case "loss":
				losses++
			case "timeout":
				timeouts++
			}
		}
		capped += ref.capped
		for i := range refW.writes {
			if failAt[i] {
				failed++
			}
		}
	}
	// The scripts must actually reach every branch being compared.
	if losses == 0 || timeouts == 0 || capped == 0 || failed == 0 {
		t.Fatalf("scripts too tame: %d losses, %d timeouts, %d losses past the resend cap, %d failed writes",
			losses, timeouts, capped, failed)
	}
	t.Logf("compared %d losses, %d timeouts, %d losses past the resend cap, %d failed writes",
		losses, timeouts, capped, failed)
}

func TestRTOClampUnderBackoff(t *testing.T) {
	var w Window
	if got := w.RTO(); got != time.Second {
		t.Fatalf("RTO before any sample = %v, want 1s", got)
	}
	// A 1 ms RTT gives 2·srtt + 4·rttvar = 4 ms, clamped up to MinRTO.
	w.Send(0, 1)
	w.Ack(time.Millisecond, 0)
	if got := w.RTO(); got != MinRTO {
		t.Fatalf("RTO after a 1 ms sample = %v, want MinRTO %v", got, MinRTO)
	}
	// Each timeout doubles the RTO from 4 ms: the clamp stays at MinRTO
	// until 4 ms·2^k exceeds it, then grows by doubling until MaxRTO.
	now := time.Millisecond
	want := []time.Duration{MinRTO, MinRTO, MinRTO, MinRTO, MinRTO, MinRTO, 256 * time.Millisecond, 512 * time.Millisecond}
	for k := 1; k < 30; k++ {
		w.Send(now, 1)
		now += w.RTO()
		if !w.Timeout(now) {
			t.Fatalf("timeout %d did not fire after a full RTO", k)
		}
		if w.Backoff() != k {
			t.Fatalf("backoff = %d after %d timeouts", w.Backoff(), k)
		}
		got := w.RTO()
		switch {
		case k < len(want) && got != want[k]:
			t.Fatalf("RTO after %d timeouts = %v, want %v", k, got, want[k])
		case got < MinRTO || got > MaxRTO:
			t.Fatalf("RTO after %d timeouts = %v, outside [%v, %v]", k, got, MinRTO, MaxRTO)
		case k >= 14 && got != MaxRTO:
			t.Fatalf("RTO after %d timeouts = %v, want MaxRTO", k, got)
		}
	}
	// Progress resets the backoff.
	w.Send(now, 1)
	w.Ack(now+time.Millisecond, w.NextSeq()-1)
	if w.Backoff() != 0 || w.RTO() > MaxRTO/2 {
		t.Fatalf("after an ack: backoff %d, RTO %v", w.Backoff(), w.RTO())
	}
	// A poll before the RTO elapses, or with nothing pending, never fires.
	if w.Timeout(now + MaxRTO) {
		t.Fatal("timeout fired with an empty window")
	}
}

// busyWindow returns a window with pending, acked, lost and resent
// packets and a live RTT estimate.
func busyWindow() *Window {
	w := &Window{}
	w.Start(5 * time.Millisecond)
	now := 10 * time.Millisecond
	for i := 0; i < 20; i++ {
		w.Send(now, i%7)
		now += time.Millisecond
	}
	for _, seq := range []int64{3, 4, 5, 9} {
		now += 40 * time.Millisecond
		w.Ack(now, seq)
		for _, l := range w.DetectLosses(now, seq) {
			w.Resend(now, l, 42)
		}
	}
	return w
}

func TestWindowSnapshotRoundTrip(t *testing.T) {
	w := busyWindow()
	e := snap.NewEncoder()
	w.Snapshot(e)
	data, err := e.Encode(snap.Version)
	if err != nil {
		t.Fatal(err)
	}
	d, err := snap.Decode(data, snap.Version)
	if err != nil {
		t.Fatal(err)
	}
	var got Window
	got.Restore(d)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	w.lost, got.lost = nil, nil
	if !reflect.DeepEqual(*w, got) {
		t.Fatalf("restored window differs:\n got %+v\nwant %+v", got, *w)
	}
	resent := 0
	for _, p := range got.pending {
		if p.Retx > 0 {
			resent++
		}
	}
	if resent == 0 {
		t.Fatal("fixture has no resent entries; the round trip does not cover Retx")
	}
}

func TestWindowRestoreRejectsDisorder(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Window)
	}{
		{"descending", func(w *Window) { w.pending[0].Seq, w.pending[1].Seq = w.pending[1].Seq, w.pending[0].Seq }},
		{"duplicate", func(w *Window) { w.pending[1].Seq = w.pending[0].Seq }},
		{"beyond-next", func(w *Window) { w.pending[len(w.pending)-1].Seq = w.nextSeq }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := busyWindow()
			tc.mut(src)
			e := snap.NewEncoder()
			src.Snapshot(e)
			data, err := e.Encode(snap.Version)
			if err != nil {
				t.Fatal(err)
			}
			d, err := snap.Decode(data, snap.Version)
			if err != nil {
				t.Fatal(err)
			}
			dst := busyWindow()
			before := *dst
			before.pending = slices.Clone(dst.pending)
			dst.Restore(d)
			if d.Err() == nil {
				t.Fatal("disordered window snapshot accepted")
			}
			if !reflect.DeepEqual(before, *dst) {
				t.Fatal("rejected restore mutated the window")
			}
		})
	}
}

// TestWindowSteadyStateAllocs pins the host's share of the 0 allocs/packet
// contract: once the window's buffers have grown, sending, acking and loss
// detection allocate nothing.
func TestWindowSteadyStateAllocs(t *testing.T) {
	var w Window
	now := time.Duration(0)
	step := func() {
		for i := 0; i < 8; i++ {
			w.Send(now, 1)
		}
		now += time.Millisecond
		// Ack every other packet, so the ones between go lost.
		for seq := w.NextSeq() - 8; seq < w.NextSeq(); seq += 2 {
			if _, _, ok := w.Ack(now, seq); ok {
				w.DetectLosses(now, seq)
			}
		}
		w.Timeout(now)
	}
	for i := 0; i < 100; i++ {
		step()
	}
	if a := testing.AllocsPerRun(200, step); a != 0 {
		t.Fatalf("steady-state window step allocates %.1f times, want 0", a)
	}
}

// TestLossRules pins both loss rules at their boundaries: DupThresh later
// acks, and the 3×SRTT timer, which needs one later ack and strictly more
// than 3×SRTT outstanding.
func TestLossRules(t *testing.T) {
	var w Window
	for i := 0; i < 6; i++ {
		w.Send(0, 1)
	}
	// One 10 ms sample makes SRTT exactly 10 ms, so the timer cut is 30 ms.
	w.Ack(10*time.Millisecond, 1)
	if l := w.DetectLosses(10*time.Millisecond, 1); len(l) != 0 {
		t.Fatalf("lost %v after one later ack", l)
	}
	if l := w.DetectLosses(30*time.Millisecond, 1); len(l) != 0 {
		t.Fatalf("lost %v at exactly 3×SRTT", l)
	}
	if l := w.DetectLosses(30*time.Millisecond+1, 1); len(l) != 1 || l[0].Seq != 0 {
		t.Fatalf("timer rule: lost %v, want seq 0", l)
	}
	// Seq 2 was never acked past, so the timer alone cannot declare it lost.
	if l := w.DetectLosses(time.Hour, 2); len(l) != 0 {
		t.Fatalf("lost %v with no later ack", l)
	}
	// In a fresh window, acks of 1, 3 and 4 are three later acks for seq 0,
	// which is lost on the third; at 1 ms the timer rule cannot fire.
	w2 := Window{}
	for i := 0; i < 6; i++ {
		w2.Send(0, 1)
	}
	for k, seq := range []int64{1, 3, 4} {
		w2.Ack(time.Millisecond, seq)
		l := w2.DetectLosses(time.Millisecond, seq)
		if want := k == 2; (len(l) == 1 && l[0].Seq == 0) != want || len(l) > 1 {
			t.Fatalf("after %d later acks lost %v", k+1, l)
		}
	}
}
