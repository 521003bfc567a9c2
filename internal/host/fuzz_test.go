package host

import (
	"encoding/binary"
	"testing"
	"time"
)

// FuzzWindow drives a Window with an adversarial op stream — acks of
// far-future, duplicate, negative and already-lost seqs, acks after a
// timeout, resends and arbitrary time steps — and checks it against a
// model set of live seqs: no panic, pending entries stay in strictly
// ascending seq order below NextSeq, Ack matches exactly the live seqs, and
// Inflight equals the live count.
//
// Each op is 9 bytes: a kind byte and a big-endian int64 argument.
func FuzzWindow(f *testing.F) {
	op := func(kind byte, arg int64) []byte {
		b := make([]byte, 9)
		b[0] = kind
		binary.BigEndian.PutUint64(b[1:], uint64(arg))
		return b
	}
	cat := func(ops ...[]byte) []byte {
		var out []byte
		for _, o := range ops {
			out = append(out, o...)
		}
		return out
	}
	f.Add(cat(op(0, 5), op(1, 0), op(1, 2), op(1, 3), op(1, 4), op(4, 0)))
	f.Add(cat(op(0, 4), op(1, 1<<62), op(1, -1), op(1, 0), op(1, 0), op(2, 2_000_000_000), op(3, 0), op(1, 1)))
	f.Add(cat(op(0, 8), op(1, 7), op(5, 1), op(1, 6), op(1, 5), op(4, 0), op(1, 3), op(4, 0)))
	f.Add(cat(op(0, 3), op(2, 100_000_000), op(1, 2), op(2, int64(time.Hour)), op(1, 1), op(3, 0), op(1, 0)))

	f.Fuzz(func(t *testing.T, data []byte) {
		var w Window
		live := map[int64]bool{}
		var lost []Entry
		now := time.Duration(0)
		w.Start(now)
		for len(data) >= 9 {
			kind, arg := data[0], int64(binary.BigEndian.Uint64(data[1:9]))
			data = data[9:]
			switch kind % 6 {
			case 0: // send up to 16 packets
				for i := int64(0); i < arg&15; i++ {
					live[w.NextSeq()] = true
					w.Send(now, int(arg>>4))
				}
			case 1: // ack an arbitrary seq, then detect losses
				_, rtt, ok := w.Ack(now, arg)
				if ok != live[arg] {
					t.Fatalf("Ack(%d) = %v, model says live = %v", arg, ok, live[arg])
				}
				if !ok {
					break
				}
				if rtt < 0 {
					t.Fatalf("negative RTT %v for seq %d", rtt, arg)
				}
				delete(live, arg)
				lost = append(lost[:0], w.DetectLosses(now, arg)...)
				for i, l := range lost {
					if !live[l.Seq] || (i > 0 && l.Seq <= lost[i-1].Seq) {
						t.Fatalf("DetectLosses returned seq %d out of order or not live", l.Seq)
					}
					delete(live, l.Seq)
				}
			case 2: // advance time, at most an hour per step
				now += time.Duration(uint64(arg) % uint64(time.Hour))
			case 3: // RTO poll
				if w.Timeout(now) {
					clear(live)
				}
			case 4: // resend the last batch of losses
				for _, l := range lost {
					if live[l.Seq] {
						continue // already resent
					}
					live[l.Seq] = true
					w.Resend(now, l, int(arg))
				}
			case 5: // RTO stays in its clamp
				if r := w.RTO(); r < MinRTO || r > MaxRTO {
					t.Fatalf("RTO %v outside [%v, %v]", r, MinRTO, MaxRTO)
				}
			}
			if w.Inflight() != len(live) {
				t.Fatalf("Inflight() = %d, model has %d live", w.Inflight(), len(live))
			}
			for i, p := range w.pending {
				if !live[p.Seq] || p.Seq >= w.NextSeq() || (i > 0 && p.Seq <= w.pending[i-1].Seq) {
					t.Fatalf("pending[%d] seq %d: live %v, next %d, window %+v", i, p.Seq, live[p.Seq], w.NextSeq(), w.pending)
				}
			}
		}
	})
}
