package transport

import (
	"math"
	"math/rand"
	"net"
	"testing"
	"time"
)

func TestSeqWindowCountsUniqueSeqs(t *testing.T) {
	var w seqWindow
	rng := rand.New(rand.NewSource(1))
	const n = 1_000_000
	unique := 0
	// Deliver 0..n-1 in shuffled blocks of 64 with every tenth seq sent
	// twice: reordering and duplicates inside the window.
	for blk := int64(0); blk < n; blk += 64 {
		for _, k := range rng.Perm(64) {
			seq := blk + int64(k)
			if w.mark(seq) {
				unique++
			}
			if seq%10 == 0 && w.mark(seq) {
				t.Fatalf("duplicate of seq %d counted", seq)
			}
		}
	}
	if unique != n {
		t.Fatalf("counted %d unique seqs, want %d", unique, n)
	}
	if w.base != n {
		t.Fatalf("watermark %d after a gapless stream, want %d", w.base, n)
	}
	for i, word := range w.seen {
		if word != 0 {
			t.Fatalf("word %d = %#x: arrivals below the watermark must be cleared", i, word)
		}
	}
	// Old, negative and far-future seqs: old ones are duplicates, a jump
	// slides the window without losing the new seq.
	if w.mark(5) || w.mark(-1) {
		t.Fatal("seq below the watermark counted as new")
	}
	if !w.mark(math.MaxInt64/2) || w.mark(math.MaxInt64/2) {
		t.Fatal("far-future seq: want new once, then duplicate")
	}
	if w.mark(n) {
		t.Fatal("seq passed over by the slide counted as new")
	}
	if !w.mark(math.MaxInt64/2 - 1) {
		t.Fatal("seq inside the slid window not counted")
	}
}

// TestReceiverCountsSendersSeparately runs two senders whose seqs overlap
// completely (both start at 0) into one receiver. Each must be counted in
// full, duplicates within a sender must not be, and the receiver must hold
// one fixed-size dedup window per sender however many packets arrive.
func TestReceiverCountsSendersSeparately(t *testing.T) {
	r, err := NewReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const n = 300
	send := func(conn *net.UDPConn, seq int64) {
		pkt := Header{Type: typeData, Seq: seq}.Marshal(nil)
		ack := make([]byte, maxPacket)
		// Stop-and-wait: loopback can drop a burst, but never silently
		// here — a lost packet or ack is resent, which the receiver must
		// count as a duplicate.
		for {
			if _, err := conn.Write(pkt); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(time.Second))
			m, err := conn.Read(ack)
			if err != nil {
				continue
			}
			if h, err := ParseHeader(ack[:m]); err == nil && h.Type == typeAck && h.Seq == seq {
				return
			}
		}
	}
	var conns []*net.UDPConn
	for i := 0; i < 2; i++ {
		conn, err := net.DialUDP("udp", nil, r.Addr().(*net.UDPAddr))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conns = append(conns, conn)
	}
	for seq := int64(0); seq < n; seq++ {
		for _, c := range conns {
			send(c, seq)
		}
	}
	for seq := int64(0); seq < 10; seq++ {
		send(conns[0], seq) // duplicates
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.UniquePackets != 2*n {
		t.Fatalf("UniquePackets = %d, want %d (two senders × %d seqs)", st.UniquePackets, 2*n, n)
	}
	if st.Packets < 2*n+10 {
		t.Fatalf("Packets = %d, want at least %d", st.Packets, 2*n+10)
	}
	if len(r.streams) != 2 {
		t.Fatalf("receiver tracks %d streams, want 2", len(r.streams))
	}
	for k, w := range r.streams {
		if w.base != n {
			t.Fatalf("stream %v watermark %d, want %d", k, w.base, n)
		}
	}
}
