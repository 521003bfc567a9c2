package netsim

import (
	"testing"
	"time"
)

// TestPoolRecycle pins the free-list mechanics: a released packet is handed
// out again (LIFO), every field is overwritten on reuse, and the counters
// account gets, frees, and heap allocations exactly.
func TestPoolRecycle(t *testing.T) {
	sim := NewSim()
	p1 := sim.NewPacket(1, 10, 1400, time.Second, 4)
	sim.FreePacket(p1)
	p2 := sim.NewPacket(2, 20, 200, 2*time.Second, 8)
	if p1 != p2 {
		t.Fatalf("free list did not recycle: got a fresh packet after a release")
	}
	if p2.Flow != 2 || p2.Seq != 20 || p2.Bytes != 200 || p2.SentAt != 2*time.Second || p2.Window != 8 {
		t.Fatalf("recycled packet carries stale fields: %+v", *p2)
	}
	st := sim.PoolStats()
	if st.Gets != 2 || st.Frees != 1 || st.Allocated != 1 {
		t.Fatalf("pool stats gets=%d frees=%d allocated=%d, want 2/1/1", st.Gets, st.Frees, st.Allocated)
	}
	if st.Live() != 1 {
		t.Fatalf("live = %d, want 1", st.Live())
	}
}

// TestClonePacketIndependent checks the duplication primitive: the clone is
// field-for-field equal, distinct, and each copy releases independently.
func TestClonePacketIndependent(t *testing.T) {
	sim := NewSim()
	p := sim.NewPacket(3, 7, 900, time.Millisecond, 2)
	q := sim.ClonePacket(p)
	if p == q {
		t.Fatalf("clone returned the same pointer")
	}
	if *q != *p {
		t.Fatalf("clone differs: %+v vs %+v", *q, *p)
	}
	sim.FreePacket(p)
	sim.FreePacket(q)
	if st := sim.PoolStats(); st.Live() != 0 {
		t.Fatalf("live = %d after releasing both copies, want 0", st.Live())
	}
}

// TestPacketPathZeroAllocs is the steady-state pin the tentpole promises:
// once the heap, ring, and pool are warm, pushing packets through the full
// source→queue→FixedLink→propagation→receiver→release cycle performs zero
// allocations per packet. The injector runs below the link rate so the queue
// stays shallow, obs is detached, and lossProb is zero — the configuration
// every hot-path experiment runs in.
func TestPacketPathZeroAllocs(t *testing.T) {
	sim := NewSim()
	q := NewDropTail(1 << 20)
	release := ReceiverFunc(func(p *Packet) { sim.FreePacket(p) })
	// 100 Mbps link, 1400 B every 150 µs ≈ 74.7 Mbps offered: under capacity.
	link := NewFixedLink(sim, q, 100, time.Millisecond, release, 1)
	seq := int64(0)
	timer := sim.Every(150*time.Microsecond, func() {
		link.Send(sim.NewPacket(1, seq, 1400, sim.Now(), 0))
		seq++
	})
	defer timer.Stop()
	sim.Run(200 * time.Millisecond) // warm heap, ring, and pool
	next := sim.Now()
	allocs := testing.AllocsPerRun(100, func() {
		next += 20 * time.Millisecond
		sim.Run(next)
	})
	if allocs != 0 {
		t.Fatalf("packet path allocates %.1f/run in steady state, want 0", allocs)
	}
	if st := sim.PoolStats(); st.Frees == 0 || st.Allocated > 64 {
		t.Fatalf("pool not cycling: %+v", st)
	}
}

// TestFlowPathConservesPool runs a controlled flow end to end — sends, acks,
// dup-ack losses, RTOs — and checks the pool ledger balances once the
// network drains: every packet checked out was released exactly once.
func TestFlowPathConservesPool(t *testing.T) {
	sim := NewSim()
	d := NewDumbbell(sim, func(dst Receiver) Link {
		// Lossy and shallow, so queue drops, dup-acks, and timeouts all fire.
		l := NewFixedLink(sim, NewDropTail(8_400), 4, 20*time.Millisecond, dst, 11)
		l.SetLossProb(0.05)
		return l
	}, 1400, []FlowSpec{
		{Ctrl: &fixedWindow{w: 16}, AckDelay: 10 * time.Millisecond, Stop: 3 * time.Second},
		{CBRMbps: 1.5, Stop: 3 * time.Second},
	})
	sim.Run(10 * time.Second) // 7 s past Stop: everything in flight drains
	if d.Metrics[0].Received == 0 || d.Metrics[1].Received == 0 {
		t.Fatal("no traffic delivered; conservation check vacuous")
	}
	st := sim.PoolStats()
	if st.Live() != 0 {
		t.Fatalf("pool leak: %d packets never released (gets=%d frees=%d)", st.Live(), st.Gets, st.Frees)
	}
	if st.Gets == 0 || st.Allocated > st.Gets {
		t.Fatalf("implausible pool ledger: %+v", st)
	}
}
