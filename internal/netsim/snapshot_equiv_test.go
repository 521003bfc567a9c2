package netsim

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/snap"
)

// Checkpoint equivalence and pool-conservation properties on the dumbbell
// topology (DESIGN.md §15): a restore overlaid on a deterministic rebuild
// must conserve the packet-pool accounting exactly and continue to the same
// final state a never-interrupted run reaches.

// snapWindow is a minimal checkpoint-aware fixed-window controller.
type snapWindow struct {
	w    int
	acks int
}

func (f *snapWindow) Name() string                           { return "snapfixed" }
func (f *snapWindow) OnAck(_ time.Duration, _ cc.AckSample)  { f.acks++ }
func (f *snapWindow) OnLoss(_ time.Duration, _ cc.LossEvent) {}
func (f *snapWindow) OnTimeout(time.Duration)                {}
func (f *snapWindow) TickInterval() time.Duration            { return 0 }
func (f *snapWindow) Tick(time.Duration)                     {}
func (f *snapWindow) Allowance(_ time.Duration, inflight int) int {
	return f.w - inflight
}
func (f *snapWindow) SendTag() int                     { return f.w }
func (f *snapWindow) OnSend(time.Duration, int64, int) {}

// Snapshot implements snap.Snapshotter.
func (f *snapWindow) Snapshot(e *snap.Encoder) {
	e.Tag("snapwin")
	e.Int(f.acks)
}

// Restore implements snap.Snapshotter.
func (f *snapWindow) Restore(d *snap.Decoder) {
	d.Expect("snapwin")
	f.acks = d.Int()
}

// buildSnapDumbbell is the deterministic topology both sides of a
// checkpoint run: every flow stops, so a long-enough run reaches pool
// quiescence, and the queue is small enough to force tail drops (the
// free-on-drop pool path).
func buildSnapDumbbell() *Dumbbell {
	sim := NewSim()
	return NewDumbbell(sim, func(dst Receiver) Link {
		return NewFixedLink(sim, NewDropTail(8_000), 6, 5*time.Millisecond, dst, 1)
	}, 1000, []FlowSpec{
		{Ctrl: &snapWindow{w: 6}, AckDelay: 5 * time.Millisecond, Stop: 1200 * time.Millisecond},
		{Ctrl: &snapWindow{w: 3}, AckDelay: 7 * time.Millisecond, Start: 200 * time.Millisecond, Stop: 900 * time.Millisecond},
		{CBRMbps: 1.5, OnFor: 300 * time.Millisecond, OffFor: 200 * time.Millisecond, Stop: time.Second},
	})
}

// TestPoolSnapshotConservationAcrossRestore is the satellite pool property:
// PoolStats (Allocated/Gets/Frees, hence Live) survive snapshot→restore
// exactly, and a restored run reaches Live()==0 at quiescence just as the
// uninterrupted run does, with byte-identical flow metrics. Under
// -tags pooldebug the restored packets are rematerialized live, so every
// AssertLive checkpoint and double-free poison stays armed.
func TestPoolSnapshotConservationAcrossRestore(t *testing.T) {
	const barrier = 700 * time.Millisecond
	const horizon = 3 * time.Second

	ref := buildSnapDumbbell()
	ref.Run(barrier)
	before := ref.Sim.PoolStats()
	if before.Live() == 0 {
		t.Fatal("barrier reached with no live packets; the conservation property would be vacuous")
	}
	e := snap.NewEncoder()
	ref.Snapshot(e)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	blob, err := e.Encode(snap.Version)
	if err != nil {
		t.Fatal(err)
	}

	dec, err := snap.Decode(blob, snap.Version)
	if err != nil {
		t.Fatal(err)
	}
	res := buildSnapDumbbell()
	res.Restore(dec)
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	if err := dec.Done(); err != nil {
		t.Fatal(err)
	}
	if after := res.Sim.PoolStats(); after != before {
		t.Fatalf("pool stats not conserved through restore: %+v -> %+v", before, after)
	}

	ref.Run(horizon)
	res.Run(horizon)
	if got, want := res.Sim.PoolStats(), ref.Sim.PoolStats(); got != want {
		t.Fatalf("post-restore pool stats diverge: restored %+v, straight %+v", got, want)
	}
	if live := res.Sim.PoolStats().Live(); live != 0 {
		t.Fatalf("post-restore quiescence leaves %d live packets", live)
	}
	if !reflect.DeepEqual(res.Metrics, ref.Metrics) {
		t.Fatalf("post-restore flow metrics diverge:\nrestored %+v\nstraight %+v", res.Metrics, ref.Metrics)
	}
	if res.Sim.Pending() != ref.Sim.Pending() || res.Sim.Now() != ref.Sim.Now() {
		t.Fatalf("post-restore sim state diverges: pending %d/%d, now %v/%v",
			res.Sim.Pending(), ref.Sim.Pending(), res.Sim.Now(), ref.Sim.Now())
	}
}

// unregisteredRecv is a pointer receiver nobody registered.
type unregisteredRecv struct{ sim *Sim }

func (r *unregisteredRecv) Receive(p *Packet) { r.sim.FreePacket(p) }

// TestSnapshotRejectsUntrackedEvents pins the all-or-nothing contract: a
// pending event whose handler carries no registry id must fail the whole
// snapshot with a named error, never be silently dropped. Each case is one
// handler type SnapshotHeap cannot serialize.
func TestSnapshotRejectsUntrackedEvents(t *testing.T) {
	cases := []struct {
		name    string
		pending func(s *Sim)
		want    string
	}{
		{"plain closure", func(s *Sim) {
			s.Schedule(2*time.Second, Func(func() {}), nil)
		}, "plain Func"},
		{"plain Every tick", func(s *Sim) {
			s.Every(time.Second, func() {})
		}, "created with Every"},
		{"ReceiverFunc delivery", func(s *Sim) {
			s.Schedule(2*time.Second, ReceiverFunc(s.FreePacket), s.NewPacket(0, 0, 100, 0, 0))
		}, "unregistrable receiver"},
		{"unregistered pointer receiver", func(s *Sim) {
			s.Schedule(2*time.Second, &unregisteredRecv{sim: s}, s.NewPacket(0, 0, 100, 0, 0))
		}, "unregistered receiver"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := buildSnapDumbbell()
			c.pending(d.Sim)
			d.Run(100 * time.Millisecond)
			e := snap.NewEncoder()
			d.Snapshot(e)
			if e.Err() == nil {
				t.Fatal("snapshot with an untracked pending event succeeded; checkpoints must capture everything or nothing")
			}
			if !strings.Contains(e.Err().Error(), c.want) {
				t.Fatalf("snapshot error %q does not name the cause %q", e.Err(), c.want)
			}
		})
	}
}
