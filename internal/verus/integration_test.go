package verus

import (
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/netsim"
)

// TestVerusOnFixedLink runs the full closed loop on the simulator: Verus
// should achieve a solid fraction of a stable link while holding queueing
// delay near R × base delay rather than filling the buffer.
func TestVerusOnFixedLink(t *testing.T) {
	sim := netsim.NewSim()
	v := New(DefaultConfig()) // R = 2
	d := netsim.NewDumbbell(sim, func(dst netsim.Receiver) netsim.Link {
		// 10 Mbps, 10 ms base one-way, 1 MB buffer (≈ 800 ms if filled).
		return netsim.NewFixedLink(sim, netsim.NewDropTail(1_000_000), 10, 10*time.Millisecond, dst, 1)
	}, 1400, []netsim.FlowSpec{{Ctrl: v, AckDelay: 10 * time.Millisecond}})
	d.Run(30 * time.Second)

	m := d.Metrics[0]
	tput := m.MeanMbps(30 * time.Second)
	if tput < 5 {
		t.Errorf("throughput = %.2f Mbps on a 10 Mbps link, want >= 5", tput)
	}
	if tput > 10.5 {
		t.Errorf("throughput = %.2f Mbps exceeds link capacity", tput)
	}
	// Base one-way is ~11 ms (prop + serialization). R=2 targets RTT ≈
	// 2×RTTmin, i.e. one-way well under 100 ms; a buffer-filling protocol
	// would sit at ~800 ms. Judge steady state (after the slow-start
	// overshoot drains) via the per-second delay means from t = 5 s on.
	means := m.DelayOverTime.Means()
	if len(means) < 30 {
		t.Fatalf("missing delay windows: %d", len(means))
	}
	for w := 5; w < 30; w++ {
		if means[w] > 0.15 {
			t.Errorf("steady-state delay %.0f ms in window %d; buffer-filling behaviour", means[w]*1000, w)
		}
	}
	if m.Timeouts > 2 {
		t.Errorf("timeouts = %d on a clean link", m.Timeouts)
	}
}

// TestVerusOnCellularTrace runs Verus over the bursty cellular channel model
// and checks it stays functional: meaningful utilization, bounded delay.
func TestVerusOnCellularTrace(t *testing.T) {
	model := cellular.NewModel(cellular.Config{
		Tech:     cellular.Tech3G,
		Scenario: cellular.CampusStationary,
		MeanMbps: 8,
		Seed:     17,
	})
	tr := model.Trace(40 * time.Second)

	sim := netsim.NewSim()
	v := New(DefaultConfig())
	d := netsim.NewDumbbell(sim, func(dst netsim.Receiver) netsim.Link {
		return netsim.NewTraceLink(sim, netsim.NewDropTail(2_000_000), tr, 10*time.Millisecond, dst, false, 2)
	}, 1400, []netsim.FlowSpec{{Ctrl: v, AckDelay: 10 * time.Millisecond}})
	d.Run(40 * time.Second)

	m := d.Metrics[0]
	tput := m.MeanMbps(40 * time.Second)
	cap := tr.MeanMbps()
	if tput < 0.3*cap {
		t.Errorf("throughput %.2f Mbps is under 30%% of the %.2f Mbps channel", tput, cap)
	}
	if delay := m.Delay.Mean(); delay > 0.4 {
		t.Errorf("mean one-way delay %.0f ms too high on cellular channel", delay*1000)
	}
	epochs, _, _, refits := v.Stats()
	if epochs == 0 || refits == 0 {
		t.Errorf("protocol not exercised: epochs=%d refits=%d", epochs, refits)
	}
}

// TestVerusAdaptsToCapacityDrop verifies the rapid-adaptation property
// (paper §7): after a sudden capacity drop the delay must return near the
// target rather than stay inflated.
func TestVerusAdaptsToCapacityDrop(t *testing.T) {
	sim := netsim.NewSim()
	v := New(DefaultConfig())
	var link *netsim.FixedLink
	d := netsim.NewDumbbell(sim, func(dst netsim.Receiver) netsim.Link {
		link = netsim.NewFixedLink(sim, netsim.NewDropTail(2_000_000), 20, 5*time.Millisecond, dst, 1)
		return link
	}, 1400, []netsim.FlowSpec{{Ctrl: v, AckDelay: 5 * time.Millisecond}})
	sim.Schedule(15*time.Second, netsim.Func(func() { link.SetRateMbps(2) }), nil)
	d.Run(30 * time.Second)

	m := d.Metrics[0]
	// Delay in the last 5 seconds (10 s after the drop) must be moderate:
	// a 2 Mbps link with a 2 MB queue would show ~8 s delay if unadapted.
	delays := m.DelayOverTime.Means()
	if len(delays) < 30 {
		t.Fatalf("missing delay windows: %d", len(delays))
	}
	for _, dl := range delays[25:30] {
		if dl > 0.5 {
			t.Fatalf("delay %.2f s long after capacity drop; did not adapt", dl)
		}
	}
	// Still moving data on the 2 Mbps link.
	mbps := m.Throughput.Mbps()
	var late float64
	for _, x := range mbps[25:30] {
		late += x
	}
	if late/5 < 0.5 {
		t.Fatalf("late throughput %.2f Mbps; flow died after drop", late/5)
	}
}
