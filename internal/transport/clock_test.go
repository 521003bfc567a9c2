package transport

import (
	"testing"
	"time"

	"repro/internal/netsim"
)

// TestSimClockNow pins the virtual clock contract: timestamps are a pure
// function of simulated time from a fixed epoch, with no host-clock leak.
func TestSimClockNow(t *testing.T) {
	sim := netsim.NewSim()
	c := NewSimClock(sim)
	if got := c.Now(); !got.Equal(time.Unix(0, 0)) {
		t.Fatalf("epoch Now() = %v, want unix epoch", got)
	}
	sim.Run(250 * time.Millisecond)
	want := time.Unix(0, 0).Add(250 * time.Millisecond)
	if got := c.Now(); !got.Equal(want) {
		t.Fatalf("Now() after Run = %v, want %v", got, want)
	}
}

// TestSimClockTicker drives a SimClock ticker purely on virtual time and
// checks tick timestamps and time.Ticker-style drop semantics.
func TestSimClockTicker(t *testing.T) {
	sim := netsim.NewSim()
	c := NewSimClock(sim)
	ticker := c.NewTicker(10 * time.Millisecond)
	defer ticker.Stop()

	var got []time.Time
	// Drain inside the simulation, as a single-goroutine consumer would.
	drain := sim.Every(10*time.Millisecond, func() {
		select {
		case ts := <-ticker.C():
			got = append(got, ts)
		default:
		}
	})
	sim.Run(35 * time.Millisecond)
	drain.Stop()
	if len(got) != 3 {
		t.Fatalf("ticks = %d, want 3", len(got))
	}
	for i, ts := range got {
		want := time.Unix(0, 0).Add(time.Duration(i+1) * 10 * time.Millisecond)
		if !ts.Equal(want) {
			t.Fatalf("tick %d at %v, want %v", i, ts, want)
		}
	}

	// With no consumer, the 1-deep channel keeps the oldest pending tick
	// and drops the rest — the same contract as time.Ticker.
	sim.Run(100 * time.Millisecond)
	if n := len(ticker.C()); n != 1 {
		t.Fatalf("pending ticks = %d, want 1", n)
	}
	ts := <-ticker.C()
	if want := time.Unix(0, 0).Add(40 * time.Millisecond); !ts.Equal(want) {
		t.Fatalf("buffered tick at %v, want %v", ts, want)
	}
}
