package transport

import (
	"time"

	"repro/internal/netsim"
)

// Clock supplies the transport's notion of time. The sender and receiver
// take all timestamps and tickers from this interface, so the only
// wall-clock reads in the package live in SystemClock — which keeps the
// nowalltime contract auditable: a simulated transport injects a SimClock
// and runs entirely on netsim virtual time, while the real-UDP commands use
// the host clock through the one exempted implementation.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// NewTicker returns a ticker firing every d.
	NewTicker(d time.Duration) Ticker
}

// Ticker is the subset of time.Ticker the transport consumes.
type Ticker interface {
	// C returns the tick channel.
	C() <-chan time.Time
	// Stop releases the ticker.
	Stop()
}

// SystemClock returns the host-clock implementation used by the real-UDP
// path (cmd/verus-client, cmd/verus-server); it is the default when a
// config carries a nil Clock.
func SystemClock() Clock { return systemClock{} }

type systemClock struct{}

// Now reads the host clock — the transport's single sanctioned wall-time
// source.
func (systemClock) Now() time.Time {
	//lint:nowalltime real-time -- the real-UDP transport paces actual sockets; SystemClock is the one exempted wall-clock source, and simulated runs inject SimClock instead
	return time.Now()
}

// NewTicker starts a host-clock ticker.
func (systemClock) NewTicker(d time.Duration) Ticker {
	//lint:nowalltime real-time -- host-clock ticker for the real-UDP event loop; simulated runs inject SimClock instead
	return systemTicker{time.NewTicker(d)}
}

type systemTicker struct{ t *time.Ticker }

func (t systemTicker) C() <-chan time.Time { return t.t.C }
func (t systemTicker) Stop()               { t.t.Stop() }

// SimClock adapts a netsim.Sim to the Clock interface so a simulated
// transport runs on virtual time: Now is the simulation clock offset from a
// fixed epoch (never the host clock), and tickers are driven by sim.Every.
//
// Like the Sim itself, a SimClock is strictly single-goroutine: the code
// consuming the clock must run interleaved with sim.Run on one goroutine,
// which is how every harness in internal/experiments is structured. Ticker
// channels are buffered one deep and dropped-on-full, matching time.Ticker
// semantics for a consumer that falls behind.
type SimClock struct {
	sim   *netsim.Sim
	epoch time.Time
}

// NewSimClock returns a Clock backed by the simulation's virtual time.
func NewSimClock(sim *netsim.Sim) *SimClock {
	return &SimClock{sim: sim, epoch: time.Unix(0, 0)}
}

// Now returns the fixed epoch advanced by the simulation clock, so
// timestamps are a pure function of simulated time.
func (c *SimClock) Now() time.Time { return c.epoch.Add(c.sim.Now()) }

// NewTicker fires on simulated time via sim.Every.
func (c *SimClock) NewTicker(d time.Duration) Ticker {
	ch := make(chan time.Time, 1)
	t := c.sim.Every(d, func() {
		select {
		case ch <- c.Now():
		default: // consumer behind; drop the tick like time.Ticker does
		}
	})
	return &simTicker{ch: ch, t: t}
}

type simTicker struct {
	ch chan time.Time
	t  *netsim.Timer
}

func (t *simTicker) C() <-chan time.Time { return t.ch }
func (t *simTicker) Stop()               { t.t.Stop() }
