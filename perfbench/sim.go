package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"time"

	"repro/internal/cc"
	"repro/internal/cellular"
	"repro/internal/experiments"
	"repro/internal/experiments/runner"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/verus"
)

// baseOneWay is experiments.TraceRun's default propagation delay each way;
// a simulated packet's RTT is its one-way delay plus this reverse-path
// delay, because the ack path has no queue.
const baseOneWay = 10 * time.Millisecond

// cellRun is one trace-driven dumbbell, configured as experiments.TraceRun
// is. The benchmark assembles it from the same public netsim, faults and
// obs calls TraceRun makes, in the same order, so that it can insert the
// timing seams and read the packet ledgers TraceRun does not return. Each
// round's results must equal TraceRun's on the same inputs (the reference).
type cellRun struct {
	tr         *trace.Trace
	mk         experiments.Maker
	flows      int
	dur        time.Duration
	queueBytes int
	seed       int64
	plan       *faults.Plan
	obs        *obs.Observer
}

func (c cellRun) reference() experiments.RunResult {
	return experiments.TraceRun{
		Trace: c.tr, Maker: c.mk, Flows: c.flows, Duration: c.dur,
		QueueBytes: c.queueBytes, Seed: c.seed, Faults: c.plan, Obs: c.obs,
	}.Run()
}

// dumbbell is a built cellRun and the components its checks read.
type dumbbell struct {
	d     *netsim.Dumbbell
	q     *netsim.DropTail
	link  *netsim.TraceLink
	flink *faults.Link
	ctrls []cc.Controller
}

func (c cellRun) build(tp *tap) *dumbbell {
	b := &dumbbell{}
	sim := netsim.NewSim()
	specs := make([]netsim.FlowSpec, c.flows)
	for i := range specs {
		ctrl := c.mk.New()
		if ob, ok := ctrl.(obs.Observable); ok && c.obs != nil {
			ob.Observe(c.obs, c.seed, i)
		}
		b.ctrls = append(b.ctrls, ctrl)
		specs[i] = netsim.FlowSpec{Ctrl: tp.controller(ctrl), AckDelay: baseOneWay}
	}
	mkInner := func(dst netsim.Receiver) netsim.Link {
		b.q = netsim.NewDropTail(c.queueBytes)
		b.link = netsim.NewTraceLink(sim, b.q, c.tr, baseOneWay, dst, true, c.seed+1)
		b.link.Instrument(c.obs, c.seed)
		return b.link
	}
	b.d = netsim.NewDumbbell(sim, func(dst netsim.Receiver) netsim.Link {
		dst = tp.receiver(dst)
		if c.plan == nil {
			return tp.link(mkInner(dst), false)
		}
		b.flink = faults.Wrap(sim, c.plan, c.seed+2, dst, func(dst netsim.Receiver) netsim.Link {
			return tp.link(mkInner(dst), true)
		})
		if c.obs != nil {
			b.flink.Instrument(c.obs, c.seed)
		}
		return tp.link(b.flink, false)
	}, experiments.MTU, specs)
	if c.obs != nil {
		for _, s := range b.d.Sources {
			s.Instrument(c.obs, c.seed)
		}
	}
	return b
}

// result collects the per-flow results exactly as experiments.TraceRun
// does.
func (b *dumbbell) result(horizon time.Duration) experiments.RunResult {
	var out experiments.RunResult
	for i, m := range b.d.Metrics {
		out.Flows = append(out.Flows, experiments.FlowResult{
			Flow:      i,
			Mbps:      m.MeanMbps(horizon),
			DelayMean: m.Delay.Mean(),
			DelayP95:  m.Delay.Percentile(95),
			Losses:    m.LossDetected,
			Timeouts:  m.Timeouts,
		})
		out.PerSecondMbps = append(out.PerSecondMbps, m.Throughput.Mbps())
		out.PerSecondDelay = append(out.PerSecondDelay, m.DelayOverTime.Means())
	}
	if b.flink != nil {
		c := b.flink.Counters
		out.Faults = &c
	}
	return out
}

// ledger is a run's deterministic packet accounting.
type ledger struct {
	sent, received, losses, timeouts int64
	drops, delivered, lost, queued   int64
	pool                             netsim.PacketPoolStats
}

func (b *dumbbell) ledger() ledger {
	var l ledger
	for _, m := range b.d.Metrics {
		l.sent += m.Sent
		l.received += m.Received
		l.losses += m.LossDetected
		l.timeouts += m.Timeouts
	}
	l.drops = int64(b.q.Drops)
	l.delivered = b.link.Delivered
	l.lost = b.link.Lost
	l.queued = int64(b.q.Len())
	l.pool = b.d.Sim.PoolStats()
	return l
}

// conservation checks that every packet sent is accounted for: dropped at
// the queue or the fault layer, lost, delivered, or still in the network,
// and that the pool's live count covers at least the packets still held.
func (b *dumbbell) conservation(l ledger) error {
	var fc faults.Counters
	if b.flink != nil {
		fc = b.flink.Counters
	}
	// Every Send reached the bottleneck queue unless the outage refused it;
	// every packet the queue took was dropped, drained, served, or waits.
	if got := fc.SendDropped + l.drops + fc.QueueDrained + l.delivered + l.lost + l.queued; got != l.sent {
		return fmt.Errorf("conservation: sent %d != refused %d + dropped %d + drained %d + delivered %d + lost %d + queued %d",
			l.sent, fc.SendDropped, l.drops, fc.QueueDrained, l.delivered, l.lost, l.queued)
	}
	// Packets the bottleneck served are propagating, or reached the sinks
	// (through the fault layer, which hands on synchronously and accounts
	// for what it drops, holds or duplicates).
	inFlight := l.delivered - l.received
	if b.flink != nil {
		if l.received != fc.Delivered {
			return fmt.Errorf("conservation: sinks received %d, fault layer handed on %d", l.received, fc.Delivered)
		}
		inFlight = l.delivered + fc.Duplicated - fc.EgressDropped - fc.BurstLost - fc.Corrupted - fc.Held - fc.ReorderPending - fc.Delivered
	}
	if inFlight < 0 {
		return fmt.Errorf("conservation: %d packets in propagation", inFlight)
	}
	if l.pool.Gets != uint64(l.sent+fc.Duplicated) {
		return fmt.Errorf("pool: %d gets for %d sent + %d duplicated", l.pool.Gets, l.sent, fc.Duplicated)
	}
	held := l.queued + fc.Held + fc.ReorderPending + inFlight
	if live := l.pool.Live(); live < held || live > held+l.received {
		return fmt.Errorf("pool: %d live packets, but %d are held in the network and at most %d acks are in flight",
			live, held, l.received)
	}
	return nil
}

// fingerprint hashes a run's results, packet ledger and the deterministic
// counts of its controllers, fault layer and observer.
func (b *dumbbell) fingerprint(res experiments.RunResult, l ledger, o *obs.Observer) string {
	h := newHasher()
	h.str(resultHash(res))
	h.i64(l.sent, l.received, l.losses, l.timeouts, l.drops, l.delivered, l.lost, l.queued,
		int64(l.pool.Gets), int64(l.pool.Frees), int64(l.pool.Allocated))
	for _, c := range b.ctrls {
		if v, ok := c.(*verus.Verus); ok {
			e, lo, to, r := v.Stats()
			h.i64(e, lo, to, r)
		}
	}
	if t := o.Tracer(); t != nil {
		h.i64(int64(t.Emitted()), int64(t.Dropped()))
	}
	return h.sum()
}

// resultHash hashes a harness-level result bit for bit.
func resultHash(r experiments.RunResult) string {
	h := newHasher()
	for _, f := range r.Flows {
		h.i64(int64(f.Flow), f.Losses, f.Timeouts)
		h.f64(f.Mbps, f.DelayMean, f.DelayP95)
	}
	for i := range r.PerSecondMbps {
		h.f64(r.PerSecondMbps[i]...)
		h.f64(r.PerSecondDelay[i]...)
	}
	if c := r.Faults; c != nil {
		h.i64(c.SendDropped, c.QueueDrained, c.EgressDropped, c.BurstLost, c.Corrupted,
			c.Duplicated, c.Reordered, c.Released, c.Held, c.ReorderPending, c.Delivered)
	}
	return h.sum()
}

type hasher struct{ h hash.Hash }

func newHasher() *hasher { return &hasher{h: sha256.New()} }

func (h *hasher) i64(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.h.Write(b[:])
	}
}

func (h *hasher) f64(vs ...float64) {
	for _, v := range vs {
		h.i64(int64(math.Float64bits(v)))
	}
}

func (h *hasher) str(s string) {
	h.i64(int64(len(s)))
	h.h.Write([]byte(s))
}

func (h *hasher) sum() string { return hex.EncodeToString(h.h.Sum(nil)[:16]) }

// cellTrace generates a shared-cell capacity trace, as the experiments
// harnesses do, and scales it to exactly totalMbps on average. The seed then
// varies the fading pattern but not the cell's capacity: an unscaled 120 s
// trace's mean rate ranges over more than a factor of two between seeds,
// and the simulator's cost with it.
func cellTrace(tech cellular.Tech, sc cellular.Scenario, totalMbps float64, d time.Duration, seed int64) *trace.Trace {
	tr := cellular.NewModel(cellular.Config{
		Tech:     tech,
		Operator: cellular.OperatorB,
		Scenario: sc,
		MeanMbps: totalMbps / sc.RateFactor,
		Seed:     seed,
	}).Trace(d)
	return tr.Scale(totalMbps / tr.MeanMbps())
}

// simInputs are a draw's runs. runs generates each run's own channel
// trace, from a seed derived from the draw's, as the experiments harnesses
// give every trial its own trace. newObs, when non-nil, gives every draw a
// fresh observer shared by its runs (runs are labeled by their seeds).
type simInputs struct {
	runs   func(seed int64, scale float64, o *obs.Observer) []cellRun
	newObs func() *obs.Observer
}

func (in simInputs) observer() *obs.Observer {
	if in.newObs == nil {
		return nil
	}
	return in.newObs()
}

// reference runs the inputs through experiments.TraceRun.
func (in simInputs) reference(seed int64, scale float64) []string {
	o := in.observer()
	var out []string
	for _, r := range in.runs(seed, scale, o) {
		out = append(out, resultHash(r.reference()))
	}
	return out
}

// setup generates the traces and builds every run, discarding them.
func (in simInputs) setup(seed int64, scale float64) {
	o := in.observer()
	for _, c := range in.runs(seed, scale, o) {
		c.build(nil)
	}
}

// run generates the traces, builds and runs each dumbbell (only the run is
// measured), then checks and summarizes them.
func (in simInputs) run(seed int64, scale float64, tp *tap) drawResult {
	rr := drawResult{layer: map[string]float64{}}
	o := in.observer()
	t0 := time.Now()
	runs := in.runs(seed, scale, o)
	rr.layer["cellular.trace_s"] = time.Since(t0).Seconds()
	for _, c := range runs {
		rr.layer["cellular.opportunities"] += float64(len(c.tr.Ops))
	}
	var verusMbps, verusP95 []float64
	var goodput float64
	for _, c := range runs {
		var t trialOut
		if err := guard(func() {
			b := c.build(tp)
			m := startMeter()
			b.d.Run(c.dur)
			rr.cost.add(m.end())

			res := b.result(c.dur)
			l := b.ledger()
			t.ref = resultHash(res)
			t.fp = b.fingerprint(res, l, o)
			rr.pkts += l.received
			_, isVerus := b.ctrls[0].(*verus.Verus)
			for _, f := range res.Flows {
				goodput += f.Mbps / float64(len(runs))
				if isVerus {
					verusMbps = append(verusMbps, f.Mbps)
					verusP95 = append(verusP95, f.DelayP95)
				}
			}
			// The RTT median is taken per run, over all its packets, and
			// averaged over the draw's runs: pooled across runs of different
			// protocols, it would fall between their delay modes.
			rtt := stats.NewSummary(1 << 16)
			for _, m := range b.d.Metrics {
				rtt.Merge(m.Delay)
			}
			rr.q.rttP50ms += 1000 * (rtt.Percentile(50) + baseOneWay.Seconds()) / float64(len(runs))
			for name, v := range map[string]int64{
				"netsim.pkts_sent": l.sent, "netsim.pkts_delivered": l.received,
				"netsim.queue_drops": l.drops, "netsim.losses": l.losses, "netsim.timeouts": l.timeouts,
				"netsim.pool_gets": int64(l.pool.Gets), "netsim.pool_allocated": int64(l.pool.Allocated),
			} {
				rr.layer[name] += float64(v)
			}
			if res.Faults != nil {
				addFaults(rr.layer, *res.Faults)
			}
			for _, ctrl := range b.ctrls {
				if v, ok := ctrl.(*verus.Verus); ok {
					e, _, _, r := v.Stats()
					rr.layer["verus.epochs"] += float64(e)
					rr.layer["verus.refits"] += float64(r)
				}
			}
			t.err = b.conservation(l)
		}); err != nil {
			t.err = err
		}
		rr.trials = append(rr.trials, t)
	}
	rr.q.verusMbps = medianOf(verusMbps)
	rr.q.verusDelayP95ms = 1000 * medianOf(verusP95)
	rr.q.goodputMbps = goodput

	if o != nil {
		rr.layer["obs.events"] = float64(o.Tracer().Emitted())
		rr.layer["obs.dropped"] = float64(o.Tracer().Dropped())
	}
	tp.record(rr.layer, rr.cost.wallS)
	return rr
}

func addFaults(layer map[string]float64, c faults.Counters) {
	for name, v := range map[string]int64{
		"faults.send_dropped": c.SendDropped, "faults.queue_drained": c.QueueDrained,
		"faults.egress_dropped": c.EgressDropped, "faults.burst_lost": c.BurstLost,
		"faults.corrupted": c.Corrupted, "faults.duplicated": c.Duplicated,
		"faults.reordered": c.Reordered, "faults.released": c.Released,
		"faults.held": c.Held, "faults.reorder_pending": c.ReorderPending,
		"faults.delivered": c.Delivered,
	} {
		layer[name] += float64(v)
	}
}

// scaled shrinks a duration for the benchmark's small-scale tests.
func scaled(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) * scale).Round(time.Second)
}

// cellBloat is the paper's Fig. 8 LTE cell: a 40 Mbps city-stationary
// trace feeding an 8 MB DropTail buffer, nine Cubic flows and then nine
// Verus (R=6) flows over the same trace.
var cellBloat = simInputs{
	runs: func(seed int64, scale float64, _ *obs.Observer) []cellRun {
		d := scaled(cellBloatDur, scale)
		var out []cellRun
		for i, mk := range []experiments.Maker{experiments.CubicMaker(), experiments.VerusMaker(6)} {
			s := runner.DeriveSeed(seed, int64(i))
			out = append(out, cellRun{tr: cellTrace(cellular.TechLTE, cellular.CityStationary, 40, d, s),
				mk: mk, flows: 9, dur: d, queueBytes: 8_000_000, seed: s})
		}
		return out
	},
}

const cellBloatDur = 120 * time.Second

// chaosObs runs the tunnel-outage and city-loss fault plans against
// resilient Verus (R=2), Cubic and NewReno, four flows each on a 25 Mbps 3G
// city-driving trace, with a tracer and a registry attached.
var chaosObs = simInputs{
	runs: func(seed int64, scale float64, o *obs.Observer) []cellRun {
		d := scaled(chaosDur, scale)
		var out []cellRun
		for pi, plan := range []string{faults.ScenarioTunnelOutage, faults.ScenarioCityLoss} {
			p, err := faults.ByName(plan, d)
			if err != nil {
				panic(err) // the names are the package's own constants
			}
			for mi, mk := range []experiments.Maker{experiments.VerusResilientMaker(2), experiments.CubicMaker(), experiments.NewRenoMaker()} {
				s := runner.DeriveSeed(seed, int64(10*pi+mi))
				out = append(out, cellRun{tr: cellTrace(cellular.Tech3G, cellular.CityDriving, 25, d, s),
					mk: mk, flows: 4, dur: d, queueBytes: 1_500_000, seed: s, plan: p, obs: o})
			}
		}
		return out
	},
	newObs: func() *obs.Observer {
		return obs.NewObserver(obs.NewTracer(obs.DefaultTraceCapacity), obs.NewRegistry())
	},
}

const chaosDur = 120 * time.Second
