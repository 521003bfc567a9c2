package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"repro/internal/experiments/runner"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	seed int64
	// scale multiplies every input size: 1 in a benchmark run, small in the
	// benchmark's own tests.
	scale  float64
	budget time.Duration
	traced bool
	// expects is the committed fingerprint of one round at this seed, or ""
	// when none is committed.
	expects string
}

// workload is one set of inputs the benchmark runs, repeated in rounds. A
// round runs draws independent input draws, made from seeds derived from
// the run's seed. A single draw's cost and outputs vary from seed to seed
// with the channel and topology randomness; every metric is the median over
// the draws of a run, which keeps runs at different seeds comparable.
type workload struct {
	draws int
	// setup performs one draw's set-up alone: channel traces, topology and
	// controller construction, or the UDP sockets and handshake.
	setup func(seed int64, scale float64)
	// run sets up and runs one draw. A non-nil tap attaches the timing seams
	// (the traced run).
	run func(seed int64, scale float64, tp *tap) drawResult
	// reference, when non-nil, runs a draw's inputs through the
	// repository's own harness entry point and returns one result hash per
	// trial, which the draw's trials must reproduce in every round.
	reference func(seed int64, scale float64) []string
}

// drawSeed is the seed of draw k of a run seeded with seed.
func drawSeed(seed int64, k int) int64 { return runner.DeriveSeed(seed, int64(k)) }

// round runs every draw once; tp supplies each draw's tap.
func (w workload) round(seed int64, scale float64, tp func() *tap) []drawResult {
	out := make([]drawResult, w.draws)
	for k := range out {
		out[k] = w.run(drawSeed(seed, k), scale, tp())
	}
	return out
}

// trialOut is the checked outcome of one trial: one simulation run, one
// metro point or one UDP transfer.
type trialOut struct {
	// fp hashes the trial's simulated results and deterministic work
	// counts; "" when the trial is not deterministic (real UDP).
	fp string
	// ref hashes the harness-level result, compared with the reference.
	ref string
	// err is a failed check or a recovered panic.
	err error
}

// quality are the workload's own outputs, the numbers its users read.
type quality struct {
	verusMbps, verusDelayP95ms, goodputMbps, rttP50ms float64
}

// drawResult is what one draw yields.
type drawResult struct {
	trials []trialOut
	// cost is the host cost of the draw's run phases.
	cost cost
	// pkts counts packets delivered during the run phases.
	pkts int64
	q    quality
	// layer holds per-layer values: work counts always, seam timings when
	// traced.
	layer map[string]float64
}

// cost is the host-side price of a run phase.
type cost struct {
	wallS, cpuS, allocB float64
	heapPeakB           float64
}

func (c *cost) add(o cost) {
	c.wallS += o.wallS
	c.cpuS += o.cpuS
	c.allocB += o.allocB
	if o.heapPeakB > c.heapPeakB {
		c.heapPeakB = o.heapPeakB
	}
}

// meter times one run phase: wall clock, process CPU (getrusage, so GC and
// every worker goroutine count), bytes allocated, and the peak live heap
// sampled while the phase runs.
type meter struct {
	start time.Time
	cpu   float64
	alloc uint64
	stop  chan struct{}
	done  chan float64
}

var allocMetric = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func readAlloc() uint64 {
	metrics.Read(allocMetric)
	return allocMetric[0].Value.Uint64()
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// startMeter begins a phase. The peak live heap is the largest
// /gc/heap/live:bytes reading (live bytes marked by the latest GC) seen by
// a 10 ms sampler during the phase.
func startMeter() *meter {
	m := &meter{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-m.stop:
				metrics.Read(s)
				if v := s[0].Value.Uint64(); v > peak {
					peak = v
				}
				m.done <- float64(peak)
				return
			case <-tick.C:
			}
		}
	}()
	m.alloc = readAlloc()
	m.cpu = cpuSeconds()
	m.start = time.Now()
	return m
}

func (m *meter) end() cost {
	wall := time.Since(m.start).Seconds()
	cpu := cpuSeconds() - m.cpu
	alloc := float64(readAlloc() - m.alloc)
	close(m.stop)
	return cost{wallS: wall, cpuS: cpu, allocB: alloc, heapPeakB: <-m.done}
}

// guard runs f, turning a panic into an error so a crashing trial counts as
// a failed operation instead of ending the run.
func guard(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	f()
	return nil
}

// trials lists a round's trials in draw order.
func trials(round []drawResult) []trialOut {
	var out []trialOut
	for _, d := range round {
		out = append(out, d.trials...)
	}
	return out
}

// roundFingerprint combines a round's trial fingerprints; it is the value
// committed per seed in fingerprints.json.
func roundFingerprint(round []drawResult) string {
	h := sha256.New()
	for _, t := range trials(round) {
		fmt.Fprintf(h, "%s\n", t.fp)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// checker counts trials and compares every round with the first round, with
// the reference (the first draw's trials come first) and with the committed
// fingerprint.
type checker struct {
	cfg       runConfig
	log       io.Writer
	refs      []string
	first     []string
	attempted int
	failed    int
}

func (c *checker) check(round []drawResult, label string) {
	ts := trials(round)
	roundFP := roundFingerprint(round)
	deterministic := len(ts) > 0 && ts[0].fp != ""
	committedOK := !deterministic || c.cfg.expects == "" || roundFP == c.cfg.expects
	if !committedOK {
		fmt.Fprintf(c.log, "perfbench: %s: round fingerprint %s differs from the committed %s\n", label, roundFP, c.cfg.expects)
	}
	if c.first == nil && deterministic {
		for _, t := range ts {
			c.first = append(c.first, t.fp)
		}
	}
	for i, t := range ts {
		c.attempted++
		err := t.err
		switch {
		case err != nil:
		case !committedOK:
			err = fmt.Errorf("fingerprint differs from the committed value")
		case deterministic && (i >= len(c.first) || t.fp != c.first[i]):
			err = fmt.Errorf("fingerprint %s differs from the first round's", t.fp)
		case i < len(c.refs) && t.ref != c.refs[i]:
			err = fmt.Errorf("result differs from the experiments.TraceRun reference")
		}
		if err != nil {
			c.failed++
			fmt.Fprintf(c.log, "perfbench: %s trial %d failed: %v\n", label, i, err)
		}
	}
}

// measure runs the workload for the configured budget and assembles the
// report: end-to-end metrics from untraced rounds, or per-layer metrics
// from traced rounds next to untraced, CPU-profiled ones.
func measure(w workload, cfg runConfig, log io.Writer) report {
	c := &checker{cfg: cfg, log: log}
	// The first draw's inputs go through the reference harness first; the
	// untimed run doubles as a warm-up.
	if w.reference != nil {
		if err := guard(func() { c.refs = w.reference(drawSeed(cfg.seed, 0), cfg.scale) }); err != nil {
			c.failed++
			fmt.Fprintf(log, "perfbench: reference run failed: %v\n", err)
		}
		c.attempted += max(1, len(c.refs))
	}

	// Set-up is timed apart from the rounds, at least setupReps times and
	// for at least setupBudget, so that its median is steady although one
	// set-up can be a fraction of a millisecond.
	var setups []float64
	for i, began := 0, time.Now(); i < setupReps || time.Since(began) < setupBudget; i++ {
		t0 := time.Now()
		if err := guard(func() { w.setup(drawSeed(cfg.seed, i%w.draws), cfg.scale) }); err != nil {
			c.attempted++
			c.failed++
			fmt.Fprintf(log, "perfbench: set-up failed: %v\n", err)
			break
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	noTap := func() *tap { return nil }
	var plain, traced []drawResult
	var prof profileTally
	start := time.Now()
	var last time.Duration
	// Rounds repeat while another one fits in the budget; a run makes at
	// least one round, and a traced run at least one of each kind.
	for i := 0; len(plain) == 0 || (cfg.traced && len(traced) == 0) || time.Since(start)+last <= cfg.budget; i++ {
		runtime.GC()
		t0 := time.Now()
		switch {
		case !cfg.traced:
			r := w.round(cfg.seed, cfg.scale, noTap)
			c.check(r, fmt.Sprintf("round %d", i))
			plain = append(plain, r...)
		case i%2 == 0:
			var buf bytes.Buffer
			if err := pprof.StartCPUProfile(&buf); err != nil {
				panic(fmt.Sprintf("cpu profile: %v", err)) // only one profile runs at a time here
			}
			r := w.round(cfg.seed, cfg.scale, noTap)
			pprof.StopCPUProfile()
			if err := prof.add(buf.Bytes()); err != nil {
				fmt.Fprintf(log, "perfbench: %v\n", err)
				c.attempted++
				c.failed++
			}
			c.check(r, fmt.Sprintf("profiled round %d", i))
			plain = append(plain, r...)
		default:
			r := w.round(cfg.seed, cfg.scale, newTap)
			c.check(r, fmt.Sprintf("traced round %d", i))
			traced = append(traced, r...)
		}
		last = time.Since(t0)
	}

	rep := report{Attempted: c.attempted, Failed: c.failed, Metrics: map[string]metricValue{}}
	rep.Correct = c.failed == 0
	// Every metric is a median over draws: per-draw timings pooled across
	// rounds, and per-draw outputs, which repeat exactly in every round.
	if !cfg.traced {
		med := func(f func(r drawResult) float64) float64 { return median(plain, f) }
		vals := map[string]float64{
			"setup_s":            medianOf(setups),
			"run_s":              med(func(r drawResult) float64 { return r.cost.wallS }),
			"cpu_s":              med(func(r drawResult) float64 { return r.cost.cpuS }),
			"pkts_per_s":         med(func(r drawResult) float64 { return float64(r.pkts) / r.cost.wallS }),
			"alloc_mb":           med(func(r drawResult) float64 { return r.cost.allocB / 1e6 }),
			"heap_peak_mb":       med(func(r drawResult) float64 { return r.cost.heapPeakB / 1e6 }),
			"verus_mbps":         med(func(r drawResult) float64 { return r.q.verusMbps }),
			"verus_delay_p95_ms": med(func(r drawResult) float64 { return r.q.verusDelayP95ms }),
			"goodput_mbps":       med(func(r drawResult) float64 { return r.q.goodputMbps }),
			"rtt_p50_ms":         med(func(r drawResult) float64 { return r.q.rttP50ms }),
		}
		for _, m := range endToEnd {
			rep.Metrics[m.Name] = metricValue{Value: vals[m.Name], Unit: m.Unit}
		}
		return rep
	}

	vals := map[string]float64{}
	for _, m := range perLayer {
		name := m.Name
		vals[name] = median(traced, func(r drawResult) float64 { return r.layer[name] })
	}
	untracedRun := median(plain, func(r drawResult) float64 { return r.cost.wallS })
	tracedRun := median(traced, func(r drawResult) float64 { return r.cost.wallS })
	vals["trace.untraced_run_s"] = untracedRun
	vals["trace.traced_run_s"] = tracedRun
	vals["trace.overhead_s"] = tracedRun - untracedRun
	for g, share := range prof.shares() {
		vals["cpu_share."+g] = share
	}
	// Controllers built where no seam reaches them (inside experiments.Metro)
	// make no wrapped calls; their busy time comes from the profile.
	if vals["verus.calls"]+vals["tcp.calls"]+vals["sprout.calls"] == 0 {
		for _, g := range []string{"verus", "tcp", "sprout"} {
			vals[g+".busy_s"] = prof.seconds(g) / float64(len(plain)) // per draw
		}
	}
	for _, m := range perLayer {
		rep.Metrics[m.Name] = metricValue{Value: vals[m.Name], Unit: m.Unit}
	}
	return rep
}

const (
	setupReps   = 25
	setupBudget = 500 * time.Millisecond
)

func median(rs []drawResult, f func(r drawResult) float64) float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	return medianOf(v)
}

func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}
