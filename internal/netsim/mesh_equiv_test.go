package netsim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments/runner"
	"repro/internal/faults"
	"repro/internal/netsim"
)

// Property-based executor equivalence over real simulation entities: random
// multi-cell topologies (1–8 cells), random CBR traffic with cross-cell
// forwarding, and random per-cell fault plans, built only from the exported
// netsim/faults API. For every seed the full observable state — per-cell
// delivery logs, flow counters, link and queue ledgers, fault counters — is
// hashed into one digest, and the digest must be identical for the
// single-heap reference and for every shard count 1–8. Two seeds are pinned
// as golden digests so cross-version drift is caught even if both executors
// drift together.

// equivCell is the per-cell plumbing of one random topology.
type equivCell struct {
	link    netsim.Link       // fault-wrapped bottleneck
	flink   *faults.Link      // the wrapper, for its counters (nil if no plan)
	inner   *netsim.FixedLink // the raw link, for Delivered/Lost
	queue   netsim.Queue      //
	metrics []*netsim.FlowMetrics
	log     []string
}

func equivQueueDrops(q netsim.Queue) int64 {
	switch q := q.(type) {
	case *netsim.DropTail:
		return int64(q.Drops)
	case *netsim.RED:
		return int64(q.Drops)
	default:
		panic("unknown queue type")
	}
}

// randomFaultPlan draws a fault plan (possibly nil) with sorted,
// non-overlapping outage/handover windows and stochastic impairments.
func randomFaultPlan(rng *rand.Rand, horizon time.Duration) *faults.Plan {
	if rng.Intn(3) == 0 {
		return nil
	}
	p := &faults.Plan{Name: "equiv-random"}
	at := time.Duration(rng.Int63n(int64(horizon / 4)))
	for i := 0; i < rng.Intn(4); i++ {
		dur := time.Duration(1+rng.Int63n(100)) * time.Millisecond
		kind := faults.Outage
		if rng.Intn(2) == 0 {
			kind = faults.Handover
		}
		p.Events = append(p.Events, faults.Event{Kind: kind, At: at, Dur: dur})
		at += dur + time.Duration(1+rng.Int63n(200))*time.Millisecond
	}
	if rng.Intn(2) == 0 {
		p.Loss = &faults.GilbertElliott{
			PGoodBad: rng.Float64() * 0.05,
			PBadGood: 0.1 + rng.Float64()*0.5,
			LossGood: rng.Float64() * 0.01,
			LossBad:  0.1 + rng.Float64()*0.4,
		}
	}
	if rng.Intn(2) == 0 {
		p.CorruptProb = rng.Float64() * 0.02
	}
	if rng.Intn(2) == 0 {
		p.DupProb = rng.Float64() * 0.02
	}
	if rng.Intn(2) == 0 {
		p.ReorderProb = rng.Float64() * 0.05
		p.ReorderDelay = time.Duration(1+rng.Int63n(20)) * time.Millisecond
	}
	return p
}

// buildEquivTopology wires a random topology into m, drawing every random
// choice from rng at construction time. Runtime behavior (cross-cell
// forwarding) depends only on packet fields, so it cannot diverge between
// executors. Flow ids encode the origin cell as flow/100; a delivered packet
// whose origin is the local cell and whose Seq%3 == 0 is handed to the next
// cell's link over the mesh, so cross-shard traffic flows continuously.
func buildEquivTopology(rng *rand.Rand, m *Mesh, stop time.Duration) []*equivCell {
	n := m.Cells()
	cells := make([]*equivCell, n)
	fwdDelay := make([]time.Duration, n)
	for i := range fwdDelay {
		fwdDelay[i] = m.Lookahead() + time.Duration(rng.Int63n(int64(5*time.Millisecond)))
	}
	for i := 0; i < n; i++ {
		i := i
		ec := &equivCell{}
		cells[i] = ec
		sim := m.Cell(i)
		if rng.Intn(2) == 0 {
			ec.queue = netsim.NewDropTail(30_000 + rng.Intn(200_000))
		} else {
			min := 10_000 + rng.Intn(40_000)
			ec.queue = netsim.NewRED(min, min*2+rng.Intn(100_000), 0.02+rng.Float64()*0.2, rng.Int63())
		}
		rate := 2 + rng.Float64()*20
		prop := time.Duration(rng.Intn(30)) * time.Millisecond
		loss := 0.0
		if rng.Intn(3) == 0 {
			loss = rng.Float64() * 0.03
		}
		recv := netsim.ReceiverFunc(func(p *netsim.Packet) {
			ec.log = append(ec.log, fmt.Sprintf("f%d s%d @%v", p.Flow, p.Seq, sim.Now()))
			if n > 1 && p.Flow/100 == i && p.Seq%3 == 0 {
				dst := (i + 1 + int(p.Seq)%(n-1)) % n
				pkt := p
				m.Send(i, dst, fwdDelay[i], netsim.Func(func() { cells[dst].link.Send(pkt) }), nil)
			}
		})
		plan := randomFaultPlan(rng, stop)
		mk := func(dst netsim.Receiver) netsim.Link {
			ec.inner = netsim.NewFixedLink(sim, ec.queue, rate, prop, dst, rng.Int63())
			if loss > 0 {
				ec.inner.SetLossProb(loss)
			}
			return ec.inner
		}
		if plan != nil {
			ec.flink = faults.Wrap(sim, plan, rng.Int63(), recv, mk)
			ec.link = ec.flink
		} else {
			ec.link = mk(recv)
		}
		for j := 0; j < 1+rng.Intn(3); j++ {
			_, fm := netsim.NewCBR(sim, i*100+j, ec.link, 300+rng.Intn(1100),
				0.5+rng.Float64()*4,
				time.Duration(rng.Int63n(int64(200*time.Millisecond))), stop, 0, 0)
			ec.metrics = append(ec.metrics, fm)
		}
	}
	return cells
}

// Mesh aliases keep the harness readable inside the external test package.
type Mesh = netsim.Mesh

// equivDigest hashes everything the equivalence contract covers into one
// comparable string.
func equivDigest(m *Mesh, cells []*equivCell) string {
	h := sha256.New()
	for i, ec := range cells {
		fmt.Fprintf(h, "cell %d now=%v pending=%d\n", i, m.Cell(i).Now(), m.Cell(i).Pending())
		for _, line := range ec.log {
			fmt.Fprintln(h, line)
		}
		fmt.Fprintf(h, "link delivered=%d lost=%d qdrops=%d qlen=%d\n",
			ec.inner.Delivered, ec.inner.Lost, equivQueueDrops(ec.queue), ec.queue.Len())
		if ec.flink != nil {
			fmt.Fprintf(h, "faults %+v\n", ec.flink.Counters)
		}
		for _, fm := range ec.metrics {
			fmt.Fprintf(h, "flow %d sent=%d bytes=%d\n", fm.Flow, fm.Sent, fm.Throughput.TotalBytes())
		}
	}
	fmt.Fprintf(h, "cross=%d\n", m.CrossDelivered())
	return hex.EncodeToString(h.Sum(nil))
}

// runEquivTrial builds the seed's topology on a fresh mesh and runs it with
// exec, returning the state digest.
func runEquivTrial(seed int64, exec func(m *Mesh, until time.Duration)) string {
	rng := runner.NewRand(seed)
	cellN := 1 + rng.Intn(8)
	lookahead := time.Duration(1+rng.Intn(10)) * time.Millisecond
	m := netsim.NewMesh(cellN, lookahead)
	const stop = 1500 * time.Millisecond
	const until = 2 * time.Second
	cells := buildEquivTopology(rng, m, stop)
	exec(m, until)
	return equivDigest(m, cells)
}

// equivGolden pins two random-topology digests. If an intentional behavior
// change moves them, re-derive with:
//
//	go test ./internal/netsim/ -run TestMeshEquivalenceProperty -v
//
// and copy the logged digests here.
var equivGolden = map[int64]string{
	1: "3271f817e601ebcd6216c36d68ae24918d152e52d9c05404869e582ae61b9b84",
	2: "80bfe742d0f439a724586c7bbae2647f8f78b346da512a2eaed502cbbb902778",
}

func TestMeshEquivalenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			ref := runEquivTrial(seed, func(m *Mesh, until time.Duration) { m.RunSingle(until) })
			t.Logf("seed %d digest %s", seed, ref)
			if want, ok := equivGolden[seed]; ok && ref != want {
				t.Errorf("single-heap digest drifted from golden:\nwant %s\ngot  %s", want, ref)
			}
			for shards := 1; shards <= 8; shards++ {
				got := runEquivTrial(seed, func(m *Mesh, until time.Duration) { m.RunSharded(until, shards) })
				if got != ref {
					t.Errorf("sharded-%d digest %s != single-heap %s", shards, got, ref)
				}
			}
			// Split execution across several calls must not change anything
			// either (clock resumption + mid-run drains).
			got := runEquivTrial(seed, func(m *Mesh, until time.Duration) {
				m.RunSharded(until/4, 3)
				m.RunSingle(until / 2)
				m.RunSharded(until, 5)
			})
			if got != ref {
				t.Errorf("segmented mixed-executor digest %s != single-heap %s", got, ref)
			}
		})
	}
}

// TestMeshEquivalenceFlowStats spot-checks that equivalence extends to the
// externally visible flow statistics a harness would report, not only the
// hashed internal state.
func TestMeshEquivalenceFlowStats(t *testing.T) {
	collect := func(exec func(m *Mesh, until time.Duration)) string {
		rng := runner.NewRand(99)
		m := netsim.NewMesh(4, 5*time.Millisecond)
		cells := buildEquivTopology(rng, m, time.Second)
		exec(m, 1500*time.Millisecond)
		var b strings.Builder
		for _, ec := range cells {
			for _, fm := range ec.metrics {
				fmt.Fprintf(&b, "flow %d sent=%d mean=%.9f delayN=%d\n",
					fm.Flow, fm.Sent, fm.MeanMbps(1500*time.Millisecond), fm.Delay.N())
			}
		}
		return b.String()
	}
	ref := collect(func(m *Mesh, until time.Duration) { m.RunSingle(until) })
	for _, shards := range []int{1, 4} {
		shards := shards
		if got := collect(func(m *Mesh, until time.Duration) { m.RunSharded(until, shards) }); got != ref {
			t.Errorf("sharded-%d flow stats diverge:\nref:\n%s\ngot:\n%s", shards, ref, got)
		}
	}
}
