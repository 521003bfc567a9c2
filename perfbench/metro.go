package main

import (
	"fmt"
	"time"

	"repro/internal/cellular"
	"repro/internal/experiments"
	"repro/internal/experiments/runner"
)

// metroFlows is the flow count of a metro-city point. A 1000-flow point
// takes about 7.5 s (three protocols), so a run could afford only three
// draws, and its medians spread by up to 22% between seeds; 500 flows
// leave room for six.
const metroFlows = 500

// metroOptions is one metro point: 8 LTE sectors, churn 0.3, two shards,
// trials run serially. HandoverScale must stay set: at the natural handover
// spacing a 3 s point has no handovers and no cross-cell messages, and the
// mesh goes unmeasured.
func metroOptions(seed int64, scale float64) experiments.MetroOptions {
	return experiments.MetroOptions{
		Sectors:       8,
		FlowCounts:    []int{max(8, int(metroFlows*scale))},
		Duration:      max(time.Second, scaled(3*time.Second, scale)),
		Shards:        2,
		Tech:          cellular.TechLTE,
		HandoverScale: 0.05,
		ChurnFrac:     0.3,
		Seed:          seed,
		Parallel:      1,
	}
}

// metroSetup repeats the point's set-up outside experiments.Metro, which
// builds and runs in one call: the topology of each protocol's trial (seeded
// as the harness seeds it), every sector's channel trace, and one controller
// per flow. It returns the channel-trace time and opportunity count.
func metroSetup(opts experiments.MetroOptions) (traceS float64, opportunities int) {
	for pi, mk := range []experiments.Maker{experiments.VerusMaker(6), experiments.CubicMaker(), experiments.SproutMaker()} {
		topo, err := cellular.NewMetro(cellular.MetroConfig{
			Sectors:       opts.Sectors,
			Users:         opts.FlowCounts[0],
			Tech:          opts.Tech,
			Operator:      cellular.OperatorB,
			MeanMbps:      40,
			Horizon:       opts.Duration,
			HandoverScale: opts.HandoverScale,
			ChurnFrac:     opts.ChurnFrac,
			Seed:          runner.DeriveSeed(opts.Seed, int64(pi)),
		})
		if err != nil {
			panic(err) // the options are constants of this file
		}
		t0 := time.Now()
		for _, s := range topo.Sectors {
			opportunities += len(cellular.NewModel(s.Channel).Trace(opts.Duration).Ops)
		}
		traceS += time.Since(t0).Seconds()
		for range topo.Users {
			mk.New()
		}
	}
	return traceS, opportunities
}

func metroRun(seed int64, scale float64, _ *tap) drawResult {
	rr := drawResult{layer: map[string]float64{}}
	opts := metroOptions(seed, scale)
	traceS, ops := metroSetup(opts)
	rr.layer["cellular.trace_s"] = traceS
	rr.layer["cellular.opportunities"] = float64(ops)

	var t trialOut
	if err := guard(func() {
		m := startMeter()
		res, err := experiments.Metro(opts)
		rr.cost.add(m.end())
		if err != nil {
			t.err = err
			return
		}
		h := newHasher()
		h.str(res.Render())
		h.str(res.RenderAttribution())
		for _, p := range res.Points {
			h.i64(p.Handovers, int64(p.CrossMsgs), p.Attrib.Count)
			rr.pkts += p.Attrib.Count
			rr.layer["mesh.handovers"] += float64(p.Handovers)
			rr.layer["mesh.cross_msgs"] += float64(p.CrossMsgs)
			rr.q.goodputMbps += p.AggMbps / float64(len(res.Points))
			rr.q.rttP50ms += 1000 * (p.DelayQuantiles[2] + baseOneWay.Seconds()) / float64(len(res.Points))
			if p.Protocol == experiments.VerusMaker(6).Name {
				rr.q.verusMbps = p.AggMbps / float64(p.Flows)
				rr.q.verusDelayP95ms = 1000 * p.DelayQuantiles[5]
			}
			// The attribution ledger is exact: every delivered packet's delay
			// components sum to its measured one-way delay.
			if p.Attrib.Violations != 0 || p.Attrib.Negatives != 0 || p.Attrib.Count == 0 {
				t.err = fmt.Errorf("%s: %d packets, %d attribution violations, %d negative components",
					p.Protocol, p.Attrib.Count, p.Attrib.Violations, p.Attrib.Negatives)
			}
		}
		if rr.layer["mesh.cross_msgs"] == 0 {
			t.err = fmt.Errorf("no cross-cell messages: the mesh went unmeasured")
		}
		t.fp = h.sum()
	}); err != nil {
		t.err = err
	}
	rr.trials = append(rr.trials, t)
	return rr
}
