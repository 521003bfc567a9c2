package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// tiny shrinks every workload so the whole suite runs in seconds.
const tiny = 0.05

var update = flag.Bool("update", false, "rewrite fingerprints.json for seeds 1-10 at full scale")

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			var log bytes.Buffer
			rep := measure(workloads[name], runConfig{seed: 3, scale: tiny, budget: time.Millisecond, traced: traced}, &log)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					name, traced, rep.Correct, rep.Attempted, rep.Failed, log.String())
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(rep.Metrics), len(want))
			}
			var out bytes.Buffer
			printTable(&out, rep)
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m.Name, got, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
				if !strings.Contains(out.String(), m.Name+" ") || !strings.Contains(out.String(), " "+m.Unit+"\n") {
					t.Errorf("%s traced=%v: printed table lacks %s with unit %s", name, traced, m.Name, m.Unit)
				}
			}
		}
	}
}

func TestPerturbedFingerprintFails(t *testing.T) {
	for _, name := range []string{"cell-bloat", "metro-city", "chaos-obs"} {
		w := workloads[name]
		fp := roundFingerprint(w.round(5, tiny, func() *tap { return nil }))
		cfg := runConfig{seed: 5, scale: tiny, budget: time.Millisecond, expects: fp}
		if rep := measure(w, cfg, &bytes.Buffer{}); rep.Failed != 0 {
			t.Errorf("%s: %d of %d trials failed against their own fingerprint", name, rep.Failed, rep.Attempted)
		}
		flipped := []byte(fp)
		flipped[0] ^= 1
		cfg.expects = string(flipped)
		rep := measure(w, cfg, &bytes.Buffer{})
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: perturbed fingerprint gave correct=%v, %d of %d trials failed", name, rep.Correct, rep.Failed, rep.Attempted)
		}
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !equalDefs(b.EndToEnd, endToEnd) || !equalDefs(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json metrics differ from the ones the benchmark reports")
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
}

func equalDefs(a, b []metricDef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBadArgumentsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "cell-bloat", "--trace", "2"},
		{"--workload", "cell-bloat", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := mainErr(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no result", args, code, out.String())
		}
	}
}

// TestUpdateFingerprints rewrites fingerprints.json from the current code
// when run with -update; the benchmark runs compare against it.
func TestUpdateFingerprints(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite fingerprints.json")
	}
	fps := map[string]map[int64]string{}
	for _, name := range workloadNames() {
		w := workloads[name]
		for seed := int64(1); seed <= 10; seed++ {
			r := w.round(seed, 1, func() *tap { return nil })
			ts := trials(r)
			if len(ts) == 0 || ts[0].fp == "" {
				break // not deterministic
			}
			for _, tr := range ts {
				if tr.err != nil {
					t.Fatalf("%s seed %d: %v", name, seed, tr.err)
				}
			}
			if fps[name] == nil {
				fps[name] = map[int64]string{}
			}
			fps[name][seed] = roundFingerprint(r)
		}
	}
	out, err := json.MarshalIndent(fps, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("fingerprints.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
