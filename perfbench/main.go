// Command perfbench is the repository's standing benchmark. It runs one
// named workload for a fixed wall-clock budget, checks every trial's output,
// and prints the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run) as one JSON object on the last line of standard output:
//
//	go build -o perfbench . && ./perfbench --workload cell-bloat --seed 1 --seconds 20 --trace 0
//
// README.md in this directory records why each workload exists and which
// per-layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics of an untraced run, in print order. Every
// workload reports each of them; README.md defines them per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"pkts_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"heap_peak_mb", "MB"},
	{"verus_mbps", "Mbps"},
	{"verus_delay_p95_ms", "ms"},
	{"goodput_mbps", "Mbps"},
	{"rtt_p50_ms", "ms"},
}

// perLayer are the metrics of a traced run, in print order. A layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"trace.untraced_run_s", "s"},
	{"trace.traced_run_s", "s"},
	{"trace.overhead_s", "s"},
	{"netsim.self_s", "s"},
	{"netsim.link_send_calls", "count"},
	{"netsim.link_send_s", "s"},
	{"netsim.deliver_calls", "count"},
	{"netsim.deliver_s", "s"},
	{"netsim.pkts_sent", "count"},
	{"netsim.pkts_delivered", "count"},
	{"netsim.queue_drops", "count"},
	{"netsim.losses", "count"},
	{"netsim.timeouts", "count"},
	{"netsim.pool_gets", "count"},
	{"netsim.pool_allocated", "count"},
	{"cc.on_ack", "count"},
	{"cc.on_loss", "count"},
	{"cc.on_timeout", "count"},
	{"cc.tick", "count"},
	{"cc.allowance", "count"},
	{"cc.send_tag", "count"},
	{"cc.on_send", "count"},
	{"verus.calls", "count"},
	{"verus.busy_s", "s"},
	{"verus.epochs", "count"},
	{"verus.refits", "count"},
	{"tcp.calls", "count"},
	{"tcp.busy_s", "s"},
	{"sprout.calls", "count"},
	{"sprout.busy_s", "s"},
	{"mesh.cross_msgs", "count"},
	{"mesh.handovers", "count"},
	{"faults.send_s", "s"},
	{"faults.send_dropped", "count"},
	{"faults.queue_drained", "count"},
	{"faults.egress_dropped", "count"},
	{"faults.burst_lost", "count"},
	{"faults.corrupted", "count"},
	{"faults.duplicated", "count"},
	{"faults.reordered", "count"},
	{"faults.released", "count"},
	{"faults.held", "count"},
	{"faults.reorder_pending", "count"},
	{"faults.delivered", "count"},
	{"obs.events", "count"},
	{"obs.dropped", "count"},
	{"cellular.trace_s", "s"},
	{"cellular.opportunities", "count"},
	{"transport.sent", "count"},
	{"transport.acked", "count"},
	{"transport.retransmits", "count"},
	{"transport.losses", "count"},
	{"transport.timeouts", "count"},
	{"transport.unique_pkts", "count"},
	{"transport.rtt_p99_ms", "ms"},
	{"cpu_share.netsim.host", "%"},
	{"cpu_share.netsim.heap", "%"},
	{"cpu_share.netsim.link", "%"},
	{"cpu_share.netsim.mesh", "%"},
	{"cpu_share.verus", "%"},
	{"cpu_share.spline", "%"},
	{"cpu_share.tcp", "%"},
	{"cpu_share.sprout", "%"},
	{"cpu_share.faults", "%"},
	{"cpu_share.obs", "%"},
	{"cpu_share.cellular", "%"},
	{"cpu_share.transport", "%"},
	{"cpu_share.experiments", "%"},
	{"cpu_share.runtime.gc", "%"},
	{"cpu_share.other", "%"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line the benchmark prints last.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "wall-clock seconds of measured rounds")
	traceFlag := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (valid: %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive, got %g\n", *seconds)
		return 2
	}
	fps, err := loadFingerprints()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		scale:   1,
		budget:  time.Duration(*seconds * float64(time.Second)),
		traced:  *traceFlag == 1,
		expects: fps[*name][*seed],
	}
	rep := measure(w, cfg, stderr)
	printTable(stdout, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// printTable writes every metric by name with its unit, for people; the
// JSON line that follows is for machines.
func printTable(w io.Writer, rep report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "trials attempted %d, failed %d, correct %v\n", rep.Attempted, rep.Failed, rep.Correct)
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
