package netsim

import (
	"fmt"
	"testing"
	"time"
)

// runMeshWorkload is the fixed 8-cell workload behind BenchmarkMeshSharded
// and the alloc-ceiling pin: every cell runs a dense self-rescheduling timer
// train with synthetic per-event protocol work, and every fifth event sends
// a pooled packet to the next cell over the mesh. Cross-cell traffic rides
// Mesh.Send with a receiver + pooled packet, no closures, so the steady state
// exercises the PR 7 zero-alloc path end to end.
func runMeshWorkload(b *testing.B, shards, work int) {
	const (
		cells     = 8
		lookahead = time.Millisecond
		tick      = 50 * time.Microsecond
		until     = 100 * time.Millisecond
	)
	var totalEvents int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := NewMesh(cells, lookahead)
		counts := make([]int64, cells)
		sink := 0.0
		// One receiver per cell: counts the arrival and releases the packet
		// into the receiving cell's pool (ownership migrates with the packet).
		recvs := make([]ReceiverFunc, cells)
		for c := 0; c < cells; c++ {
			c := c
			sim := m.Cell(c)
			recvs[c] = func(p *Packet) {
				counts[c]++
				sim.FreePacket(p)
			}
		}
		for c := 0; c < cells; c++ {
			c := c
			sim := m.Cell(c)
			var step func()
			step = func() {
				counts[c]++
				// A dash of floating-point work stands in for per-packet
				// congestion-control arithmetic, so the benchmark measures
				// more than bare heap churn.
				x := float64(counts[c])
				for k := 0; k < work; k++ {
					x = x*1.0000001 + float64(k)
				}
				if c == 0 {
					sink += x // defeat dead-code elimination (single writer: cell 0)
				}
				if counts[c]%5 == 0 {
					dst := (c + 1) % cells
					p := sim.NewPacket(c, counts[c], 1400, sim.Now(), 0)
					m.Send(c, dst, lookahead, recvs[dst], p)
				}
				if sim.Now()+tick <= until {
					sim.After(tick, Func(step), nil)
				}
			}
			sim.After(tick, Func(step), nil)
		}
		if shards == 0 {
			m.RunSingle(until)
		} else {
			m.RunSharded(until, shards)
		}
		for _, n := range counts {
			totalEvents += n
		}
	}
	b.ReportMetric(float64(totalEvents)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkMeshSharded measures event throughput (events/sec, reported as a
// custom metric) of the mesh executors. The "light" variant (32 flops/event)
// is barrier-dominated — windowed execution beats the single-heap scan but
// extra workers do not pay; the "heavy" variant (2048 flops/event, the order
// of a real Verus profile lookup + window computation) is where shard
// parallelism shows through. The single-heap reference is the scaling
// baseline; BENCH_pr6.json records the pre-pool trajectory and
// BENCH_pr7.json the pooled one.
func BenchmarkMeshSharded(b *testing.B) {
	for _, w := range []struct {
		name string
		work int
	}{{"light", 32}, {"heavy", 2048}} {
		w := w
		b.Run(w.name+"/single-heap", func(b *testing.B) { runMeshWorkload(b, 0, w.work) })
		for _, shards := range []int{1, 2, 4, 8} {
			shards := shards
			b.Run(fmt.Sprintf("%s/shards-%d", w.name, shards), func(b *testing.B) { runMeshWorkload(b, shards, w.work) })
		}
	}
}

// meshAllocCeiling pins BenchmarkMeshSharded heavy/single-heap allocs/op.
// The pre-pool baseline was ~3,300 allocs/op (one boxed closure per
// cross-cell send plus per-packet event closures); the pooled path leaves
// only per-iteration setup — the mesh, cells, receivers, and first-lap
// warm-up of heaps, rings, and pools — observed at ~530/op. The ceiling
// sits just above that and well under a fifth of the baseline, so CI fails
// if per-packet allocation sneaks back onto the path.
const meshAllocCeiling = 600

// TestMeshShardedAllocCeiling is the bench-diff gate: it runs the heavy
// single-heap workload under testing.Benchmark and fails on regression above
// meshAllocCeiling. A Go test rather than CI-side benchmark parsing, so it
// guards local runs too.
func TestMeshShardedAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-diff gate skipped in -short")
	}
	res := testing.Benchmark(func(b *testing.B) { runMeshWorkload(b, 0, 2048) })
	if a := res.AllocsPerOp(); a > meshAllocCeiling {
		t.Fatalf("BenchmarkMeshSharded heavy/single-heap allocates %d/op, above the pinned ceiling %d (pre-pool baseline ~3300)", a, meshAllocCeiling)
	}
}
