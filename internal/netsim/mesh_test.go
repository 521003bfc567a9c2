package netsim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The mesh equivalence contract: for any topology and any workload, RunSingle
// (the reference merged-heap executor) and RunSharded at every shard count
// produce byte-identical per-cell event logs, final clocks, and cross-message
// counts. The table below exercises the protocol's sharp edges — events
// exactly on window boundaries, cross delays exactly at the lookahead, idle
// cells, grid-aligned and unaligned horizons — and the property/fuzz suites
// (mesh_equiv_test.go, mesh_fuzz_test.go) cover the random space.

// meshCase is one deterministic topology+workload. build wires events into a
// fresh mesh; add(cell, tag) appends a line to that cell's log stamped with
// the cell's current virtual time.
type meshCase struct {
	name      string
	cells     int
	lookahead time.Duration
	until     time.Duration
	build     func(m *Mesh, until time.Duration, add func(cell int, tag string))
}

func meshCases() []meshCase {
	return []meshCase{
		{
			// A message circulates cell→cell with delay exactly equal to the
			// lookahead, so every cross arrival lands exactly on a window
			// boundary — the half-open-window edge case. Local competitors are
			// scheduled at the same instants to exercise same-time tiebreaks
			// between a cross arrival and a locally created event.
			name:      "ping-pong-boundary",
			cells:     2,
			lookahead: 10 * time.Millisecond,
			until:     95 * time.Millisecond,
			build: func(m *Mesh, _ time.Duration, add func(int, string)) {
				var hop func(cell, n int)
				hop = func(cell, n int) {
					add(cell, fmt.Sprintf("hop%d", n))
					if n >= 30 {
						return
					}
					next := (cell + 1) % m.Cells()
					m.Send(cell, next, m.Lookahead(), Func(func() { hop(next, n+1) }), nil)
				}
				m.Cell(0).Schedule(0, Func(func() { hop(0, 0) }), nil)
				for k := 1; k <= 9; k++ {
					at := time.Duration(k) * m.Lookahead()
					cell := k % m.Cells()
					m.Cell(cell).Schedule(at, Func(func() { add(cell, "local") }), nil)
				}
			},
		},
		{
			// Only cell 0 has events; the rest must still reach `until` via
			// the null-message advance, and one late fan-out checks messages
			// into otherwise-idle timelines.
			name:      "fan-out-idle",
			cells:     6,
			lookahead: 7 * time.Millisecond,
			until:     100 * time.Millisecond,
			build: func(m *Mesh, _ time.Duration, add func(int, string)) {
				m.Cell(0).Schedule(40*time.Millisecond, Func(func() {
					add(0, "fan")
					for d := 1; d < m.Cells(); d++ {
						dst := d
						m.Send(0, dst, m.Lookahead()+time.Duration(dst)*time.Millisecond,
							Func(func() { add(dst, "leaf") }), nil)
					}
				}), nil)
			},
		},
		{
			// `until` is an exact multiple of the lookahead and events sit
			// exactly at `until`: the final inclusive pass must run them, and
			// cross sends from them land strictly beyond the run.
			name:      "grid-aligned-until",
			cells:     3,
			lookahead: 5 * time.Millisecond,
			until:     50 * time.Millisecond,
			build: func(m *Mesh, until time.Duration, add func(int, string)) {
				for i := 0; i < m.Cells(); i++ {
					cell := i
					m.Cell(cell).Schedule(until, Func(func() {
						add(cell, "at-until")
						// Arrival beyond `until`: must stay pending, not run.
						m.Send(cell, (cell+1)%m.Cells(), m.Lookahead(), Func(func() {
							add((cell+1)%m.Cells(), "beyond-until")
						}), nil)
					}), nil)
					m.Cell(cell).Schedule(0, Func(func() { add(cell, "at-zero") }), nil)
				}
			},
		},
		{
			// Dense periodic traffic on every cell (recurring timers) with
			// cross messages every few ticks — the heaviest table workload.
			name:      "storm",
			cells:     5,
			lookahead: 4 * time.Millisecond,
			until:     200 * time.Millisecond,
			build: func(m *Mesh, _ time.Duration, add func(int, string)) {
				for i := 0; i < m.Cells(); i++ {
					cell := i
					tick := 0
					m.Cell(cell).Every(time.Duration(1+cell)*time.Millisecond, func() {
						tick++
						add(cell, fmt.Sprintf("tick%d", tick))
						if tick%3 == 0 {
							dst := (cell + tick) % m.Cells()
							if dst != cell {
								n := tick
								m.Send(cell, dst, m.Lookahead()+time.Millisecond,
									Func(func() { add(dst, fmt.Sprintf("from%d#%d", cell, n)) }), nil)
							}
						}
					})
				}
			},
		},
		{
			// Many senders converge on cell 0 with arrivals at the identical
			// instant: delivery order must follow the creation-time order keys
			// (creating cell, then per-cell counter), not arrival plumbing.
			name:      "convergent-same-time",
			cells:     8,
			lookahead: 10 * time.Millisecond,
			until:     60 * time.Millisecond,
			build: func(m *Mesh, _ time.Duration, add func(int, string)) {
				for i := 1; i < m.Cells(); i++ {
					src := i
					m.Cell(src).Schedule(10*time.Millisecond, Func(func() {
						for j := 0; j < 3; j++ {
							n := j
							m.Send(src, 0, 2*m.Lookahead(), Func(func() {
								add(0, fmt.Sprintf("src%d#%d", src, n))
							}), nil)
						}
					}), nil)
				}
				m.Cell(0).Schedule(30*time.Millisecond, Func(func() { add(0, "local-competitor") }), nil)
			},
		},
	}
}

// meshRunResult is everything an executor run produces that the equivalence
// contract covers.
type meshRunResult struct {
	logs    [][]string
	nows    []time.Duration
	pending []int // per-cell heap backlog after the run (events beyond until)
	cross   uint64
}

// runMeshCase builds a fresh mesh for c and executes it with exec.
func runMeshCase(c meshCase, exec func(m *Mesh)) meshRunResult {
	m := NewMesh(c.cells, c.lookahead)
	logs := make([][]string, c.cells)
	add := func(cell int, tag string) {
		logs[cell] = append(logs[cell], fmt.Sprintf("%s@%v", tag, m.Cell(cell).Now()))
	}
	c.build(m, c.until, add)
	exec(m)
	r := meshRunResult{logs: logs, cross: m.CrossDelivered()}
	for i := 0; i < c.cells; i++ {
		r.nows = append(r.nows, m.Cell(i).Now())
		r.pending = append(r.pending, m.Cell(i).Pending())
	}
	return r
}

// executors enumerates the run strategies every case must agree across:
// the reference merged heap, sharded at several counts (including more
// shards than cells), split runs that stop and resume mid-simulation, and a
// mixed run that switches executor between segments.
func executors(c meshCase) map[string]func(m *Mesh) {
	ex := map[string]func(m *Mesh){
		"single": func(m *Mesh) { m.RunSingle(c.until) },
	}
	for _, k := range []int{1, 2, 3, 4, 8, 16} {
		k := k
		ex[fmt.Sprintf("sharded-%d", k)] = func(m *Mesh) { m.RunSharded(c.until, k) }
	}
	ex["sharded-4-split"] = func(m *Mesh) {
		m.RunSharded(c.until/3, 4)
		m.RunSharded(c.until, 4)
	}
	ex["mixed-single-then-sharded"] = func(m *Mesh) {
		m.RunSingle(c.until / 2)
		m.RunSharded(c.until, 3)
	}
	ex["mixed-sharded-then-single"] = func(m *Mesh) {
		m.RunSharded(c.until/2, 2)
		m.RunSingle(c.until)
	}
	return ex
}

func TestMeshExecutorEquivalence(t *testing.T) {
	for _, c := range meshCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			ref := runMeshCase(c, func(m *Mesh) { m.RunSingle(c.until) })
			if total := len(ref.logs[0]); c.cells > 0 && total == 0 && c.name != "fan-out-idle" {
				t.Fatalf("reference run produced no events in cell 0; workload is vacuous")
			}
			for name, exec := range executors(c) {
				got := runMeshCase(c, exec)
				if !reflect.DeepEqual(got.logs, ref.logs) {
					t.Errorf("%s: event logs diverge from single-heap reference\nref:  %v\ngot:  %v",
						name, ref.logs, got.logs)
				}
				if !reflect.DeepEqual(got.nows, ref.nows) {
					t.Errorf("%s: final clocks %v, want %v", name, got.nows, ref.nows)
				}
				if !reflect.DeepEqual(got.pending, ref.pending) {
					t.Errorf("%s: pending backlogs %v, want %v", name, got.pending, ref.pending)
				}
				if got.cross != ref.cross {
					t.Errorf("%s: %d cross messages delivered, want %d", name, got.cross, ref.cross)
				}
			}
		})
	}
}

// TestMeshNullMessageAdvance pins the liveness half of the protocol: cells
// with no events still reach every window edge and the final horizon.
func TestMeshNullMessageAdvance(t *testing.T) {
	m := NewMesh(4, 10*time.Millisecond)
	fired := false
	m.Cell(0).Schedule(25*time.Millisecond, Func(func() { fired = true }), nil)
	m.RunSharded(95*time.Millisecond, 4)
	if !fired {
		t.Fatal("scheduled event did not fire")
	}
	for i := 0; i < m.Cells(); i++ {
		if got := m.Cell(i).Now(); got != 95*time.Millisecond {
			t.Errorf("cell %d clock %v after run, want 95ms (null-message advance)", i, got)
		}
	}
	if m.Now() != 95*time.Millisecond {
		t.Errorf("mesh clock %v, want 95ms", m.Now())
	}
	if m.Windows() == 0 {
		t.Error("no windows recorded")
	}
}

// TestMeshConstructionRejections pins the fail-fast surface: invalid
// topologies and sends are construction-time panics with messages that name
// the problem, never silent misbehavior.
func TestMeshConstructionRejections(t *testing.T) {
	mustPanic := func(name, fragment string, f func()) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("no panic; want one mentioning %q", fragment)
				}
				msg := fmt.Sprint(r)
				if !strings.Contains(msg, fragment) {
					t.Fatalf("panic %q does not mention %q", msg, fragment)
				}
			}()
			f()
		})
	}
	mustPanic("zero-cells", "at least one cell", func() { NewMesh(0, time.Millisecond) })
	mustPanic("zero-lookahead", "zero-delay", func() { NewMesh(2, 0) })
	mustPanic("negative-lookahead", "zero-delay", func() { NewMesh(2, -time.Second) })
	mustPanic("sub-lookahead-delay", "below mesh lookahead", func() {
		m := NewMesh(2, 10*time.Millisecond)
		m.Send(0, 1, 9*time.Millisecond, Func(func() {}), nil)
	})
	mustPanic("unknown-dst", "unknown cell", func() {
		m := NewMesh(2, time.Millisecond)
		m.Send(0, 2, time.Millisecond, Func(func() {}), nil)
	})
	mustPanic("negative-dst", "unknown cell", func() {
		m := NewMesh(2, time.Millisecond)
		m.Send(0, -1, time.Millisecond, Func(func() {}), nil)
	})
	mustPanic("zero-shards", "shard count", func() {
		NewMesh(2, time.Millisecond).RunSharded(time.Second, 0)
	})
}

// TestMeshWatchdog is the deadlock/livelock check for the null-message
// protocol: under a dense 8-cell workload sharded 4 ways, (a) the run
// finishes within a generous wall-clock budget, (b) after every window
// barrier all cells sit exactly at the window horizon — no shard lags its
// peers by any amount, let alone more than one lookahead — and (c) horizons
// advance strictly monotonically in steps of at most one lookahead.
func TestMeshWatchdog(t *testing.T) {
	const lookahead = 5 * time.Millisecond
	const until = 500 * time.Millisecond
	m := NewMesh(8, lookahead)
	for i := 0; i < m.Cells(); i++ {
		cell := i
		n := 0
		m.Cell(cell).Every(time.Duration(1+cell%3)*time.Millisecond, func() {
			n++
			if n%5 == 0 {
				dst := (cell + 1) % m.Cells()
				m.Send(cell, dst, lookahead, Func(func() {}), nil)
			}
		})
	}
	var horizons []time.Duration
	m.windowHook = func(h time.Duration) {
		for i := 0; i < m.Cells(); i++ {
			if now := m.Cell(i).Now(); now != h {
				t.Errorf("cell %d at %v after barrier for horizon %v: shard stalled", i, now, h)
			}
		}
		horizons = append(horizons, h)
	}
	done := make(chan struct{})
	go func() {
		m.RunSharded(until, 4)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("RunSharded did not complete: null-message protocol deadlocked or livelocked")
	}
	if len(horizons) == 0 {
		t.Fatal("no window barriers observed")
	}
	prev := time.Duration(-1)
	for i, h := range horizons {
		// The final inclusive pass repeats the last horizon; every exclusive
		// window before it must advance by (0, lookahead].
		if i == len(horizons)-1 {
			if h != until {
				t.Errorf("final pass at %v, want %v", h, until)
			}
			break
		}
		if h <= prev {
			t.Errorf("window %d horizon %v did not advance past %v", i, h, prev)
		}
		if prev >= 0 && h-prev > lookahead {
			t.Errorf("window %d jumped %v (> lookahead %v): a shard could have seen an unsynchronized message", i, h-prev, lookahead)
		}
		prev = h
	}
	if m.Now() != until {
		t.Errorf("mesh clock %v after run, want %v", m.Now(), until)
	}
}

// TestMeshShardClamp checks that asking for more shards than cells degrades
// to one shard per cell rather than spawning empty workers.
func TestMeshShardClamp(t *testing.T) {
	m := NewMesh(2, time.Millisecond)
	ran := false
	m.Cell(1).Schedule(500*time.Microsecond, Func(func() { ran = true }), nil)
	m.RunSharded(2*time.Millisecond, 64)
	if !ran {
		t.Fatal("event lost under shard clamp")
	}
}

// TestOrderKeyRoundTrip pins the composite key codec: pack/unpack is the
// identity, keys preserve (cell, seq) lexicographic order, and both overflow
// guards trip.
func TestOrderKeyRoundTrip(t *testing.T) {
	samples := []struct {
		cell uint32
		seq  uint64
	}{
		{0, 0}, {0, 1}, {0, cellSeqMask}, {1, 0}, {1, cellSeqMask},
		{7, 12345}, {1<<20 - 1, 0}, {1<<20 - 1, cellSeqMask},
	}
	for _, s := range samples {
		k := orderKey(s.cell, s.seq)
		cell, seq := orderKeyParts(k)
		if cell != s.cell || seq != s.seq {
			t.Errorf("roundtrip (%d,%d) → %d → (%d,%d)", s.cell, s.seq, k, cell, seq)
		}
	}
	for i, a := range samples {
		for j, b := range samples {
			ka, kb := orderKey(a.cell, a.seq), orderKey(b.cell, b.seq)
			lexLess := a.cell < b.cell || (a.cell == b.cell && a.seq < b.seq)
			if (ka < kb) != lexLess {
				t.Errorf("key order disagrees with (cell,seq) order for samples %d,%d", i, j)
			}
		}
	}
	for name, f := range map[string]func(){
		"seq-overflow":  func() { orderKey(0, cellSeqMask+1) },
		"cell-overflow": func() { orderKey(1<<20, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestStandaloneSimKeysUnchanged guards the zero-cost property the golden
// digests depend on: a standalone Sim (cell id 0) issues order keys equal to
// its bare insertion counter, bit for bit.
func TestStandaloneSimKeysUnchanged(t *testing.T) {
	s := NewSim()
	for want := uint64(1); want <= 100; want++ {
		if got := s.nextKey(); got != want {
			t.Fatalf("standalone key %d, want bare counter %d", got, want)
		}
	}
}
