package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// Fuzz coverage for the cross-shard handoff layer: the order-key codec that
// every cross message carries, and the executor-equivalence property under
// arbitrary topologies with timestamps pushed onto the lookahead grid (the
// window-boundary edge the conservative protocol must get exactly right).

// FuzzOrderKey exercises the composite key codec across the whole valid
// domain: pack/unpack must be the identity and uint64 comparison of packed
// keys must agree with lexicographic (cell, seq) comparison.
func FuzzOrderKey(f *testing.F) {
	f.Add(uint32(0), uint64(0), uint32(0), uint64(1))
	f.Add(uint32(1), uint64(0), uint32(0), uint64(1<<40))
	f.Add(uint32(1<<20-1), uint64(0), uint32(5), uint64(cellSeqMask))
	f.Fuzz(func(t *testing.T, cellA uint32, seqA uint64, cellB uint32, seqB uint64) {
		cellA, cellB = cellA%(1<<20), cellB%(1<<20)
		seqA, seqB = seqA&cellSeqMask, seqB&cellSeqMask
		ka, kb := orderKey(cellA, seqA), orderKey(cellB, seqB)
		if c, s := orderKeyParts(ka); c != cellA || s != seqA {
			t.Fatalf("roundtrip (%d,%d) → %d → (%d,%d)", cellA, seqA, ka, c, s)
		}
		lexLess := cellA < cellB || (cellA == cellB && seqA < seqB)
		if (ka < kb) != lexLess {
			t.Fatalf("packed order (%d<%d)=%v disagrees with lexicographic (%d,%d)<(%d,%d)=%v",
				ka, kb, ka < kb, cellA, seqA, cellB, seqB, lexLess)
		}
		if (ka == kb) != (cellA == cellB && seqA == seqB) {
			t.Fatalf("distinct (cell,seq) pairs collided: (%d,%d) and (%d,%d) → %d",
				cellA, seqA, cellB, seqB, ka)
		}
	})
}

// fuzzHop is one precomputed step of a cross-cell message chain. All
// randomness is drawn at construction time on a single goroutine; the
// runtime closures just walk the precomputed chain, so the workload itself
// can never introduce executor-dependent divergence.
type fuzzHop struct {
	dst   int
	delay time.Duration
}

// buildFuzzWorkload populates m with a workload derived deterministically
// from rng: scattered one-shot events (many on exact window-grid instants)
// and cross-cell chains whose delays are frequently exactly the lookahead,
// so arrivals land exactly on shard-boundary timestamps.
func buildFuzzWorkload(m *Mesh, rng *rand.Rand, until time.Duration, add func(cell int, tag string)) {
	n := m.Cells()
	L := m.Lookahead()
	gridOr := func() time.Duration {
		if rng.Intn(2) == 0 {
			// Exactly on the window grid, including 0 and `until`.
			k := rng.Intn(int(until/L) + 1)
			return time.Duration(k) * L
		}
		return time.Duration(rng.Int63n(int64(until) + 1))
	}
	crossDelay := func() time.Duration {
		if rng.Intn(2) == 0 {
			return L // arrival exactly one horizon ahead
		}
		return L + time.Duration(rng.Int63n(int64(2*L)))
	}
	for i := 0; i < 10+rng.Intn(30); i++ {
		cell := rng.Intn(n)
		tag := fmt.Sprintf("one%d", i)
		m.Cell(cell).Schedule(gridOr(), Func(func() { add(cell, tag) }), nil)
	}
	for c := 0; c < 3+rng.Intn(6); c++ {
		src := rng.Intn(n)
		start := gridOr()
		hops := make([]fuzzHop, 1+rng.Intn(12))
		for h := range hops {
			hops[h] = fuzzHop{dst: rng.Intn(n), delay: crossDelay()}
		}
		id := c
		var walk func(cell int, rest []fuzzHop)
		walk = func(cell int, rest []fuzzHop) {
			add(cell, fmt.Sprintf("chain%d", id))
			if len(rest) == 0 {
				return
			}
			hop := rest[0]
			if hop.dst == cell {
				// Same-cell step: a local event at exactly the lookahead
				// horizon, racing any cross arrivals at that instant.
				m.Cell(cell).After(hop.delay, Func(func() { walk(cell, rest[1:]) }), nil)
				return
			}
			m.Send(cell, hop.dst, hop.delay, Func(func() { walk(hop.dst, rest[1:]) }), nil)
		}
		m.Cell(src).Schedule(start, Func(func() { walk(src, hops) }), nil)
	}
}

// FuzzMeshCrossOrdering is the executor-equivalence property under fuzzed
// topologies: for any (seed, cells, lookahead, shards) the sharded run's
// per-cell logs, clocks, backlog, and cross counts must be byte-identical to
// the single-heap reference.
func FuzzMeshCrossOrdering(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(10), uint8(2))
	f.Add(int64(2), uint8(8), uint8(1), uint8(4))
	f.Add(int64(3), uint8(5), uint8(7), uint8(3))
	f.Add(int64(42), uint8(1), uint8(20), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, nc, lookMs, shards uint8) {
		cells := int(nc)%8 + 1
		L := time.Duration(int(lookMs)%20+1) * time.Millisecond
		k := int(shards)%8 + 1
		until := 20 * L // multiple of the lookahead: grid-aligned end

		run := func(exec func(m *Mesh, until time.Duration)) meshRunResult {
			m := NewMesh(cells, L)
			logs := make([][]string, cells)
			add := func(cell int, tag string) {
				logs[cell] = append(logs[cell], fmt.Sprintf("%s@%v", tag, m.Cell(cell).Now()))
			}
			buildFuzzWorkload(m, rand.New(rand.NewSource(seed)), until, add)
			exec(m, until)
			r := meshRunResult{logs: logs, cross: m.CrossDelivered()}
			for i := 0; i < cells; i++ {
				r.nows = append(r.nows, m.Cell(i).Now())
				r.pending = append(r.pending, m.Cell(i).Pending())
			}
			return r
		}
		ref := run(func(m *Mesh, until time.Duration) { m.RunSingle(until) })
		got := run(func(m *Mesh, until time.Duration) { m.RunSharded(until, k) })
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("sharded-%d diverges from single-heap reference on seed=%d cells=%d L=%v\nref: %+v\ngot: %+v",
				k, seed, cells, L, ref, got)
		}
	})
}

// FuzzMeshRejection pins the construction-time rejection surface under
// arbitrary inputs: non-positive lookahead (zero-delay links) must panic
// with the documented message, and valid constructions must never panic.
func FuzzMeshRejection(f *testing.F) {
	f.Add(int8(2), int64(0))
	f.Add(int8(3), int64(-5))
	f.Add(int8(1), int64(1))
	f.Fuzz(func(t *testing.T, nc int8, lookNs int64) {
		defer func() {
			r := recover()
			valid := nc > 0 && lookNs > 0
			if valid && r != nil {
				t.Fatalf("valid mesh (%d cells, %dns) panicked: %v", nc, lookNs, r)
			}
			if !valid && r == nil {
				t.Fatalf("invalid mesh (%d cells, %dns) accepted", nc, lookNs)
			}
		}()
		m := NewMesh(int(nc), time.Duration(lookNs))
		m.RunSharded(time.Duration(lookNs)*4, 2)
	})
}
