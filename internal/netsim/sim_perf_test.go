package netsim

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// refHeap is the pre-PR2 event heap, verbatim: container/heap over a slice
// with interface boxing. It pins the 4-ary heap's pop order — (at, seq) is a
// strict total order, so any correct heap must produce the identical
// sequence.
type refEvent struct {
	at  time.Duration
	seq uint64
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestHeapMatchesContainerHeap drives the Sim's 4-ary heap and the reference
// container/heap with the same randomized interleaving of pushes and pops
// (duplicate times included, so the seq tiebreak is load-bearing) and
// requires identical pop sequences.
func TestHeapMatchesContainerHeap(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		s := NewSim()
		var ref refHeap
		var seq uint64
		var got, want []refEvent
		for op := 0; op < 2000; op++ {
			if s.Pending() == 0 || rng.Intn(3) > 0 {
				at := time.Duration(rng.Intn(50)) // dense: many ties
				seq++
				s.push(event{at: at, seq: seq})
				heap.Push(&ref, refEvent{at: at, seq: seq})
			} else {
				e := s.pop()
				got = append(got, refEvent{e.at, e.seq})
				want = append(want, heap.Pop(&ref).(refEvent))
			}
		}
		for s.Pending() > 0 {
			e := s.pop()
			got = append(got, refEvent{e.at, e.seq})
			want = append(want, heap.Pop(&ref).(refEvent))
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: popped %d events, reference popped %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: pop %d = %+v, reference %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestEventSize pins the one event shape at 40 bytes (time, order key, a
// two-word handler, a packet pointer): every sift moves whole events, so a
// new field is a cost on every push and pop, not only a line of code.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 40 {
		t.Fatalf("event is %d bytes, want 40", got)
	}
}

// TestScheduleZeroAllocs asserts the steady-state schedule/run cycle
// allocates nothing: pushing into warmed slice capacity and popping must not
// touch the allocator (the old container/heap boxed every event).
func TestScheduleZeroAllocs(t *testing.T) {
	s := NewSim()
	fn := func() {}
	// Warm the slice capacity past anything the loop below reaches.
	for i := 0; i < 256; i++ {
		s.Schedule(time.Duration(i), Func(fn), nil)
	}
	s.Run(time.Duration(256))
	next := time.Duration(256)
	allocs := testing.AllocsPerRun(1000, func() {
		next++
		s.Schedule(next, Func(fn), nil)
		s.Run(next)
	})
	if allocs != 0 {
		t.Errorf("steady-state Schedule+Run: %v allocs/run, want 0", allocs)
	}
}

// TestEveryTickZeroAllocs asserts a recurring timer's ticks allocate
// nothing: one timer object lives for the registration's lifetime and each
// firing reschedules the same entry.
func TestEveryTickZeroAllocs(t *testing.T) {
	s := NewSim()
	ticks := 0
	timer := s.Every(time.Millisecond, func() { ticks++ })
	defer timer.Stop()
	s.Run(10 * time.Millisecond) // warm
	until := 10 * time.Millisecond
	allocs := testing.AllocsPerRun(1000, func() {
		until += time.Millisecond
		s.Run(until)
	})
	if allocs != 0 {
		t.Errorf("steady-state Every tick: %v allocs/run, want 0", allocs)
	}
	if ticks < 1000 {
		t.Fatalf("timer did not tick (ticks=%d)", ticks)
	}
}

// TestEveryStopReleasesEntry pins the stop semantics across the timer
// rewrite: a stopped timer's already-queued entry drains without firing and
// without rescheduling.
func TestEveryStopReleasesEntry(t *testing.T) {
	s := NewSim()
	ticks := 0
	timer := s.Every(time.Millisecond, func() { ticks++ })
	s.Run(3 * time.Millisecond)
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3", ticks)
	}
	timer.Stop()
	s.Run(10 * time.Millisecond)
	if ticks != 3 {
		t.Errorf("ticks after stop = %d, want 3", ticks)
	}
	if got := s.Pending(); got != 0 {
		t.Errorf("stopped timer left %d pending events", got)
	}
}

// TestEveryStopFromCallback pins stopping a timer from inside its own
// callback: the current firing completes, no reschedule happens.
func TestEveryStopFromCallback(t *testing.T) {
	s := NewSim()
	ticks := 0
	var timer *Timer
	timer = s.Every(time.Millisecond, func() {
		ticks++
		if ticks == 2 {
			timer.Stop()
		}
	})
	s.Run(10 * time.Millisecond)
	if ticks != 2 {
		t.Errorf("ticks = %d, want 2 (stop from callback must halt rescheduling)", ticks)
	}
}
