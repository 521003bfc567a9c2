package netsim

import (
	"testing"
	"time"
)

// BenchmarkScheduleRun measures raw event-loop throughput: push b.N
// one-shot events in time order and drain them.
func BenchmarkScheduleRun(b *testing.B) {
	s := NewSim()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(time.Duration(i), Func(fn), nil)
	}
	s.Run(time.Duration(b.N))
}

// BenchmarkScheduleRunDeep measures event-loop throughput with a standing
// population of 1024 pending events, so every push and pop walks a
// non-trivial heap — the regime the simulator actually runs in (per-packet
// service, propagation, ack, RTO events all in flight at once).
func BenchmarkScheduleRunDeep(b *testing.B) {
	s := NewSim()
	fn := func() {}
	const standing = 1024
	for i := 0; i < standing; i++ {
		s.Schedule(time.Duration(i), Func(fn), nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Pop the earliest event and push a replacement at the back, keeping
		// the heap at a constant depth.
		s.Schedule(time.Duration(standing+i), Func(fn), nil)
		s.Run(time.Duration(i + 1))
	}
}

// BenchmarkEveryTick measures the recurring-timer path: one Every timer
// ticking b.N times, the pattern behind every protocol's epoch tick and the
// RTO scanner.
func BenchmarkEveryTick(b *testing.B) {
	s := NewSim()
	ticks := 0
	timer := s.Every(time.Millisecond, func() { ticks++ })
	defer timer.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(time.Duration(b.N) * time.Millisecond)
	if ticks < b.N {
		b.Fatalf("ticks = %d, want >= %d", ticks, b.N)
	}
}
