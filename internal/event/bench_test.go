package event

import (
	"testing"
)

// nop is a package-level callback: taking its address never allocates, so
// the benchmarks and alloc ceilings below measure the engine, not the call
// site.
func nop() {}

func nopArg(any) {}

// TestAllocsSteadyStateZero enforces the headline allocation contract: once
// the ring buckets are warm, scheduling and firing allocates nothing — for
// both the closure form (At with a non-capturing func) and the pre-bound
// form (AtFn with a pointer argument), fired by Step or by Run.
func TestAllocsSteadyStateZero(t *testing.T) {
	s := New()
	arg := new(int)
	// Warm-up: grow every bucket's backing slice once.
	for i := 0; i < 4*ringSize; i++ {
		s.At(s.Now()+Time(i%128), nop)
	}
	s.Run()

	if avg := testing.AllocsPerRun(1000, func() {
		s.At(s.Now()+3, nop)
		s.Step()
	}); avg != 0 {
		t.Errorf("steady-state At+Step: %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		s.AtFn(s.Now()+3, nopArg, arg)
		s.Step()
	}); avg != 0 {
		t.Errorf("steady-state AtFn+Step: %v allocs/op, want 0", avg)
	}
	// Run drains ring buckets and the far heap; warm the heap's backing
	// slice first.
	s.At(s.Now()+2*ringSize, nop)
	s.At(s.Now()+2*ringSize+1, nop)
	s.Run()
	if avg := testing.AllocsPerRun(1000, func() {
		s.At(s.Now()+3, nop)
		s.AtFn(s.Now()+3, nopArg, arg)
		s.AtFn(s.Now()+ringSize+5, nopArg, arg)
		s.Run()
	}); avg != 0 {
		t.Errorf("steady-state At/AtFn+Run: %v allocs/op, want 0", avg)
	}
}

// benchEngine schedules fanout events per fired event at mixed deltas and
// steps through count events total.
func benchEngine(b *testing.B, fanout int, deltas []Time) {
	b.ReportAllocs()
	s := New()
	pending := 0
	var tick func()
	tick = func() {
		pending--
		for i := 0; i < fanout && pending < 4096; i++ {
			s.After(deltas[int(s.Fired)%len(deltas)], tick)
			pending++
		}
	}
	s.After(1, tick)
	pending++
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Step() {
			b.Fatal("queue drained")
		}
	}
}

// BenchmarkStepRing exercises the calendar ring only (all deltas inside the
// window).
func BenchmarkStepRing(b *testing.B) {
	benchEngine(b, 1, []Time{1, 2, 3, 7, 16, 150})
}

// BenchmarkStepMixedFar mixes ring deltas with heap-fallback deltas, as a
// congested NoC does.
func BenchmarkStepMixedFar(b *testing.B) {
	benchEngine(b, 1, []Time{1, 3, 16, 150, ringSize + 13, 2 * ringSize})
}

// BenchmarkStepFanout stresses bucket growth and drain with a branching
// event tree.
func BenchmarkStepFanout(b *testing.B) {
	benchEngine(b, 2, []Time{1, 2, 5, 11})
}

// BenchmarkScheduleAtFn measures the pre-bound scheduling path alone.
func BenchmarkScheduleAtFn(b *testing.B) {
	b.ReportAllocs()
	s := New()
	arg := new(int)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AtFn(s.Now()+2, nopArg, arg)
		s.Step()
	}
}
