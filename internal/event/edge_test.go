package event

import (
	"testing"
)

// The calendar ring covers deltas in [0, ringSize); these tests walk the
// boundaries between the ring and the far heap, where an ordering or
// bucket-indexing bug would hide from the straight-line tests.

// TestRingHeapBoundaries table-drives schedules around the ring window edge
// and checks both firing order and firing times.
func TestRingHeapBoundaries(t *testing.T) {
	cases := []struct {
		name string
		// deltas are scheduled from time 0 in the listed order; events must
		// fire in (time, scheduling) order.
		deltas []Time
	}{
		{"all ring", []Time{1, 2, 3}},
		{"ring boundary delta", []Time{ringSize - 1, ringSize, ringSize + 1}},
		{"heap before ring scheduled later", []Time{ringSize, 5}},
		{"same cycle ring twice", []Time{7, 7, 7}},
		{"same cycle heap twice", []Time{ringSize + 3, ringSize + 3}},
		{"heap far beyond window", []Time{10 * ringSize, 1}},
		{"full window sweep", func() []Time {
			d := make([]Time, 0, 2*ringSize/16)
			for i := Time(0); i < 2*ringSize; i += 16 {
				d = append(d, i)
			}
			return d
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			type fired struct {
				at  Time
				idx int
			}
			var got []fired
			for i, d := range tc.deltas {
				i, d := i, d
				s.At(d, func() { got = append(got, fired{s.Now(), i}) })
			}
			s.Run()
			if len(got) != len(tc.deltas) {
				t.Fatalf("fired %d of %d events", len(got), len(tc.deltas))
			}
			for k := 1; k < len(got); k++ {
				a, b := got[k-1], got[k]
				if a.at > b.at || (a.at == b.at && a.idx > b.idx) {
					t.Fatalf("order violated at position %d: (t=%d,#%d) before (t=%d,#%d)", k, a.at, a.idx, b.at, b.idx)
				}
			}
			for _, f := range got {
				if f.at != tc.deltas[f.idx] {
					t.Errorf("event #%d fired at %d, scheduled for %d", f.idx, f.at, tc.deltas[f.idx])
				}
			}
		})
	}
}

// TestFarEventCrossesIntoWindow pins the heap-before-ring FIFO rule: an
// event scheduled while its cycle was outside the ring window must fire
// before events scheduled for the same cycle once the window caught up.
func TestFarEventCrossesIntoWindow(t *testing.T) {
	s := New()
	target := Time(ringSize + 100)
	var order []string
	s.At(target, func() { order = append(order, "far") }) // heap: delta > window
	s.At(target-50, func() {
		// Window now covers target: this lands in the ring.
		s.At(target, func() { order = append(order, "ring") })
	})
	s.Run()
	if len(order) != 2 || order[0] != "far" || order[1] != "ring" {
		t.Fatalf("heap-before-ring FIFO violated: %v", order)
	}
}

// TestBucketWrapReuse drives the clock through several full ring
// revolutions, with every bucket reused, and checks no event is lost or
// fired at the wrong cycle.
func TestBucketWrapReuse(t *testing.T) {
	s := New()
	var fired int
	var tick func()
	const total = 4 * ringSize
	tick = func() {
		fired++
		if Time(fired) < total {
			s.After(1, tick) // same bucket index every ringSize steps
		}
	}
	s.After(1, tick)
	s.Run()
	if fired != total {
		t.Fatalf("fired %d of %d wrap-around events", fired, total)
	}
	if s.Now() != total {
		t.Fatalf("clock at %d, want %d", s.Now(), total)
	}
	if s.Pending() != 0 {
		t.Fatalf("%d events left pending", s.Pending())
	}
}

// TestAtInPastDuringStep schedules into the past from inside a firing
// event; the engine must clamp it to the current cycle and fire it after
// the already-queued same-cycle events (FIFO).
func TestAtInPastDuringStep(t *testing.T) {
	s := New()
	var order []string
	s.At(10, func() {
		order = append(order, "a")
		s.At(3, func() { order = append(order, "past") }) // t < now: clamps to 10
	})
	s.At(10, func() { order = append(order, "b") })
	s.Run()
	want := []string{"a", "b", "past"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if s.Now() != 10 {
		t.Fatalf("clock at %d, want 10", s.Now())
	}
}

// TestBucketOverflowLeavesNeighbour fills one ring bucket to its share of
// New's backing array, then overflows the bucket before it: the overflow
// must reallocate that bucket, not write into the filled neighbour. Each
// event logs its cycle and index, so a clobbered event shows as a missing
// or repeated entry.
func TestBucketOverflowLeavesNeighbour(t *testing.T) {
	s := New()
	type fired struct {
		at  Time
		idx int
	}
	var got, want []fired
	schedule := func(at Time, idx int) {
		s.AtFn(at, func(any) { got = append(got, fired{s.Now(), idx}) }, nil)
	}
	for i := range bucketCap {
		schedule(2, 100+i)
	}
	for i := range 2*bucketCap + 1 {
		schedule(1, i)
		want = append(want, fired{1, i})
	}
	for i := range bucketCap {
		want = append(want, fired{2, 100 + i})
	}
	s.Run()
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("event %d: fired (t=%d,#%d), want (t=%d,#%d)", k, got[k].at, got[k].idx, want[k].at, want[k].idx)
		}
	}
}
