package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"spcoh/internal/arch"
)

func small() *Cache { // 4 sets x 2 ways
	return New(Config{Bytes: 8 * arch.LineSize, Ways: 2})
}

func TestStateProperties(t *testing.T) {
	if Invalid.Valid() || !Shared.Valid() || !Forward.Valid() {
		t.Fatal("Valid() wrong")
	}
	for _, s := range []State{Exclusive, Modified, Forward} {
		if !s.CanForward() {
			t.Fatalf("%v should forward", s)
		}
	}
	for _, s := range []State{Invalid, Shared} {
		if s.CanForward() {
			t.Fatalf("%v should not forward", s)
		}
	}
	if !Modified.Dirty() || Exclusive.Dirty() {
		t.Fatal("Dirty() wrong")
	}
	if Modified.String() != "M" || Invalid.String() != "I" || Forward.String() != "F" {
		t.Fatal("String() wrong")
	}
}

func TestConfigSets(t *testing.T) {
	c := Config{Bytes: 1 << 20, Ways: 8} // paper L2
	if c.Sets() != 2048 {
		t.Fatalf("sets = %d, want 2048", c.Sets())
	}
	c = Config{Bytes: 16 << 10, Ways: 1} // paper L1
	if c.Sets() != 256 {
		t.Fatalf("sets = %d, want 256", c.Sets())
	}
}

func TestInsertLookup(t *testing.T) {
	c := small()
	if c.Lookup(1) != Invalid {
		t.Fatal("cold lookup should miss")
	}
	c.Insert(1, Shared)
	if c.Lookup(1) != Shared {
		t.Fatal("lookup after insert failed")
	}
}

func TestReinsertUpdatesState(t *testing.T) {
	c := small()
	c.Insert(1, Shared)
	if _, ev := c.Insert(1, Modified); ev {
		t.Fatal("re-insert must not evict")
	}
	if c.Peek(1) != Modified {
		t.Fatal("state not updated")
	}
	if c.Occupancy() != 1 {
		t.Fatalf("occupancy = %d", c.Occupancy())
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	// Addresses 0, 4, 8 map to set 0 (4 sets).
	c.Insert(0, Shared)
	c.Insert(4, Shared)
	c.Lookup(0) // make 4 the LRU
	v, ev := c.Insert(8, Shared)
	if !ev || v.Addr != 4 {
		t.Fatalf("victim = %+v (evicted=%v), want addr 4", v, ev)
	}
	if c.Peek(0) == Invalid || c.Peek(8) == Invalid || c.Peek(4) != Invalid {
		t.Fatal("post-eviction residency wrong")
	}
}

func TestDirtyEvictionReturnsModified(t *testing.T) {
	c := small()
	c.Insert(0, Modified)
	c.Insert(4, Shared)
	v, ev := c.Insert(8, Shared) // evicts 0 (LRU, dirty)
	if !ev || v != (Victim{Addr: 0, State: Modified}) || !v.State.Dirty() {
		t.Fatalf("victim = %+v (evicted=%v), want line 0 in M", v, ev)
	}
}

func TestPeekSilent(t *testing.T) {
	c := small()
	c.Insert(0, Exclusive)
	c.Insert(4, Shared) // 0 is now the LRU line of set 0
	if c.Peek(0) != Exclusive || c.Peek(8) != Invalid {
		t.Fatal("peek residency wrong")
	}
	if v, ev := c.Insert(8, Shared); !ev || v.Addr != 0 {
		t.Fatalf("victim = %+v (evicted=%v): peek must not touch recency", v, ev)
	}
}

func TestSetStateAndInvalidate(t *testing.T) {
	c := small()
	c.Insert(1, Exclusive)
	if !c.SetState(1, Modified) {
		t.Fatal("SetState on resident line failed")
	}
	if c.SetState(99, Shared) {
		t.Fatal("SetState on absent line should report false")
	}
	st, ok := c.Invalidate(1)
	if !ok || st != Modified {
		t.Fatalf("invalidate = %v,%v", st, ok)
	}
	if _, ok := c.Invalidate(1); ok {
		t.Fatal("double invalidate should report false")
	}
	if c.Occupancy() != 0 {
		t.Fatal("occupancy after invalidate")
	}
	// SetState(Invalid) also removes.
	c.Insert(2, Shared)
	c.SetState(2, Invalid)
	if c.Peek(2) != Invalid {
		t.Fatal("SetState(Invalid) should remove line")
	}
}

func TestDirectMapped(t *testing.T) {
	c := New(Config{Bytes: 4 * arch.LineSize, Ways: 1})
	c.Insert(0, Shared)
	v, ev := c.Insert(4, Shared) // same set in 4-set direct-mapped
	if !ev || v.Addr != 0 {
		t.Fatalf("direct-mapped conflict eviction: %+v %v", v, ev)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two sets")
		}
	}()
	New(Config{Bytes: 3 * arch.LineSize, Ways: 1})
}

func TestInsertInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic inserting Invalid")
		}
	}()
	small().Insert(1, Invalid)
}

// Property: occupancy never exceeds capacity, and a line just inserted is
// always resident.
func TestPropertyCapacityInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := small()
		capacity := 8
		for i := 0; i < 200; i++ {
			a := arch.LineAddr(rng.Intn(64))
			c.Insert(a, Shared)
			if c.Peek(a) == Invalid {
				return false
			}
			if c.Occupancy() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: an evicted victim is no longer resident and differs from the
// inserted address.
func TestPropertyVictimGone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := small()
		for i := 0; i < 100; i++ {
			a := arch.LineAddr(rng.Intn(64))
			v, ev := c.Insert(a, Modified)
			if ev {
				if v.Addr == a {
					return false
				}
				if c.Peek(v.Addr) != Invalid {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
