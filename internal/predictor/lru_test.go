package predictor

import (
	"container/list"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// refLRU is the reference model of LRU: a map plus container/list, front =
// most recently used, the way core.Table and Group kept their recency
// order before LRU replaced it. An insertion pushes to the front and then
// removes the back when the model is over its limit.
type refLRU struct {
	order *list.List // of int keys
	elems map[int]*list.Element
	limit int
}

func newRefLRU(limit int) *refLRU {
	return &refLRU{order: list.New(), elems: make(map[int]*list.Element), limit: limit}
}

func (r *refLRU) get(k int) bool {
	e, ok := r.elems[k]
	if ok {
		r.order.MoveToFront(e)
	}
	return ok
}

// add returns whether k was inserted and the key it evicted, if any.
func (r *refLRU) add(k int) (fresh bool, evicted []int) {
	if r.get(k) {
		return false, nil
	}
	r.elems[k] = r.order.PushFront(k)
	if r.limit > 0 && r.order.Len() > r.limit {
		v := r.order.Remove(r.order.Back()).(int)
		delete(r.elems, v)
		evicted = []int{v}
	}
	return true, evicted
}

func (r *refLRU) keys() []int {
	var ks []int
	for e := r.order.Front(); e != nil; e = e.Next() {
		ks = append(ks, e.Value.(int))
	}
	return ks
}

// lruOrder walks l's ring from the head, most recently used first, and
// checks that the prev links walk the same ring backwards.
func lruOrder[K comparable](t *testing.T, l *LRU[K]) []K {
	t.Helper()
	var ks, back []K
	for i, s := 0, l.head; i < l.Len(); i, s = i+1, l.links[s].next {
		ks = append(ks, l.links[s].key)
	}
	for i, s := 0, l.head; i < l.Len(); i++ {
		s = l.links[s].prev
		back = append(back, l.links[s].key)
	}
	slices.Reverse(back)
	if !slices.Equal(ks, back) {
		t.Fatalf("ring: next walk %v, prev walk %v", ks, back)
	}
	return ks
}

// TestLRUMatchesListModel replays random Get/Add sequences over a key
// alphabet larger than the capacity against refLRU. After every step the
// recency order, the evicted key and Len must match the model's, and every
// resident key must keep the slot it was given: Add hands out a new slot
// (Len()-1) while the table fills and the evicted key's slot once it is
// full.
func TestLRUMatchesListModel(t *testing.T) {
	for _, limit := range []int{0, 1, 2, 64, 512} {
		alphabet := 2*limit + 3
		if limit == 0 {
			alphabet = 300
		}
		rng := rand.New(rand.NewSource(int64(limit) + 1))
		l, ref := NewLRU[int](limit), newRefLRU(limit)
		slotOf := make(map[int]int32)
		before := []int(nil)
		for step := 0; step < 8*alphabet+2000; step++ {
			k := rng.Intn(alphabet)
			if rng.Intn(3) == 0 {
				k = rng.Intn(limit/2 + 2) // a hot subset: repeated hits
			}
			if rng.Intn(5) < 2 {
				s, ok := l.Get(k)
				if want := ref.get(k); ok != want {
					t.Fatalf("limit %d step %d: Get(%d) ok %v, model %v", limit, step, k, ok, want)
				}
				if ok && s != slotOf[k] {
					t.Fatalf("limit %d step %d: Get(%d) slot %d, was %d", limit, step, k, s, slotOf[k])
				}
			} else {
				s, fresh := l.Add(k)
				wantFresh, wantEvicted := ref.add(k)
				if fresh != wantFresh {
					t.Fatalf("limit %d step %d: Add(%d) fresh %v, model %v", limit, step, k, fresh, wantFresh)
				}
				after := lruOrder(t, l)
				var evicted []int
				for _, b := range before {
					if !slices.Contains(after, b) {
						evicted = append(evicted, b)
					}
				}
				if !slices.Equal(evicted, wantEvicted) {
					t.Fatalf("limit %d step %d: Add(%d) evicted %v, model %v", limit, step, k, evicted, wantEvicted)
				}
				switch {
				case !fresh:
					if s != slotOf[k] {
						t.Fatalf("limit %d step %d: Add(%d) hit slot %d, was %d", limit, step, k, s, slotOf[k])
					}
				case len(evicted) == 1:
					if s != slotOf[evicted[0]] {
						t.Fatalf("limit %d step %d: Add(%d) took slot %d, evicted key's was %d", limit, step, k, s, slotOf[evicted[0]])
					}
					delete(slotOf, evicted[0])
				default:
					if int(s) != l.Len()-1 {
						t.Fatalf("limit %d step %d: Add(%d) new slot %d, want %d", limit, step, k, s, l.Len()-1)
					}
				}
				slotOf[k] = s
			}
			before = lruOrder(t, l)
			if want := ref.keys(); !slices.Equal(before, want) {
				t.Fatalf("limit %d step %d: order %v, model %v", limit, step, before, want)
			}
			if l.Len() != ref.order.Len() || l.Len() != len(l.slots) {
				t.Fatalf("limit %d step %d: Len %d (map %d), model %d", limit, step, l.Len(), len(l.slots), ref.order.Len())
			}
		}
		if limit > 0 && l.Len() != limit {
			t.Fatalf("limit %d: the run never filled the table (Len %d)", limit, l.Len())
		}
	}
}

// TestLRUNoAlloc pins a hit and an insertion that evicts from a full
// table at zero allocations: the new key reuses the evicted key's slot, so
// neither the links nor a caller's payload arrays grow. The table first
// churns through many evictions so that the index map reaches its steady
// size.
func TestLRUNoAlloc(t *testing.T) {
	const limit = 64
	l := NewLRU[uint64](limit)
	next := uint64(0)
	for ; next < 100*limit; next++ {
		l.Add(next)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if _, ok := l.Get(next - limit/2); !ok {
			t.Fatal("resident key missing")
		}
	}); avg != 0 {
		t.Errorf("Get hit: %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if _, fresh := l.Add(next); !fresh {
			t.Fatal("new key not fresh")
		}
		next++
	}); avg != 0 {
		t.Errorf("evicting Add: %v allocs/op, want 0", avg)
	}
	if l.Len() != limit {
		t.Fatalf("Len %d, want %d", l.Len(), limit)
	}
}

// TestGrowthDoubles grows an unlimited table to n keys, one at a time, with
// a link array and two payload arrays (widths 16 and 1, as Group keeps).
// Every array must grow by doubling: the bytes of all the backing arrays
// it ever held stay within 2× those of its final one, where append's
// 1.25× growth of large slices makes that sum about 5×. The Fresh arrays
// are also measured as real allocations, which nothing else in the loop
// makes.
func TestGrowthDoubles(t *testing.T) {
	const n = 20000
	l := NewLRU[int](0)
	var sumLinks int
	lastCap := -1
	for k := range n {
		l.Add(k)
		if c := cap(l.links); c != lastCap {
			sumLinks += c
			lastCap = c
		}
	}
	if sumLinks > 2*cap(l.links) {
		t.Errorf("links: %d elements allocated across growth, final capacity %d (want <= 2x)", sumLinks, cap(l.links))
	}

	var counters []uint8
	var roll []uint64
	var sumCounters, sumRoll int
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for s := range int32(n) {
		c0, r0 := cap(counters), cap(roll)
		counters = Fresh(counters, s, 16)
		roll = Fresh(roll, s, 1)
		if cap(counters) != c0 {
			sumCounters += cap(counters)
		}
		if cap(roll) != r0 {
			sumRoll += cap(roll)
		}
	}
	runtime.ReadMemStats(&after)
	if len(counters) != 16*n || len(roll) != n {
		t.Fatalf("Fresh lengths %d and %d, want %d and %d", len(counters), len(roll), 16*n, n)
	}
	if sumCounters > 2*cap(counters) || sumRoll > 2*cap(roll) {
		t.Errorf("payload: %d and %d elements allocated across growth, final capacities %d and %d (want <= 2x)",
			sumCounters, sumRoll, cap(counters), cap(roll))
	}
	final := uint64(cap(counters)) + 8*uint64(cap(roll))
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*final+final/8 {
		t.Errorf("payload growth allocated %d bytes for final arrays of %d (want about 2x at most)", got, final)
	}
}
