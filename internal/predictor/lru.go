package predictor

// LRU is the replacement order of a fully associative table: the SP-table
// (core.Table) and the ADDR/INST predictors keep one each. Every resident
// key owns a slot, an index into its table's own flat payload arrays. Slots
// are handed out as 0, 1, 2, ... while the table fills; after that a new key
// takes the least recently used key's slot in place, so a slot leaves only
// by eviction and no free list is needed. The slots form a ring, most
// recently used first: the head's prev is the least recently used slot.
type LRU[K comparable] struct {
	slots map[K]int32
	links []lruLink[K]
	head  int32
	limit int // most resident keys; 0 (or less) means unlimited
}

type lruLink[K comparable] struct {
	key        K
	prev, next int32
}

// NewLRU returns an empty order holding at most limit keys (0 = unlimited).
func NewLRU[K comparable](limit int) *LRU[K] {
	return &LRU[K]{slots: make(map[K]int32), limit: limit}
}

// Len returns the number of resident keys.
func (l *LRU[K]) Len() int { return len(l.links) }

// Provisioned returns the entries a hardware table of this configuration
// holds, for storage accounting: the limit, or Len when unlimited.
func (l *LRU[K]) Provisioned() int { return max(l.limit, len(l.links)) }

// Get returns k's slot and makes k the most recently used key. ok is false,
// and the order unchanged, when k is not resident.
//
//spcoh:noalloc
func (l *LRU[K]) Get(k K) (slot int32, ok bool) {
	s, ok := l.slots[k]
	if ok && s != l.head {
		p, n := l.links[s].prev, l.links[s].next
		l.links[p].next, l.links[n].prev = n, p
		l.toFront(s)
	}
	return s, ok
}

// Add makes k the most recently used key, inserting it when absent, and
// returns its slot. fresh reports an insertion: the slot is then new
// (Len()-1) or the evicted key's, and the caller resets its payload with
// Fresh.
//
//spcoh:noalloc
func (l *LRU[K]) Add(k K) (slot int32, fresh bool) {
	if s, ok := l.Get(k); ok {
		return s, false
	}
	s := int32(len(l.links))
	if l.limit > 0 && len(l.links) >= l.limit {
		s = l.links[l.head].prev
		delete(l.slots, l.links[s].key)
		l.links[s].key = k
		l.head = s // the ring turns: the evicted tail becomes the head
	} else {
		// Slot 0 alone is a ring of one: prev = next = head = 0.
		l.links = append(grow(l.links, 1), lruLink[K]{key: k}) //spvet:allow noalloc -- table growth: an unlimited table doubles, a bounded one stops at its limit
		if s > 0 {
			l.toFront(s)
		}
	}
	l.slots[k] = s
	return s, true
}

// toFront links the unlinked slot s in between the tail and the head and
// makes it the head.
//
//spcoh:noalloc
func (l *LRU[K]) toFront(s int32) {
	h := l.head
	t := l.links[h].prev
	l.links[s].prev, l.links[s].next = t, h
	l.links[t].next, l.links[h].prev = s, s
	l.head = s
}

// Fresh readies a flat payload array of width elements per slot for the
// fresh slot s that Add returned: it grows by one zeroed slot when s is new
// and zeroes s's elements when s was an evicted key's.
func Fresh[T any](payload []T, s int32, width int) []T {
	b := int(s) * width
	if b >= len(payload) {
		payload = grow(payload, width)[:b+width]
	}
	clear(payload[b : b+width])
	return payload
}

// grow returns s with room for n more elements, at least doubling its
// capacity when it must reallocate. append grows a large slice by about
// 1.25x, so a table grown one slot at a time would allocate several times
// its final size; doubling keeps the sum of every array it ever held under
// twice the last one.
func grow[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	t := make([]T, len(s), max(2*cap(s), len(s)+n))
	copy(t, s)
	return t
}
