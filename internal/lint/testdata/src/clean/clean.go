// Package clean is a fully deterministic fixture: the analyzer must report
// nothing here.
package clean

import (
	"math/rand"
	"sort"
)

type stats struct {
	count map[string]int
}

func (s *stats) sortedKeys() []string {
	keys := make([]string, 0, len(s.count))
	for k := range s.count { //spvet:allow maprange,floatorder -- sorted below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (s *stats) total() int {
	n := 0
	for _, v := range s.count {
		n += v
	}
	return n
}

func (s *stats) render() []string {
	var out []string
	for _, k := range s.sortedKeys() {
		out = append(out, k)
	}
	return out
}

func pick(r *rand.Rand, n int) int { return r.Intn(n) }
