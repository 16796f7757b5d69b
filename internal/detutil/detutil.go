// Package detutil provides deterministic-iteration helpers. The simulator
// requires bit-identical replays for a given seed (see internal/event), so
// map iteration in any code that feeds events, statistics or reports must
// happen in a defined order. These helpers make the sorted-key idiom cheap
// enough to be the default; `cmd/spvet` enforces it.
package detutil

import (
	"cmp"
	"slices"
)

// SortedKeys returns m's keys in ascending order. It is the standard way to
// iterate a map deterministically:
//
//	for _, k := range detutil.SortedKeys(m) { ... m[k] ... }
func SortedKeys[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	keys := make([]K, 0, len(m))
	for k := range m { //spvet:allow maprange,floatorder -- keys are sorted before use
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
