// Package maprange exercises the maprange check: bare ranges over maps are
// hazards; commutative-body loops and annotated loops are not.
package maprange

func bare(m map[string]int) []string {
	var out []string
	for k := range m { // want:maprange
		out = append(out, k)
	}
	return out
}

func bareValues(m map[int]float64) float64 {
	best := 0.0
	for _, v := range m { // want:maprange
		if v > best {
			best = v
		}
	}
	return best
}

func nested(m map[int]map[int]int) []int {
	var sizes []int
	for _, inner := range m { // want:maprange
		sizes = append(sizes, len(inner))
	}
	return sizes
}

// nestedCommutative sums sizes into an integer: order-independent, allowed.
func nestedCommutative(m map[int]map[int]int) int {
	n := 0
	for _, inner := range m {
		n += len(inner)
	}
	return n
}

// commutative loops only fill maps or integer accumulators: allowed.
func commutative(m map[string]int, other map[string]int) int {
	total := 0
	for k, v := range m {
		other[k] = v
		other[k] += 1
		total += v
		if v > 10 {
			delete(other, k)
			continue
		}
		counted := v * 2
		other[k] = counted
	}
	return total
}

func commutativeIncr(m map[int]bool, hits map[int]int) {
	for k := range m {
		hits[k]++
	}
}

// annotated loops are suppressed, trailing or on the line above.
func annotatedTrailing(m map[string]int) []string {
	var out []string
	for k := range m { //spvet:allow maprange,floatorder -- sorted by the caller
		out = append(out, k)
	}
	return out
}

func annotatedAbove(m map[string]int) []string {
	var out []string
	//spvet:allow maprange,floatorder -- sorted by the caller
	for k := range m {
		out = append(out, k)
	}
	return out
}

// sliceRange is the deterministic idiom: no finding.
func sliceRange(keys []string, m map[string]int) int {
	n := 0
	for _, k := range keys {
		n += m[k]
	}
	return n
}

// appendDefeats shows that an append breaks the commutativity proof even
// when mixed with allowed statements.
func appendDefeats(m map[string]int, other map[string]int) []int {
	var out []int
	for k, v := range m { // want:maprange
		other[k] = v
		out = append(out, v)
	}
	return out
}
