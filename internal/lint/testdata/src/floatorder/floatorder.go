// Package floatorder exercises the floatorder check: accumulating floats
// inside a map-range body gives order-dependent results.
package floatorder

func sum(m map[string]float64) float64 {
	var s float64
	for _, v := range m { // want:maprange
		s += v // want:floatorder
	}
	return s
}

func product(m map[int]float64) float64 {
	p := 1.0
	for _, v := range m { // want:maprange
		p *= v // want:floatorder
	}
	return p
}

// annotation suppresses both findings on the loop.
func annotated(m map[string]float64) float64 {
	var s float64
	//spvet:allow maprange,floatorder -- caller tolerates ULP-level wobble
	for _, v := range m {
		s += v
	}
	return s
}

// integer accumulation in a map range is commutative: no finding.
func intSum(m map[string]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}

// float accumulation over a slice is ordered: no finding.
func sliceSum(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s
}
