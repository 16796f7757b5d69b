package sweep

import "testing"

// TestValidateMatrix: a matrix no cell of which could run is rejected
// before anything is expanded or stored; a runnable one passes.
func TestValidateMatrix(t *testing.T) {
	base := Matrix{
		Benches: []string{"x264"}, Kinds: []string{"dir", "sp"},
		Seeds: []int64{42}, Scales: []float64{0.05}, Threads: 16,
	}
	if err := ValidateMatrix(base); err != nil {
		t.Fatalf("runnable matrix rejected: %v", err)
	}
	specOnly := base
	specOnly.Benches = nil
	specOnly.Specs = []SpecRef{{Name: "s", Path: "s.json", Digest: "d"}}
	if err := ValidateMatrix(specOnly); err != nil {
		t.Fatalf("spec-only matrix rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(m *Matrix)
	}{
		{"unknown bench", func(m *Matrix) { m.Benches = []string{"nosuch"} }},
		{"unknown kind", func(m *Matrix) { m.Kinds = []string{"nosuch"} }},
		{"no kinds", func(m *Matrix) { m.Kinds = nil }},
		{"no seeds", func(m *Matrix) { m.Seeds = nil }},
		{"no scales", func(m *Matrix) { m.Scales = nil }},
		{"bad scale", func(m *Matrix) { m.Scales = []float64{0} }},
		{"non-square threads", func(m *Matrix) { m.Threads = 12 }},
		{"unknown mode", func(m *Matrix) { m.Mode = "warp" }},
		{"empty", func(m *Matrix) { m.Benches = nil }},
	}
	for _, tc := range cases {
		m := base
		tc.mut(&m)
		if err := ValidateMatrix(m); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
