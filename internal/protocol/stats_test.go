package protocol

import "testing"

// TestNodeStatsRatios pins each derived ratio's formula and its zero guard:
// an empty denominator yields 0, never NaN.
func TestNodeStatsRatios(t *testing.T) {
	s := NodeStats{
		Misses: 8, MissLatencySum: 800,
		Communicating: 4, CommLatencySum: 200, PredCorrect: 3,
		NonCommunicating: 4, NonCommLatencySum: 600,
		Predicted: 5, PredTargets: 10, ActualTargets: 12,
	}
	var zero NodeStats
	for _, c := range []struct {
		name string
		f    func(*NodeStats) float64
		want float64
	}{
		{"AvgMissLatency", (*NodeStats).AvgMissLatency, 100},
		{"Accuracy", (*NodeStats).Accuracy, 0.75},
		{"AvgCommLatency", (*NodeStats).AvgCommLatency, 50},
		{"AvgNonCommLatency", (*NodeStats).AvgNonCommLatency, 150},
		{"AvgPredTargets", (*NodeStats).AvgPredTargets, 2},
		{"AvgActualTargets", (*NodeStats).AvgActualTargets, 1.5},
	} {
		if got := c.f(&s); got != c.want {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
		if got := c.f(&zero); got != 0 {
			t.Errorf("%s of empty stats = %v, want 0", c.name, got)
		}
	}
}
