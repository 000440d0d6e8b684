package main

import (
	"math"
	"testing"
)

// TestSelfTimes checks that a span's self time excludes the union of
// its children, counting overlapping children once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "bench.window", Start: 0, End: 10, Parent: -1},
		{Name: "timesvc.Clock.NowInterval", Start: 1, End: 6, Parent: 0},
		{Name: "timesvc.Clock.NowInterval", Start: 4, End: 8, Parent: 0},
		{Name: "telemetry.StripeWriter.Observe", Start: 2, End: 3, Parent: 1},
	}
	got := selfTimes(spans)
	want := map[string]float64{"bench": 3, "timesvc": 8, "telemetry": 1}
	for l, w := range want {
		if math.Abs(got[l]-w) > 1e-12 {
			t.Errorf("%s self time = %v, want %v", l, got[l], w)
		}
	}
}
