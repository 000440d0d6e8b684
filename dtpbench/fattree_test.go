package main

import "testing"

// TestFattreeValidityGate drives the fattree-steady harness at the
// paper's 200-tick beacon, where the fabric holds its 4TD bound, and at
// the 60,000-tick beacon the BENCH_8 engine record used, where drift
// between beacons overruns the bit-error guard and the fabric falls
// apart. The harness must pass the first and flag the second.
func TestFattreeValidityGate(t *testing.T) {
	for _, tc := range []struct {
		beacon   uint64
		slices   int
		wantFail bool
	}{
		{beacon: 200, slices: 4, wantFail: false},
		{beacon: 60_000, slices: 20, wantFail: true},
	} {
		p := fattreeSteady
		p.beacon, p.checkpoint, p.setups = tc.beacon, tc.slices, 1
		// A zero-second window runs exactly the checkpoint's slices.
		o, err := runFattree(env{seed: 1, root: -1}, p)
		if err != nil {
			t.Fatalf("beacon %d: %v", tc.beacon, err)
		}
		failedRatio := ratio(o.failed, o.attempted)
		t.Logf("beacon %d: failed_ratio %.3f (%d of %d checks): %v",
			tc.beacon, failedRatio, o.failed, o.attempted, o.invalid)
		if o.oracle != nil {
			t.Errorf("beacon %d: oracle: %v", tc.beacon, o.oracle)
		}
		if tc.wantFail && (failedRatio == 0 || o.valid()) {
			t.Errorf("beacon %d: failed_ratio %v, want > 0 and an invalid run", tc.beacon, failedRatio)
		}
		if !tc.wantFail && (failedRatio != 0 || !o.valid()) {
			t.Errorf("beacon %d: failed_ratio %v (%v), want 0 and a valid run", tc.beacon, failedRatio, o.invalid)
		}
	}
}
