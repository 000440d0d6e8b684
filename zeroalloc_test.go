package dtp

import (
	"runtime"
	"testing"
	"time"

	"github.com/dtplab/dtp/internal/core"
)

// The steady-state beacon loop, measured at the system level: once every
// link is synced and the scheduler's arena has reached its high-water
// mark, the loop — beacon fire, TX insertion, wire transit, RX pipeline,
// CDC alignment, message processing, counter jumps, watchdog churn —
// runs without a single heap allocation. It runs at the paper's 200-tick
// beacon, where the fabric actually stays synchronized, and proves that
// at the end: a zero-alloc figure from a diverged fabric (whose ignored
// beacons and faulty ports skip most of the loop) would prove nothing.
// Wander is disabled (its resampling closure is an intentional cold-path
// allocation) and telemetry is unattached.
func TestSteadyStateBeaconLoopZeroAlloc(t *testing.T) {
	g, err := ParseTopology("fattree:4")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(g, WithSeed(1), WithBeaconInterval(200))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Start()
	if err := sys.RunUntilSynced(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Warm up past INIT residue: arena growth, watchdog arming, the
	// first few beacon rounds.
	sys.Run(5 * time.Millisecond)

	// AllocsPerRun pins to one OS thread and counts mallocs directly;
	// GC percent is irrelevant. Each 1 ms window holds thousands of
	// beacon rounds and their cancel-heavy watchdog re-arms.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	avg := testing.AllocsPerRun(10, func() {
		sys.Run(time.Millisecond)
	})
	if avg != 0 {
		t.Fatalf("steady-state beacon loop allocates %.1f times per 1 ms window, want 0", avg)
	}

	if off, bound := sys.MaxOffsetTicks(), sys.BoundTicks(); off > bound {
		t.Errorf("measured fabric diverged: max offset %d ticks, bound %d", off, bound)
	}
	var faulty int
	var ignored uint64
	for i := range sys.net.Graph.Links {
		a, b := sys.net.LinkPorts(i)
		for _, p := range []*core.Port{a, b} {
			_, _, ig, _ := p.Stats()
			ignored += ig
			if p.Faulty() {
				faulty++
			}
		}
	}
	if faulty != 0 || ignored != 0 {
		t.Errorf("measured fabric not synchronized: %d faulty ports, %d ignored beacons", faulty, ignored)
	}
}
