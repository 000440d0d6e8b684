package fabric

import (
	"runtime"
	"testing"

	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/topo"
)

// TestSprayedPacketPathAllocs is the allocation proof for the packet
// path: under the Figure 6f load (star:8, seven hosts spraying MTU
// bursts at each other at 9 Gbps) every hop — wire transit, cut-through
// forwarding, egress queueing, serialization, delivery — and every
// generator round runs on pooled actor events. The only allocation left
// per frame is the generator's own eth.Frame, so a steady window may
// allocate at most once per delivered frame.
func TestSprayedPacketPathAllocs(t *testing.T) {
	sch := sim.NewScheduler()
	n, err := New(sch, 1, topo.Star(8), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	nodes := []int{2, 3, 4, 5, 6, 7, 8}
	for i, src := range nodes {
		NewSprayGen(n, src, nodes, 9.0, 32, uint64(200+i)).Start()
	}
	// Warm up until the egress rings, the in-flight table and the
	// scheduler's event arena have reached their steady-state sizes.
	sch.Run(20 * sim.Millisecond)

	const runs = 10
	var calls int
	var delivered uint64
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	avg := testing.AllocsPerRun(runs, func() {
		d0 := n.Delivered()
		sch.RunFor(sim.Millisecond)
		// AllocsPerRun makes one unmeasured warm-up call first.
		if calls++; calls > 1 {
			delivered += n.Delivered() - d0
		}
	})
	perRun := float64(delivered) / runs
	if delivered == 0 {
		t.Fatal("no frames delivered in the measured window")
	}
	t.Logf("%.0f allocs and %.0f delivered frames per 1 ms window (%.3f allocs/frame, %d drops)",
		avg, perRun, avg/perRun, n.Drops())
	if avg > perRun {
		t.Fatalf("packet path allocates %.0f times per window for %.0f delivered frames, want at most 1 per frame", avg, perRun)
	}
}
