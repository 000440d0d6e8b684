package ptp

import (
	"testing"

	"github.com/dtplab/dtp/internal/fabric"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
)

// goldenClient is one client's protocol counters and final ground-truth
// offset at the end of the golden window.
type goldenClient struct {
	syncs, resps, steps uint64
	offsetPs            float64
}

// TestPacketPathGolden pins the packet-level PTP simulation to exact
// counts: star:8, a grandmaster on node 1, a client on every other host,
// converged idle and then sprayed by all seven clients at 9 Gbps (the
// Figure 6f load). Every number below is a deterministic function of the
// seed and of the scheduler's dispatch order, so any change to how the
// fabric, the generators or the PTP timers schedule their events — an
// extra draw, a reordered insert, a different delay — shows up here.
func TestPacketPathGolden(t *testing.T) {
	const (
		wantDelivered = uint64(202203)
		wantDrops     = uint64(0)
		wantPeakBytes = 639240.0
	)
	wantClients := []goldenClient{
		{27, 35, 1, -1.704287087487793e+07},
		{27, 35, 1, -1.1471655045349121e+07},
		{27, 35, 1, -2.4470331763305664e+06},
		{27, 35, 1, -1.4424728624084473e+07},
		{27, 35, 1, -1.479166911102295e+07},
		{27, 36, 1, -6.1218599138793945e+06},
		{27, 35, 1, -9.845915733154297e+06},
		{27, 35, 1, -30584.400512695312},
	}

	sch, net, _, clients := deploy(t, 3, DefaultConfig().Compressed(50), fabric.DefaultConfig())
	reg := telemetry.New()
	net.Instrument(reg, nil)
	sch.Run(500 * sim.Millisecond)
	nodes := []int{2, 3, 4, 5, 6, 7, 8}
	for i, src := range nodes {
		fabric.NewSprayGen(net, src, nodes, 9.0, 32, uint64(200+i)).Start()
	}
	sch.RunFor(40 * sim.Millisecond)

	peak := reg.Gauge("fabric_queue_bytes_peak", "").Value()
	if net.Delivered() != wantDelivered || net.Drops() != wantDrops || peak != wantPeakBytes {
		t.Errorf("delivered %d drops %d peak %v, want %d %d %v",
			net.Delivered(), net.Drops(), peak, wantDelivered, wantDrops, wantPeakBytes)
	}
	var got []goldenClient
	for _, c := range clients {
		sy, r, st := c.Stats()
		got = append(got, goldenClient{sy, r, st, c.OffsetToMasterPs()})
	}
	if len(got) != len(wantClients) {
		t.Fatalf("clients = %#v", got)
	}
	for i := range got {
		if got[i] != wantClients[i] {
			t.Errorf("client %d = %#v, want %#v", i, got[i], wantClients[i])
		}
	}
}
