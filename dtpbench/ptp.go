package main

import (
	"fmt"
	"math"
	"time"

	"github.com/dtplab/dtp/internal/fabric"
	"github.com/dtplab/dtp/internal/ptp"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/topo"
)

const (
	ptpSetups      = 25                   // set-up repetitions; setup_s is their median
	ptpConverge    = 2 * sim.Second       // idle convergence before the load starts
	ptpSlice       = 10 * sim.Millisecond // simulated time between offset reads
	ptpCheckpoint  = 10                   // slices in the deterministic prefix the digest covers
	ptpCompression = 50                   // the PTP experiments' time compression
	ptpSprayGbps   = 9.0                  // per-sender load of Figure 6f
)

// ptpBed is the Figure 6f network: star:8, a grandmaster on node 1 and
// a PTP client on every other host.
type ptpBed struct {
	sch     *sim.Scheduler
	g       topo.Graph
	net     *fabric.Network
	clients []*ptp.Client
	nodes   []int // client nodes, in host order
	sw      int   // the switch
}

func buildPTP(e env, parent int) (*ptpBed, float64, float64, error) {
	t0 := time.Now()
	b := &ptpBed{sch: sim.NewScheduler()}
	e.tr.call("topo.Build", parent, func() { b.g = topo.Star(8) })
	build := time.Since(t0).Seconds()
	var err error
	e.tr.call("fabric.New", parent, func() { b.net, err = fabric.New(b.sch, e.seed, b.g, fabric.DefaultConfig()) })
	if err != nil {
		return nil, 0, 0, err
	}
	for _, id := range b.g.SwitchIDs() {
		b.sw = id
	}
	cfg := ptp.DefaultConfig().Compressed(ptpCompression)
	for _, h := range b.g.HostIDs() {
		if h != 1 {
			b.nodes = append(b.nodes, h)
		}
	}
	var gm *ptp.Grandmaster
	e.tr.call("ptp.NewGrandmaster", parent, func() { gm = ptp.NewGrandmaster(b.net, 1, b.nodes, cfg, e.seed+1) })
	for i, n := range b.nodes {
		e.tr.call("ptp.NewClient", parent, func() {
			c := ptp.NewClient(b.net, n, 1, cfg, e.seed+10+uint64(i))
			c.Start()
			b.clients = append(b.clients, c)
		})
	}
	gm.Start()
	e.tr.call("sim.Scheduler.RunFor", parent, func() { b.sch.RunFor(ptpConverge) })
	return b, build, time.Since(t0).Seconds(), nil
}

// runPTP converges the Figure 6f network while idle, then saturates
// every client link but the last at 9 Gbps and reads the clients'
// offsets between slices. A client fails if it completes no sync
// exchange in the window.
func runPTP(e env) (*outcome, error) {
	o := newOutcome()
	var b *ptpBed
	var totalS, buildS []float64
	var same repeatCheck
	for i := 0; i < ptpSetups; i++ {
		sp := e.tr.begin("bench.setup", e.root)
		var build, total float64
		var err error
		b, build, total, err = buildPTP(e, sp)
		e.tr.end(sp)
		if err != nil {
			return nil, err
		}
		totalS, buildS = append(totalS, total), append(buildS, build)
		state := []count{countU("sim.events", b.sch.Processed()), countU("fabric.delivered", b.net.Delivered())}
		for _, c := range b.clients {
			sy, r, st := c.Stats()
			state = append(state, countU("ptp.syncs", sy), countU("ptp.delay_resps", r), countU("ptp.steps", st),
				countF("ptp.offset_ps", c.OffsetToMasterPs()))
		}
		same.add(i, state)
	}
	o.oracle = same.err
	o.setupS = median(totalS)
	e.settle()
	o.set("topo.build_s", median(buildS))

	win := e.tr.begin("bench.window", e.root)
	senders := b.nodes[:len(b.nodes)-1]
	var sprays []*fabric.SprayGen
	e.tr.call("fabric.NewSprayGen", win, func() {
		for i, src := range senders {
			s := fabric.NewSprayGen(b.net, src, senders, ptpSprayGbps, 32, e.seed+200+uint64(i))
			s.Start()
			sprays = append(sprays, s)
		}
	})
	syncs0 := make([]uint64, len(b.clients))
	for i, c := range b.clients {
		syncs0[i], _, _ = c.Stats()
	}
	var (
		runWall        float64
		rates          []float64 // device-simulated-seconds per wall second, per slice
		events, allocs uint64
		prefixEvents   uint64
		slices         int
		maxOffPs       float64
		maxDepth       int
		startEvents    = b.sch.Processed()
	)
	start := time.Now()
	for slices < ptpCheckpoint || time.Since(start).Seconds() < e.seconds {
		e0, a0 := b.sch.Processed(), allocsNow()
		t := time.Now()
		e.tr.call("sim.Scheduler.RunFor", win, func() { b.sch.RunFor(ptpSlice) })
		dt := time.Since(t).Seconds()
		runWall += dt
		rates = append(rates, float64(len(b.g.Nodes))*ptpSlice.Seconds()/dt)
		events += b.sch.Processed() - e0
		allocs += allocsNow() - a0
		slices++
		if slices > ptpCheckpoint {
			continue
		}
		chk := e.tr.begin("bench.check", win)
		e.tr.call("ptp.Client.OffsetToMasterPs", chk, func() {
			for _, c := range b.clients {
				maxOffPs = math.Max(maxOffPs, math.Abs(c.OffsetToMasterPs()))
			}
		})
		e.tr.call("fabric.Network.QueueDepthBytes", chk, func() {
			for _, n := range append([]int{1}, b.nodes...) {
				maxDepth = max(maxDepth, b.net.QueueDepthBytes(b.sw, n))
			}
		})
		e.tr.end(chk)
		if slices == ptpCheckpoint {
			prefixEvents = b.sch.Processed() - startEvents
			var sent, syncs, resps, steps uint64
			for _, s := range sprays {
				sent += s.Sent()
			}
			for _, c := range b.clients {
				sy, r, st := c.Stats()
				syncs, resps, steps = syncs+sy, resps+r, steps+st
			}
			o.counts = []count{
				countU("sim.events", b.sch.Processed()), countU("sim.now_ps", uint64(b.sch.Now())),
				countU("sim.pending_high_water", uint64(b.sch.HighWaterPending())),
				countU("fabric.delivered", b.net.Delivered()), countU("fabric.drops", b.net.Drops()),
				countU("fabric.queue_depth_max_bytes", uint64(maxDepth)), countU("eth.frames_sent", sent),
				countU("ptp.syncs", syncs), countU("ptp.delay_resps", resps), countU("ptp.steps", steps),
				countF("ptp.max_offset_ps", maxOffPs),
			}
			o.set("sim.pending_high_water", float64(b.sch.HighWaterPending()))
			o.set("fabric.delivered", float64(b.net.Delivered()))
			o.set("fabric.drops", float64(b.net.Drops()))
			o.set("fabric.queue_depth_max_bytes", float64(maxDepth))
			o.set("eth.frames_sent", float64(sent))
			o.set("ptp.syncs", float64(syncs))
			o.set("ptp.delay_resps", float64(resps))
			o.set("ptp.steps", float64(steps))
		}
	}
	e.tr.end(win)
	e.settle()

	var idle []string
	for i, c := range b.clients {
		o.attempted++
		if s, _, _ := c.Stats(); s == syncs0[i] {
			o.failed++
			idle = append(idle, b.g.Nodes[b.nodes[i]].Name)
		}
	}
	if o.failed > 0 {
		o.invalid = fmt.Errorf("%d of %d clients completed no sync exchange: %v", o.failed, o.attempted, idle)
	}
	o.rate = median(rates)
	o.e2e("setup_s", "s", o.setupS)
	o.e2e("dev_sim_s_per_wall_s", "device-s/s", o.rate)
	o.e2e("max_offset_ns", "ns", maxOffPs/1000)
	o.set("sim.events", float64(prefixEvents))
	o.set("sim.ns_per_event", runWall*1e9/float64(events))
	o.set("sim.allocs_per_event", float64(allocs)/float64(events))
	return o, nil
}
