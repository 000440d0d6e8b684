package main

import (
	"fmt"
	"time"

	"github.com/dtplab/dtp/internal/core"
	"github.com/dtplab/dtp/internal/link"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/topo"
)

// fattreeParams sizes the fattree-steady harness. The validity
// self-test drives the same harness at other beacon cadences.
type fattreeParams struct {
	k          int      // fat-tree arity
	beacon     uint64   // BEACON interval in ticks
	slice      sim.Time // simulated time between validity checks
	checkpoint int      // slices in the deterministic prefix the digest covers
	setups     int      // set-up repetitions; setup_s is their median
}

// counterSink keeps the timed counter reads from being optimized away.
var counterSink uint64

// fattreeSteady is the workload: fattree:8 (208 devices, 384 links) at
// the paper's 200-tick beacon.
var fattreeSteady = fattreeParams{k: 8, beacon: 200, slice: 500 * sim.Microsecond, checkpoint: 8, setups: 15}

// setupTimes are the wall times of one network build, in seconds.
type setupTimes struct{ build, construct, sync, total float64 }

// buildNetwork builds topology g's DTP network on sch and runs INIT
// until every link is synchronized.
func buildNetwork(e env, parent int, sch *sim.Scheduler, mkGraph func() topo.Graph, cfg core.Config) (*core.Network, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	var g topo.Graph
	e.tr.call("topo.Build", parent, func() { g = mkGraph() })
	t1 := time.Now()
	var n *core.Network
	var err error
	e.tr.call("core.NewNetwork", parent, func() { n, err = core.NewNetwork(sch, e.seed, g, cfg) })
	if err != nil {
		return nil, st, err
	}
	t2 := time.Now()
	if err := initSync(e, parent, sch, n); err != nil {
		return nil, st, err
	}
	t3 := time.Now()
	st = setupTimes{
		build: t1.Sub(t0).Seconds(), construct: t2.Sub(t1).Seconds(),
		sync: t3.Sub(t2).Seconds(), total: t3.Sub(t0).Seconds(),
	}
	return n, st, nil
}

// initSync starts every link and steps the scheduler until INIT has
// completed everywhere.
func initSync(e env, parent int, sch *sim.Scheduler, n *core.Network) error {
	const step, limit = 10 * sim.Microsecond, 100 * sim.Millisecond
	sp := e.tr.begin("bench.init_sync", parent)
	defer e.tr.end(sp)
	e.tr.call("core.Network.Start", sp, n.Start)
	for !n.AllSynced() {
		if sch.Now() >= limit {
			return fmt.Errorf("network not synchronized after %v simulated", sch.Now())
		}
		e.tr.call("sim.Scheduler.RunFor", sp, func() { sch.RunFor(step) })
	}
	return nil
}

// portTotals sums the beacon and wire counters of every link.
type portTotals struct {
	sent, received, ignored, jumps uint64
	faulty                         int
	blocks, corrupted              uint64
}

func totals(n *core.Network) portTotals {
	var t portTotals
	for i := range n.Graph.Links {
		a, b := n.LinkPorts(i)
		for _, p := range []*core.Port{a, b} {
			s, r, ig, j := p.Stats()
			t.sent += s
			t.received += r
			t.ignored += ig
			t.jumps += j
			if p.Faulty() {
				t.faulty++
			}
		}
		ab, ba := n.LinkWires(i)
		for _, w := range []*link.Wire{ab, ba} {
			s, c := w.Stats()
			t.blocks += s
			t.corrupted += c
		}
	}
	return t
}

func (t portTotals) counts() []count {
	return []count{
		countU("core.beacons_sent", t.sent), countU("core.beacons_received", t.received),
		countU("core.beacons_ignored", t.ignored), countU("core.counter_jumps", t.jumps),
		countU("core.faulty_ports", uint64(t.faulty)),
		countU("link.blocks_sent", t.blocks), countU("link.blocks_corrupted", t.corrupted),
	}
}

func (t portTotals) report(o *outcome) {
	o.set("core.beacons_sent", float64(t.sent))
	o.set("core.beacons_received", float64(t.received))
	o.set("core.beacons_ignored", float64(t.ignored))
	o.set("core.beacon_useful_ratio", float64(t.received-t.ignored)/float64(max(t.sent, 1)))
	o.set("core.faulty_ports", float64(t.faulty))
	o.set("core.counter_jumps", float64(t.jumps))
	o.set("link.blocks_sent", float64(t.blocks))
	o.set("link.blocks_corrupted", float64(t.corrupted))
}

// runFattree runs the steady beacon hot path of a synchronized
// fat-tree. Each slice of simulated time is followed by a validity
// check; a check fails if the worst pairwise offset exceeds the 4TD
// bound, if any port is faulty, or if any beacon was ignored in the
// slice. The checks of the digest prefix are the workload's
// operations, so attempted and failed repeat exactly for a seed; a
// failed check after the prefix makes the run invalid too.
func runFattree(e env, p fattreeParams) (*outcome, error) {
	o := newOutcome()
	cfg := core.DefaultConfig()
	cfg.BeaconIntervalTicks = p.beacon
	mkGraph := func() topo.Graph { return topo.FatTree(p.k) }

	var sch *sim.Scheduler
	var n *core.Network
	var totalS, buildS, newS, syncS []float64
	var same repeatCheck
	for i := 0; i < p.setups; i++ {
		sp := e.tr.begin("bench.setup", e.root)
		sch = sim.NewScheduler()
		var st setupTimes
		var err error
		n, st, err = buildNetwork(e, sp, sch, mkGraph, cfg)
		e.tr.end(sp)
		if err != nil {
			return nil, err
		}
		totalS, buildS, newS, syncS = append(totalS, st.total), append(buildS, st.build),
			append(newS, st.construct), append(syncS, st.sync)
		same.add(i, append(totals(n).counts(), countU("sim.events", sch.Processed()), countU("sim.now_ps", uint64(sch.Now()))))
	}
	o.oracle = same.err
	o.setupS = median(totalS)
	e.settle()
	o.set("topo.build_s", median(buildS))
	o.set("core.new_s", median(newS))
	o.set("core.sync_s", median(syncS))
	o.set("core.sync_sim_us", sch.Now().Seconds()*1e6)
	syncedAt := sch.Now()

	bound := n.BoundUnits()
	devs := n.Devices
	win := e.tr.begin("bench.window", e.root)
	var (
		runWall, prefixWall float64
		events, allocs      uint64
		prefixEvents        uint64
		slices              int
		checkNs, readNs     []float64
		rates               []float64 // device-simulated-seconds per wall second, per slice
		maxOff              int64
		firstFail           string
		checksFailed        int
		sink                uint64
		prevIgnored         = totals(n).ignored
		startEvents         = sch.Processed()
	)
	start := time.Now()
	for slices < p.checkpoint || time.Since(start).Seconds() < e.seconds {
		e0, a0 := sch.Processed(), allocsNow()
		t := time.Now()
		e.tr.call("sim.Scheduler.RunFor", win, func() { sch.RunFor(p.slice) })
		dt := time.Since(t).Seconds()
		runWall += dt
		rates = append(rates, float64(len(devs))*p.slice.Seconds()/dt)
		events += sch.Processed() - e0
		allocs += allocsNow() - a0
		slices++

		chk := e.tr.begin("bench.check", win)
		t = time.Now()
		var off int64
		e.tr.call("core.Network.MaxPairwiseOffset", chk, func() { off = n.MaxPairwiseOffset() })
		checkNs = append(checkNs, float64(time.Since(t).Nanoseconds()))
		t = time.Now()
		e.tr.call("xo.Clock.CounterAt", chk, func() {
			for _, d := range devs {
				sink += d.GlobalCounter()
			}
		})
		readNs = append(readNs, float64(time.Since(t).Nanoseconds())/float64(len(devs)))
		var pt portTotals
		e.tr.call("core.Port.Stats", chk, func() { pt = totals(n) })
		e.tr.end(chk)

		bad := off > bound || pt.faulty > 0 || pt.ignored > prevIgnored
		if slices <= p.checkpoint {
			o.attempted++
			if bad {
				o.failed++
			}
		}
		if bad {
			checksFailed++
			if firstFail == "" {
				firstFail = fmt.Sprintf("slice %d: max offset %d ticks (bound %d), %d faulty ports, %d beacons ignored",
					slices, off, bound, pt.faulty, pt.ignored-prevIgnored)
			}
		}
		prevIgnored = pt.ignored
		if slices <= p.checkpoint {
			maxOff = max(maxOff, off)
			prefixWall += dt
		}
		if slices == p.checkpoint {
			prefixEvents = sch.Processed() - startEvents
			o.counts = append([]count{
				countU("sim.events", sch.Processed()), countU("sim.now_ps", uint64(sch.Now())),
				countU("sim.pending_high_water", uint64(sch.HighWaterPending())),
				countU("core.max_offset_ticks", uint64(maxOff)),
				countU("core.sync_sim_ps", uint64(syncedAt)),
			}, pt.counts()...)
			pt.report(o)
			o.set("sim.pending_high_water", float64(sch.HighWaterPending()))
		}
	}
	e.tr.end(win)
	e.settle()
	counterSink = sink
	if checksFailed > 0 {
		o.invalid = fmt.Errorf("%d of %d validity checks failed; first at %s", checksFailed, slices, firstFail)
	}

	o.rate = median(rates)
	tick := float64(cfg.UnitFs()) / 1e6
	o.e2e("setup_s", "s", o.setupS)
	o.e2e("dev_sim_s_per_wall_s", "device-s/s", o.rate)
	o.e2e("max_offset_ns", "ns", float64(maxOff)*tick)
	o.e2e("bound_ns", "ns", float64(bound)*tick)
	o.set("sim.events", float64(prefixEvents))
	o.set("sim.ns_per_event", runWall*1e9/float64(events))
	o.set("sim.allocs_per_event", float64(allocs)/float64(events))
	o.set("core.max_offset_check_ns", median(checkNs))
	o.set("xo.counter_read_ns", median(readNs))

	if e.tr != nil {
		// The heap reference scheduler replays the same prefix; its
		// dispatch order, and so every count, must be identical.
		ref, err := heapReference(e, p, cfg, mkGraph)
		if err != nil {
			return nil, err
		}
		if ref.events != prefixEvents && o.oracle == nil {
			o.oracle = fmt.Errorf("heap reference dispatched %d events in the prefix, calendar queue %d", ref.events, prefixEvents)
		}
		o.set("sim.heap_ref_ratio", (prefixWall/float64(prefixEvents))/(ref.wall/float64(ref.events)))
	}
	return o, nil
}

// heapRun is the heap reference scheduler's replay of the prefix.
type heapRun struct {
	events uint64
	wall   float64
}

func heapReference(e env, p fattreeParams, cfg core.Config, mkGraph func() topo.Graph) (heapRun, error) {
	sp := e.tr.begin("bench.heap_reference", e.root)
	defer e.tr.end(sp)
	sch := sim.NewHeapScheduler()
	if _, _, err := buildNetwork(e, sp, sch, mkGraph, cfg); err != nil {
		return heapRun{}, err
	}
	var r heapRun
	start := sch.Processed()
	for i := 0; i < p.checkpoint; i++ {
		t := time.Now()
		e.tr.call("sim.Scheduler.RunFor", sp, func() { sch.RunFor(p.slice) })
		r.wall += time.Since(t).Seconds()
	}
	r.events = sch.Processed() - start
	return r, nil
}
