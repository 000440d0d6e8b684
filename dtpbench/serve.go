package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dtplab/dtp/internal/audit"
	"github.com/dtplab/dtp/internal/core"
	"github.com/dtplab/dtp/internal/daemon"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
	"github.com/dtplab/dtp/internal/timesvc"
	"github.com/dtplab/dtp/internal/topo"
)

const (
	serveSetups       = 5                      // set-up repetitions; setup_s is their median
	serveCalEvery     = 10 * sim.Millisecond   // daemon calibration, UTC broadcast and publish cadence
	serveCalSettle    = 100 * sim.Millisecond  // simulated time calibrated past the first publish
	serveCalLimit     = 1000 * sim.Millisecond // give up if nothing publishes by then
	servePublishEvery = 10 * time.Millisecond  // wall-clock writer cadence
	serveSampleEvery  = 1024                   // reads per timed and checked read
	serveMaxSamples   = 1 << 18                // latency samples kept per reader
	serveSpanEvery    = 16                     // timed reads per span on traced passes
	serveRateEvery    = 100 * time.Millisecond // interval of the read-rate samples
	serveProgress     = 4096                   // reads between a reader's progress updates
)

// plane is the paper tree with a calibrated serving plane.
type plane struct {
	sch      *sim.Scheduler
	n        *core.Network
	aud      *audit.Auditor
	daemons  []*daemon.Daemon
	services []*timesvc.Service // sorted by host
	calS     float64            // wall seconds of calibration
	calEv    uint64             // events dispatched during calibration
	calAlloc uint64             // heap allocations during calibration
	calWall  float64            // wall seconds inside the scheduler during calibration
}

// buildPlane builds the paper tree, attaches an auditor, a daemon per
// host, a UTC broadcast from the first host and a time service on
// every other host, then calibrates in simulation until every service
// has published and a further serveCalSettle has passed.
func buildPlane(e env, parent int) (*plane, setupTimes, error) {
	pl := &plane{sch: sim.NewScheduler()}
	n, st, err := buildNetwork(e, parent, pl.sch, topo.PaperTree, core.DefaultConfig())
	if err != nil {
		return nil, st, err
	}
	pl.n = n
	t0 := time.Now()
	e.tr.call("audit.New", parent, func() {
		pl.aud = audit.New(n, audit.DefaultConfig())
		pl.aud.Start()
	})
	dcfg := daemon.DefaultConfig()
	dcfg.CalInterval = serveCalEvery
	attach := func(dev *core.Device) (d *daemon.Daemon, err error) {
		e.tr.call("daemon.Attach", parent, func() {
			d, err = daemon.Attach(dev, daemon.Options{Config: dcfg}, e.seed+uint64(dev.ID())+1000)
		})
		if err == nil {
			d.Start()
			pl.daemons = append(pl.daemons, d)
		}
		return d, err
	}
	var hosts []string
	for _, id := range n.Graph.HostIDs() {
		hosts = append(hosts, n.Graph.Nodes[id].Name)
	}
	bdev, err := n.DeviceByName(hosts[0])
	if err != nil {
		return nil, st, err
	}
	bd, err := attach(bdev)
	if err != nil {
		return nil, st, err
	}
	b := daemon.NewUTCBroadcaster(bd, daemon.TrueUTC{Sch: pl.sch}, serveCalEvery)
	served := append([]string(nil), hosts[1:]...)
	sort.Strings(served)
	for _, h := range served {
		dev, err := n.DeviceByName(h)
		if err != nil {
			return nil, st, err
		}
		d, err := attach(dev)
		if err != nil {
			return nil, st, err
		}
		f := daemon.NewUTCFollower(d)
		b.Subscribe(f)
		var svc *timesvc.Service
		e.tr.call("timesvc.NewService", parent, func() {
			svc = timesvc.NewService(d, f, pl.aud, timesvc.ServiceConfig{PublishInterval: serveCalEvery})
			svc.Start()
		})
		pl.services = append(pl.services, svc)
	}
	b.Start()

	cal := e.tr.begin("bench.calibrate", parent)
	published := func() bool {
		for _, s := range pl.services {
			if _, ok := s.Store().Read(); !ok {
				return false
			}
		}
		return true
	}
	e0, a0 := pl.sch.Processed(), allocsNow()
	var settleUntil sim.Time
	for settleUntil == 0 || pl.sch.Now() < settleUntil {
		if settleUntil == 0 && published() {
			settleUntil = pl.sch.Now() + serveCalSettle
			continue
		}
		if pl.sch.Now() >= serveCalLimit {
			e.tr.end(cal)
			return nil, st, fmt.Errorf("no snapshot published on every host after %v simulated", pl.sch.Now())
		}
		t := time.Now()
		e.tr.call("sim.Scheduler.RunFor", cal, func() { pl.sch.RunFor(serveCalEvery) })
		pl.calWall += time.Since(t).Seconds()
	}
	e.tr.end(cal)
	pl.calEv, pl.calAlloc = pl.sch.Processed()-e0, allocsNow()-a0
	pl.calS = time.Since(t0).Seconds()
	st.total += pl.calS
	return pl, st, nil
}

// readerTally is one reader goroutine's count, merged after the run.
type readerTally struct {
	reads, errors, checked, uncovered uint64
	progress                          atomic.Uint64 // reads, published every serveProgress reads
	latNs, observeNs                  []float64
	sink                              float64
}

// runServe calibrates the plane, then runs a wall-clock closed loop:
// GOMAXPROCS-1 readers call Clock.NowInterval back to back and feed
// every served width into a striped histogram, while one writer
// republishes the store at the plane's cadence. A read fails if it
// returns an error, or if a timed read's interval excludes the reading
// it was evaluated at.
func runServe(e env) (*outcome, error) {
	o := newOutcome()
	var pl *plane
	var totalS, buildS, newS, syncS, calS []float64
	var same repeatCheck
	for i := 0; i < serveSetups; i++ {
		sp := e.tr.begin("bench.setup", e.root)
		var st setupTimes
		var err error
		pl, st, err = buildPlane(e, sp)
		e.tr.end(sp)
		if err != nil {
			return nil, err
		}
		totalS, buildS, newS, syncS, calS = append(totalS, st.total), append(buildS, st.build),
			append(newS, st.construct), append(syncS, st.sync), append(calS, pl.calS)
		sn, _ := pl.services[0].Store().Read()
		same.add(i, append(totals(pl.n).counts(), countU("sim.events", pl.sch.Processed()),
			countU("audit.checks", pl.aud.Checks()), countF("timesvc.bound_ps", sn.BoundPs)))
	}
	o.oracle = same.err
	o.setupS = median(totalS)
	e.settle()
	o.set("topo.build_s", median(buildS))
	o.set("core.new_s", median(newS))
	o.set("core.sync_s", median(syncS))
	o.set("timesvc.calibrate_s", median(calS))

	// In simulation, every served interval must contain true time.
	svc := pl.services[0]
	for _, s := range pl.services {
		_, covered, err := s.ReadCheck()
		o.attempted++
		if err != nil || !covered {
			o.failed++
		}
	}
	calSnap, _ := svc.Store().Read()
	attr := svc.Attribution()
	var cals, dropped uint64
	for _, d := range pl.daemons {
		cals += d.Calibrations()
		dropped += d.DroppedSamples()
	}
	svcDaemon := pl.daemons[1] // attached right after the broadcaster's
	pt := totals(pl.n)
	pt.report(o)
	o.set("sim.events", float64(pl.calEv))
	o.set("sim.ns_per_event", pl.calWall*1e9/float64(pl.calEv))
	o.set("sim.allocs_per_event", float64(pl.calAlloc)/float64(pl.calEv))
	o.set("sim.pending_high_water", float64(pl.sch.HighWaterPending()))
	o.set("audit.checks", float64(pl.aud.Checks()))
	o.set("audit.violations", float64(pl.aud.Violations()))
	o.set("audit.excused", float64(pl.aud.ExcusedViolations()))
	o.set("daemon.calibrations", float64(cals))
	o.set("discipline.err_ticks", svcDaemon.EstimateErrorUnits())
	o.set("discipline.dropped", float64(dropped))
	for _, c := range attr.Components {
		o.set("timesvc.eps_"+c.Name+"_ps", c.LastPs)
	}
	o.counts = append([]count{
		countU("sim.events", pl.sch.Processed()), countU("sim.now_ps", uint64(pl.sch.Now())),
		countU("audit.checks", pl.aud.Checks()), countU("audit.violations", pl.aud.Violations()),
		countU("daemon.calibrations", cals), countU("discipline.dropped", dropped),
		countU("timesvc.publishes", svc.Publishes()), countF("timesvc.bound_ps", calSnap.BoundPs),
		countF("timesvc.total_last_ps", attr.TotalLastPs),
	}, pt.counts()...)

	w := hammer(e, calSnap)
	e.settle()
	o.attempted += int(w.reads)
	o.failed += int(w.errors + w.uncovered)
	if o.failed > 0 {
		o.invalid = fmt.Errorf("%d of %d reads failed (%d errors, %d of %d timed reads uncovered)",
			o.failed, o.attempted, w.errors, w.uncovered, w.checked)
	}
	o.rate = median(w.rates)
	o.e2e("setup_s", "s", o.setupS)
	o.e2e("serve_reads_per_s", "reads/s", o.rate)
	o.e2e("serve_read_p50_ns", "ns", quantile(w.latNs, 0.5))
	o.e2e("serve_read_p99_ns", "ns", quantile(w.latNs, 0.99))
	o.e2e("serve_read_samples", "count", float64(len(w.latNs)))
	o.e2e("serve_eps_ns", "ns", calSnap.BoundPs/1000)
	o.set("timesvc.publish_ns", median(w.publishNs))
	o.set("timesvc.read_errors", float64(w.errors))
	o.set("timesvc.uncovered", float64(w.uncovered))
	o.set("timesvc.width_p50_ps", w.widths.Quantile(0.5))
	o.set("timesvc.width_p99_ps", w.widths.Quantile(0.99))
	o.set("timesvc.reads", float64(w.reads))
	o.set("telemetry.observe_ns", median(w.observeNs))
	return o, nil
}

// hammerResult is the wall-clock loop's merged tally.
type hammerResult struct {
	reads, errors, checked, uncovered uint64
	latNs, observeNs                  []float64
	rates                             []float64 // aggregate reads per second, per serveRateEvery interval
	publishNs                         []float64
	widths                            telemetry.HistogramSnapshot
}

// hammerSink keeps the read results from being optimized away.
var hammerSink float64

// hammer re-anchors the calibrated snapshot onto the host's monotonic
// clock: the writer publishes UTC(r) = r ± a quarter of the calibrated
// bound with a 1 ppm ratio error, so every served interval must still
// contain the raw reading it was evaluated at.
func hammer(e env, cal timesvc.Snapshot) hammerResult {
	const anchorJitterFrac, ratioErrPPM = 0.25, 1.0
	store := &timesvc.Store{}
	tb := timesvc.NewWallTimebase(0)
	clock := timesvc.NewClock(store, tb)
	readers := max(runtime.GOMAXPROCS(0)-1, 1)
	widths := telemetry.NewStripedHistogram(1000, 30, readers)
	win := e.tr.begin("bench.window", e.root)

	epoch := uint64(0)
	publish := func() float64 {
		epoch++
		sign := float64(1 - 2*int(epoch%2))
		raw := tb.Raw()
		sn := timesvc.Snapshot{
			Epoch: epoch, AnchorRaw: raw,
			AnchorUTC: float64(raw) + sign*anchorJitterFrac*cal.BoundPs,
			Ratio:     1 + sign*ratioErrPPM*1e-6,
			BoundPs:   cal.BoundPs, DriftPPM: cal.DriftPPM,
			MaxAgePs: int64(8 * servePublishEvery / time.Nanosecond * 1000),
		}
		t := time.Now()
		e.tr.call("timesvc.Store.Publish", win, func() { store.Publish(sn) })
		return float64(time.Since(t).Nanoseconds())
	}
	var res hammerResult
	res.publishNs = append(res.publishNs, publish())

	var stop atomic.Bool
	var writer, wg sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		tick := time.NewTicker(servePublishEvery)
		defer tick.Stop()
		for range tick.C {
			if stop.Load() {
				return
			}
			res.publishNs = append(res.publishNs, publish())
		}
	}()

	tallies := make([]readerTally, readers)
	for i := range tallies {
		// Preallocated, so the sample buffer does not grow the heap
		// during the window.
		tallies[i].latNs = make([]float64, 0, serveMaxSamples)
	}
	start := time.Now()
	for i := range tallies {
		wg.Add(1)
		go func(t *readerTally) {
			defer wg.Done()
			// One span covers the reader's back-to-back calls; the
			// sampled reads inside it get spans of their own.
			loop := e.tr.begin("timesvc.Clock.NowInterval", win)
			defer e.tr.end(loop)
			sw := widths.Writer()
			defer sw.Flush()
			n := 0
			for !stop.Load() {
				n++
				t.reads++
				if n%serveProgress == 0 {
					t.progress.Store(t.reads)
				}
				if n%serveSampleEvery != 0 {
					iv, err := clock.NowInterval()
					if err != nil {
						t.errors++
						continue
					}
					t.sink += iv.EarliestPs
					sw.Observe(iv.WidthPs())
					continue
				}
				sp := -1
				if t.checked%serveSpanEvery == 0 {
					sp = e.tr.begin("timesvc.Clock.At", loop)
				}
				t0 := time.Now()
				raw := tb.Raw()
				_, iv, err := clock.At(raw)
				lat := time.Since(t0)
				e.tr.end(sp)
				if err != nil {
					t.errors++
					continue
				}
				t.checked++
				if !iv.Contains(float64(raw)) {
					t.uncovered++
				}
				if len(t.latNs) < cap(t.latNs) {
					t.latNs = append(t.latNs, float64(lat.Nanoseconds()))
				}
				if e.tr == nil {
					sw.Observe(iv.WidthPs())
					continue
				}
				// Traced passes time the histogram write; a batch of 16
				// lifts it above the clock's resolution.
				ob := -1
				if sp >= 0 {
					ob = e.tr.begin("telemetry.StripeWriter.Observe", loop)
				}
				t0 = time.Now()
				for j := 0; j < 16; j++ {
					sw.Observe(iv.WidthPs())
				}
				t.observeNs = append(t.observeNs, float64(time.Since(t0).Nanoseconds())/16)
				e.tr.end(ob)
			}
		}(&tallies[i])
	}
	tick := time.NewTicker(serveRateEvery)
	last, lastAt := uint64(0), start
	for now := range tick.C {
		var reads uint64
		for i := range tallies {
			reads += tallies[i].progress.Load()
		}
		res.rates = append(res.rates, float64(reads-last)/now.Sub(lastAt).Seconds())
		last, lastAt = reads, now
		if now.Sub(start).Seconds() >= e.seconds {
			break
		}
	}
	tick.Stop()
	stop.Store(true)
	wg.Wait()
	writer.Wait()
	e.tr.end(win)

	for i := range tallies {
		t := &tallies[i]
		res.reads += t.reads
		res.errors += t.errors
		res.checked += t.checked
		res.uncovered += t.uncovered
		res.latNs = append(res.latNs, t.latNs...)
		res.observeNs = append(res.observeNs, t.observeNs...)
		hammerSink += t.sink
	}
	widths.FlushAll()
	res.widths = widths.Snapshot()
	return res
}
