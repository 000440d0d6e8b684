package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/dtplab/dtp/internal/campaign"
)

// grids holds the two campaign grids; their seeds come from the
// workload seed. Grid b names its chaos scenario relative to the
// repository root, the directory the benchmark runs from.
//
//go:embed grids/a.json grids/b.json
var grids embed.FS

const (
	campaignSetups = 30000 // grid load and expansion repetitions; setup_s is their median
	tracedSetups   = 2000  // repetitions on a traced pass, whose spans are kept
	campaignSeedsA = 2     // seeds of grid a per round
	campaignSeedsB = 6     // seeds of grid b per round
	campaignRoundS = 6     // wall seconds of --seconds per window round
)

// loadGrids parses both grids, gives them the round's seeds and validates
// and expands them. Round r of seed s runs grid a on seeds
// s+2r, s+2r+1 and grid b on six seeds from s+1000+6r, so every round
// of a run covers new seeds.
func loadGrids(e env, parent int, round int) ([]campaign.Grid, error) {
	var gs []campaign.Grid
	for _, spec := range []struct {
		file  string
		base  uint64
		seeds int
	}{{"grids/a.json", 0, campaignSeedsA}, {"grids/b.json", 1000, campaignSeedsB}} {
		raw, err := grids.ReadFile(spec.file)
		if err != nil {
			return nil, err
		}
		var g campaign.Grid
		if err := json.Unmarshal(raw, &g); err != nil {
			return nil, fmt.Errorf("%s: %w", spec.file, err)
		}
		g.Seeds = campaign.SeedSweep(e.seed+spec.base+uint64(round*spec.seeds), spec.seeds)
		var verr error
		e.tr.call("campaign.Grid.Validate", parent, func() { verr = g.Validate() })
		if verr != nil {
			return nil, fmt.Errorf("%s: %w", spec.file, verr)
		}
		e.tr.call("campaign.Grid.Expand", parent, func() { g.Expand() })
		gs = append(gs, g)
	}
	return gs, nil
}

// windowRounds is how many rounds the window runs: one per
// campaignRoundS seconds of the window, at least one. A fixed number of
// rounds, not a deadline, so that the runs judged, and so attempted and
// failed, repeat exactly for a seed and window length.
func windowRounds(seconds float64) int {
	return max(1, int(math.Round(seconds/campaignRoundS)))
}

// runCampaign runs round 0 of the campaign (grid a, then grid b) with
// jobs = GOMAXPROCS-1 as a warm-up, then windowRounds further rounds. A run
// fails if its Result.OK() is false; every run of every round is judged.
// The oracle requires every run to complete without a run-level error;
// round 0's JSONL and results are in the digest and the per-layer sums.
func runCampaign(e env) (*outcome, error) {
	o := newOutcome()
	// One load takes microseconds, and its time moves between phases of
	// the host; 30000 loads span about half a second of them.
	setups := campaignSetups
	if e.tr != nil {
		setups = tracedSetups
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		sp := e.tr.begin("bench.setup", e.root)
		t := time.Now()
		_, err := loadGrids(e, sp, 0)
		setupS = append(setupS, time.Since(t).Seconds())
		e.tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	o.setupS = median(setupS)
	e.settle()

	// One CPU stays free for the garbage collector and the heap sampler,
	// as in serve-reads: with every CPU running a job, the rate follows
	// whatever else the host runs on the last one.
	jobs := max(1, runtime.GOMAXPROCS(0)-1)
	var (
		walls               []float64
		sumRunWall, sumWall float64
	)
	// round runs one round under span parent and checks its runs.
	round := func(r, parent int) ([]campaign.Result, error) {
		gs, err := loadGrids(e, parent, r)
		if err != nil {
			return nil, err
		}
		var res []campaign.Result
		for _, g := range gs {
			var rep *campaign.Report
			e.tr.call("campaign.Run", parent, func() { rep, err = campaign.Run(g, campaign.Options{Jobs: jobs}) })
			if err != nil {
				return nil, err
			}
			sumWall += rep.Wall.Seconds()
			res = append(res, rep.Results...)
		}
		for i := range res {
			r := &res[i]
			o.attempted++
			walls = append(walls, r.Wall.Seconds())
			sumRunWall += r.Wall.Seconds()
			if !r.OK() {
				o.failed++
			}
			if r.Err != "" && o.oracle == nil {
				o.oracle = fmt.Errorf("run %s: %s", r.Point, r.Err)
			}
		}
		return res, nil
	}

	warm := e.tr.begin("bench.warmup", e.root)
	first, err := round(0, warm)
	e.tr.end(warm)
	if err != nil {
		return nil, err
	}
	var jsonl bytes.Buffer
	if err := campaign.WriteJSONL(&jsonl, first); err != nil {
		return nil, err
	}
	for i := range first {
		firstRoundResult(o, &first[i])
	}
	sum := sha256.Sum256(jsonl.Bytes())
	o.counts = append(o.counts, count{"campaign.jsonl_sha256", hex.EncodeToString(sum[:])},
		countU("campaign.runs", uint64(len(first))))

	win := e.tr.begin("bench.window", e.root)
	// The rate is over the whole window, not a median over rounds: the
	// rounds' seeds differ, and so does their work.
	runs, start := 0, time.Now()
	for r := 1; r <= windowRounds(e.seconds); r++ {
		res, err := round(r, win)
		if err != nil {
			return nil, err
		}
		runs += len(res)
	}
	o.rate = float64(runs) / time.Since(start).Seconds()
	e.tr.end(win)
	e.settle()

	o.e2e("setup_s", "s", o.setupS)
	o.e2e("campaign_runs_per_s", "runs/s", o.rate)
	o.set("campaign.run_wall_p50_s", quantile(walls, 0.5))
	o.set("campaign.run_wall_max_s", quantile(walls, 1))
	o.set("par.efficiency", sumRunWall/(float64(jobs)*sumWall))
	return o, nil
}

// firstRoundResult adds one first-round run to the per-layer sums.
func firstRoundResult(o *outcome, r *campaign.Result) {
	add := func(name string, v float64) { o.set(name, o.layer[name]+v) }
	add("core.counter_rejections", float64(r.CounterRejections))
	add("core.port_quarantines", float64(r.PortQuarantines))
	o.set("core.time_to_sync_us_max", max(o.layer["core.time_to_sync_us_max"], r.TimeToSyncUs))
	add("audit.checks", float64(r.AuditChecks))
	add("audit.violations", float64(r.AuditViolations))
	add("audit.excused", float64(r.AuditExcused))
	add("timesvc.reads", float64(r.TimeReads))
	add("timesvc.failed_closed", float64(r.TimeFailedClosed))
	add("timesvc.uncovered", float64(r.TimeUncovered))
	add("discipline.dropped", float64(r.DaemonDropped))
	if r.Chaos != "" || r.Liars > 0 {
		add("chaos.runs", 1)
		if r.ChaosOK {
			add("chaos.verified", 1)
		}
	}
}
