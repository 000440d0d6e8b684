// Command dtpbench is the benchmark of record for this repository. One
// invocation runs one named workload for one seed, checks the
// workload's correctness oracle, prints every metric as a record, and
// ends with a one-line JSON result:
//
//	bash dtpbench/run.sh --workload fattree-steady --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of an
// untraced run. With --trace 1 the same seed runs twice, untraced and
// then traced, each for half the time; the traced pass must reproduce
// every simulated count of the untraced one, and the result carries the
// per-layer metrics, each layer's self time from the spans, and the
// tracing overhead. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// env is what a workload pass receives.
type env struct {
	seed    uint64
	seconds float64 // wall time of the measured window
	tr      *tracer // nil on untraced passes
	root    int     // span the pass's spans hang under
	heap    *heapSampler
}

// outcome is what one pass of a workload measured.
type outcome struct {
	setupS    float64 // median wall time of the repeated set-up
	rate      float64 // units of work per wall second in the window (ops_per_s)
	attempted int
	failed    int
	oracle    error              // set when the workload's correctness check failed
	invalid   error              // set when a validity check failed: the run's numbers do not count
	named     []metric           // the workload's own end-to-end metrics
	layer     map[string]float64 // per-layer metrics, by name
	counts    []count            // simulated counts behind the digest
}

func newOutcome() *outcome { return &outcome{layer: map[string]float64{}} }

// valid reports whether the run's numbers count: its oracle held and
// no validity check failed.
func (o *outcome) valid() bool { return o.oracle == nil && o.invalid == nil }

// repeatCheck is the determinism oracle of a repeated set-up: every
// repetition with one seed must reach the same simulated state.
type repeatCheck struct {
	first string
	err   error
}

func (r *repeatCheck) add(rep int, cs []count) {
	d := digest(cs)
	switch {
	case rep == 0:
		r.first = d
	case d != r.first && r.err == nil:
		r.err = fmt.Errorf("set-up %d reached a different simulated state than set-up 1", rep+1)
	}
}

// e2e adds one of the workload's own end-to-end metrics.
func (o *outcome) e2e(name, unit string, v float64) {
	o.named = append(o.named, metric{Name: name, Layer: "e2e", Unit: unit, Value: v})
}

// set records a per-layer metric; the name must be declared in perLayer.
func (o *outcome) set(name string, v float64) {
	unitOf(name)
	o.layer[name] = v
}

// workloads maps each workload name to its pass.
var workloads = map[string]func(env) (*outcome, error){
	"fattree-steady": func(e env) (*outcome, error) { return runFattree(e, fattreeSteady) },
	"serve-reads":    runServe,
	"campaign-mixed": runCampaign,
	"ptp-heavy":      runPTP,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dtpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed; every generated input derives from it")
	seconds := fs.Float64("seconds", 10, "wall seconds of the measured window")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	commit := fs.String("commit", "unknown", "commit the binary was built from, for the records")
	spansDir := fs.String("spans-dir", "", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "dtpbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}

	if *traced == 0 {
		out, liveMB, err := measure(w, env{seed: *seed, seconds: *seconds, root: -1})
		if err != nil {
			fmt.Fprintf(stderr, "dtpbench: %s: %v\n", *name, err)
			return 1
		}
		printRecords(stdout, passMetrics(out, liveMB), *name, *seed, "untraced", *commit, out.valid())
		printDigest(stdout, *name, *seed, out.counts)
		vals := map[string]float64{"setup_s": out.setupS, "ops_per_s": out.rate, "heap_live_mb": liveMB}
		return finish(stdout, stderr, *name, out, endToEnd, vals)
	}

	half := *seconds / 2
	plain, plainLive, err := measure(w, env{seed: *seed, seconds: half, root: -1})
	if err != nil {
		fmt.Fprintf(stderr, "dtpbench: %s untraced pass: %v\n", *name, err)
		return 1
	}
	tr := newTracer(fmt.Sprintf("%s/seed=%d", *name, *seed))
	out, liveMB, err := measure(w, env{seed: *seed, seconds: half, tr: tr})
	if err != nil {
		fmt.Fprintf(stderr, "dtpbench: %s traced pass: %v\n", *name, err)
		return 1
	}
	if out.oracle == nil && plain.oracle != nil {
		out.oracle = fmt.Errorf("untraced pass: %w", plain.oracle)
	}
	if out.invalid == nil && plain.invalid != nil {
		out.invalid = fmt.Errorf("untraced pass: %w", plain.invalid)
	}
	if a, b := digest(plain.counts), digest(out.counts); out.oracle == nil && a != b {
		out.oracle = fmt.Errorf("traced pass changed the simulated counts: digest %s, untraced %s", b, a)
	}
	vals := out.layer
	wall := 0.0
	for _, s := range tr.spans {
		if s.Parent < 0 {
			wall += s.End - s.Start
		}
	}
	self := selfTimes(tr.spans)
	for _, l := range layers {
		vals[l+".self_s"] = self[l]
		vals[l+".share"] = self[l] / wall
	}
	vals["trace.overhead"] = 1 - out.rate/plain.rate
	vals["trace.spans"] = float64(len(tr.spans))

	valid := out.valid()
	printRecords(stdout, passMetrics(plain, plainLive), *name, *seed, "untraced", *commit, valid)
	ms := passMetrics(out, liveMB)
	for _, d := range perLayer {
		ms = append(ms, metric{Name: d.name, Layer: layerOf(d.name), Unit: d.unit, Value: vals[d.name]})
	}
	printRecords(stdout, ms, *name, *seed, "traced", *commit, valid)
	printDigest(stdout, *name, *seed, out.counts)
	if *spansDir != "" {
		path := filepath.Join(*spansDir, fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed))
		if err := writeSpans(path, tr.spans); err != nil {
			fmt.Fprintf(stderr, "dtpbench: %v\n", err)
			return 1
		}
	}
	return finish(stdout, stderr, *name, out, perLayer, vals)
}

// passMetrics is a pass's end-to-end metrics: the workload's own, its
// failed ratio and its live heap.
func passMetrics(o *outcome, liveMB float64) []metric {
	return append(append([]metric(nil), o.named...),
		metric{Name: "failed_ratio", Layer: "e2e", Unit: "fraction", Value: ratio(o.failed, o.attempted)},
		metric{Name: "heap_live_mb", Layer: "e2e", Unit: "MB", Value: liveMB})
}

// finish prints the result line and turns the oracle verdict into the
// exit code.
func finish(stdout, stderr io.Writer, name string, out *outcome, defs []metricDef, vals map[string]float64) int {
	res := result{
		Correct: out.oracle == nil, Attempted: max(out.attempted, 1), Failed: out.failed,
		Metrics: resultMetrics(defs, vals),
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "dtpbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if out.invalid != nil {
		fmt.Fprintf(stderr, "dtpbench: %s: run not valid: %v\n", name, out.invalid)
	}
	if out.oracle != nil {
		fmt.Fprintf(stderr, "dtpbench: %s: oracle failed: %v\n", name, out.oracle)
		return 1
	}
	return 0
}

// printDigest prints the simulated counts and their hash.
func printDigest(w io.Writer, name string, seed uint64, cs []count) {
	line, _ := json.Marshal(struct {
		Schema   string  `json:"schema"`
		Workload string  `json:"workload"`
		Seed     uint64  `json:"seed"`
		Digest   string  `json:"digest"`
		Counts   []count `json:"counts"`
	}{"dtpbench/digest/1", name, seed, digest(cs), cs})
	fmt.Fprintln(w, string(line))
}

// heapSampler reads the live Go heap every 2 ms once the workload has
// finished its set-up. The live heap changes at the end of each garbage
// collection.
type heapSampler struct {
	mu     sync.Mutex
	on     bool
	live   []float64
	sample []metrics.Sample
}

func (h *heapSampler) read() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.on {
		metrics.Read(h.sample)
		h.live = append(h.live, float64(h.sample[0].Value.Uint64()))
	}
}

// settle forces a garbage collection at the end of the workload's
// set-up and of its window, so the live heap at those points is counted
// and set-up garbage is not collected inside the window. The first call
// starts the sampling.
func (e env) settle() {
	runtime.GC()
	if e.heap == nil {
		return
	}
	e.heap.mu.Lock()
	e.heap.on = true
	e.heap.mu.Unlock()
	e.heap.read()
}

// measure runs one pass of w and samples its live heap. It returns the
// median of the samples in MB: the peak is set by when single
// collections happen and does not repeat from run to run.
func measure(w func(env) (*outcome, error), e env) (*outcome, float64, error) {
	runtime.GC()
	e.heap = &heapSampler{sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				e.heap.read()
			}
		}
	}()
	e.root = e.tr.begin("bench.pass", -1)
	out, err := w(e)
	e.tr.end(e.root)
	close(stop)
	wg.Wait()
	return out, median(e.heap.live) / (1 << 20), err
}

// allocsNow is the process's cumulative heap allocation count.
func allocsNow() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
