package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced result line. Every workload
// reports each of them; ops_per_s counts that workload's unit of work
// (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"heap_live_mb", "MB"},
}

// layers are the modules a span or counter can be attributed to; phy
// runs inside core's port handlers and has no outside call boundary.
var layers = []string{
	"bench", "sim", "xo", "link", "core", "topo", "audit", "daemon", "discipline",
	"timesvc", "telemetry", "chaos", "campaign", "par", "fabric", "eth", "ptp",
}

// perLayer are the metrics of the traced result line. A workload that
// does not exercise a layer reports its metrics as 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns"},
		{"sim.allocs_per_event", "allocs"},
		{"sim.pending_high_water", "count"},
		{"sim.heap_ref_ratio", "ratio"},
		{"topo.build_s", "s"},
		{"core.new_s", "s"},
		{"core.sync_s", "s"},
		{"core.sync_sim_us", "us"},
		{"core.beacons_sent", "count"},
		{"core.beacons_received", "count"},
		{"core.beacons_ignored", "count"},
		{"core.beacon_useful_ratio", "ratio"},
		{"core.faulty_ports", "count"},
		{"core.counter_jumps", "count"},
		{"core.max_offset_check_ns", "ns"},
		{"core.counter_rejections", "count"},
		{"core.port_quarantines", "count"},
		{"core.time_to_sync_us_max", "us"},
		{"xo.counter_read_ns", "ns"},
		{"link.blocks_sent", "count"},
		{"link.blocks_corrupted", "count"},
		{"audit.checks", "count"},
		{"audit.violations", "count"},
		{"audit.excused", "count"},
		{"daemon.calibrations", "count"},
		{"discipline.err_ticks", "ticks"},
		{"discipline.dropped", "count"},
		{"timesvc.eps_audit_ps", "ps"},
		{"timesvc.eps_daemon_ps", "ps"},
		{"timesvc.eps_broadcast_ps", "ps"},
		{"timesvc.eps_residual_ps", "ps"},
		{"timesvc.calibrate_s", "s"},
		{"timesvc.publish_ns", "ns"},
		{"timesvc.read_errors", "count"},
		{"timesvc.uncovered", "count"},
		{"timesvc.width_p50_ps", "ps"},
		{"timesvc.width_p99_ps", "ps"},
		{"timesvc.reads", "count"},
		{"timesvc.failed_closed", "count"},
		{"telemetry.observe_ns", "ns"},
		{"chaos.runs", "count"},
		{"chaos.verified", "count"},
		{"campaign.run_wall_p50_s", "s"},
		{"campaign.run_wall_max_s", "s"},
		{"par.efficiency", "ratio"},
		{"fabric.delivered", "count"},
		{"fabric.drops", "count"},
		{"fabric.queue_depth_max_bytes", "bytes"},
		{"eth.frames_sent", "count"},
		{"ptp.syncs", "count"},
		{"ptp.delay_resps", "count"},
		{"ptp.steps", "count"},
		{"trace.overhead", "fraction"},
		{"trace.spans", "count"},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_s", "s"}, metricDef{l + ".share", "fraction"})
	}
	return defs
}()

// metric is one measured value. Layer "e2e" marks an end-to-end metric.
type metric struct {
	Name  string
	Layer string
	Unit  string
	Value float64
}

// count is one simulated count behind the run's digest. Counts are
// deterministic for a seed, so a change to simulated behaviour shows
// in the digest even when every timing holds.
type count struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

func countU(name string, v uint64) count { return count{name, fmt.Sprint(v)} }

func countF(name string, v float64) count {
	return count{name, fmt.Sprint(math.Float64bits(v))}
}

// digest hashes the counts in order.
func digest(cs []count) string {
	h := sha256.New()
	for _, c := range cs {
		fmt.Fprintf(h, "%s=%s\n", c.Name, c.Value)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hostInfo describes where a record was measured.
type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func thisHost() hostInfo {
	return hostInfo{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
}

// record is the one schema every measurement is printed in.
type record struct {
	Schema   string   `json:"schema"`
	Name     string   `json:"name"`
	Layer    string   `json:"layer"`
	Unit     string   `json:"unit"`
	Value    float64  `json:"value"`
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Pass     string   `json:"pass"`
	Host     hostInfo `json:"host"`
	Commit   string   `json:"commit"`
	Valid    bool     `json:"valid"`
}

// printRecords writes one JSON record per metric.
func printRecords(w io.Writer, ms []metric, workload string, seed uint64, pass, commit string, valid bool) {
	enc := json.NewEncoder(w)
	host := thisHost()
	for _, m := range ms {
		_ = enc.Encode(record{
			Schema: "dtpbench/1", Name: m.Name, Layer: m.Layer, Unit: m.Unit, Value: finite(m.Value),
			Workload: workload, Seed: seed, Pass: pass, Host: host, Commit: commit, Valid: valid,
		})
	}
}

// finite maps NaN and ±Inf to 0 so every value JSON-encodes.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultMetrics picks defs out of vals; a name the workload did not
// produce reads 0.
func resultMetrics(defs []metricDef, vals map[string]float64) map[string]resultValue {
	out := make(map[string]resultValue, len(defs))
	for _, d := range defs {
		out[d.name] = resultValue{Value: finite(vals[d.name]), Unit: d.unit}
	}
	return out
}

// unitOf looks a metric's unit up in the tables.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("dtpbench: undeclared metric " + name)
}

// quantile returns the q-quantile of xs by nearest rank (0 when empty).
// xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[int(math.Round(q*float64(len(xs)-1)))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
