package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer, timed from outside.
type span struct {
	Name   string  `json:"name"` // "layer.Function", e.g. "sim.Scheduler.RunFor"
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"` // index of the enclosing span; -1 for a root
	Run    string  `json:"run"`
}

// tracer keeps spans in memory until the pass ends. A nil *tracer
// records nothing, so untraced passes pay a nil check per call site.
type tracer struct {
	t0    time.Time
	run   string
	mu    sync.Mutex // readers and the writer of serve-reads record concurrently
	spans []span
}

func newTracer(run string) *tracer { return &tracer{t0: time.Now(), run: run} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Run: t.run})
	return len(t.spans) - 1
}

// end closes span id; a negative id is a span that was not opened.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// call wraps fn in a span.
func (t *tracer) call(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// layerOf is the span name up to its first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time in seconds: every span's
// duration minus the part of it that its children cover. Children may
// overlap (concurrent readers), so their intervals are merged first.
func selfTimes(spans []span) map[string]float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := map[string]float64{}
	for i, s := range spans {
		self[layerOf(s.Name)] += (s.End - s.Start) - covered(spans, children[i], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the child intervals, clipped
// to [lo, hi].
func covered(spans []span, kids []int, lo, hi float64) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, lo), min(spans[k].End, hi)
		if b > a {
			iv = append(iv, [2]float64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB float64
	for i, v := range iv {
		switch {
		case i == 0:
			curA, curB = v[0], v[1]
		case v[0] > curB:
			total += curB - curA
			curA, curB = v[0], v[1]
		case v[1] > curB:
			curB = v[1]
		}
	}
	if len(iv) > 0 {
		total += curB - curA
	}
	return total
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
