package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around a call into one of the program's packages. Spans of one
// request share Trace; Parent is the span that caused this one (0 for a
// root).
type span struct {
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Trace  string  `json:"trace"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the tracer was created
	End    float64 `json:"end_ms"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, which is how untraced runs call the same
// code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(x time.Time) float64 { return float64(x.Sub(t.t0).Nanoseconds()) / 1e6 }

// open starts a span now and returns its id (0 on a nil tracer).
func (t *tracer) open(name, trace string, parent uint64) uint64 {
	if t == nil {
		return 0
	}
	now := t.at(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: uint64(len(t.spans) + 1), Parent: parent, Trace: trace, Name: name, Start: now, End: now})
	return uint64(len(t.spans))
}

// close ends span id now.
func (t *tracer) close(id uint64) {
	if t == nil || id == 0 {
		return
	}
	now := t.at(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a span whose bounds were observed elsewhere (hook
// callbacks, result arrivals).
func (t *tracer) record(name, trace string, parent uint64, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: uint64(len(t.spans) + 1), Parent: parent, Trace: trace, Name: name, Start: t.at(start), End: t.at(end)})
	return uint64(len(t.spans))
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children's intervals cover (overlapping
// children count once, and a child's time outside its parent is not
// subtracted).
func selfTimes(spans []span) []float64 {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of [lo,hi] covered by the union of the
// intervals of cs.
func covered(lo, hi float64, cs []span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, c := range cs {
		a, b := max(c.Start, lo), min(c.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end float64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// selfByName sums the spans' self times (ms) by span name.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}

// spanNames is every span name repobench records; each gets a
// self_s.<name> layer metric.
var spanNames = []string{
	"run", "build", "probe", "store-open", "fleet-start",
	"sweep", "sim.job", "sim.window",
	"request", "client.submit", "client.stream", "result",
}

// addSpanMetrics writes the self_s.* layer metrics.
func (t *tracer) addSpanMetrics(m map[string]float64) {
	t.mu.Lock()
	self := selfByName(t.spans)
	t.mu.Unlock()
	for _, name := range spanNames {
		m["self_s."+name] = self[name] / 1e3
	}
}

// write stores the spans as NDJSON under dir and returns the file path.
func (t *tracer) write(dir, base string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, base+".ndjson")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return "", fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, f.Close()
}
