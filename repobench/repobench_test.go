package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"

	"mssr/internal/api"
	"mssr/internal/isa"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 100, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{100, 90, true},
		{102, 90, true},
		{199, 90, true},
		{200, 95, true},
		{204, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n-1-rankIndex(got, c.n) < 10 {
			t.Errorf("n=%d: p%g leaves fewer than 10 samples beyond it", c.n, got)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if s := summarize(xs); s.P50 != 50.5 || s.Tail != 90 || s.Pct != 90 || s.N != 100 {
		t.Errorf("summarize(1..100) = %+v", s)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "a", Start: 2, End: 5},  // overlaps its sibling
		{ID: 4, Parent: 1, Name: "b", Start: 8, End: 12}, // runs past its parent
		{ID: 5, Parent: 3, Name: "c", Start: 2, End: 3},
	}
	want := []float64{10 - 4 - 2, 2, 3 - 1, 4, 1}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if a := selfByName(spans)["a"]; a != 4 {
		t.Errorf("self time of a = %g, want 4", a)
	}
	var nilTracer *tracer
	if id := nilTracer.open("x", "t", 0); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	nilTracer.close(1) // must not panic
}

func TestPromDelta(t *testing.T) {
	before := parseProm(`# HELP msrd_cache_hits_total Cache hits.
# TYPE msrd_cache_hits_total counter
msrd_cache_hits_total 4
msrd_sim_wall_seconds_total{worker="a b"} 1.5
msrd_sim_wall_seconds_total{worker="c"} 2
msrd_build_info{version="x y",go="go1.24"} 1
`)
	after := parseProm(`msrd_cache_hits_total 10
msrd_sim_wall_seconds_total{worker="a b"} 2.5
msrd_sim_wall_seconds_total{worker="c"} 2.25
msrd_store_hits_total 3 1700000000000
not a sample line
`)
	d := promDelta(before, after)
	if got := d.sum("msrd_cache_hits_total"); got != 6 {
		t.Errorf("cache hits delta = %g, want 6", got)
	}
	if got := d.sum("msrd_sim_wall_seconds_total"); got != 1.25 {
		t.Errorf("sim wall delta = %g, want 1.25", got)
	}
	if got := d.sum("msrd_store_hits_total"); got != 3 {
		t.Errorf("new series delta = %g, want 3", got)
	}
	if got := before[`msrd_build_info{version="x y",go="go1.24"}`]; got != 1 {
		t.Errorf("labelled series with a space = %g, want 1", got)
	}
	if got := skew([]float64{1, 2}, []float64{4, 3}); got != 3 {
		t.Errorf("skew = %g, want 3", got)
	}
}

func TestGeneratorsSeeded(t *testing.T) {
	progs := make(map[string]*isa.Program)
	var sp []program
	for _, n := range append(append([]string(nil), specPrograms...), gapPrograms...) {
		progs[n] = &isa.Program{Name: n}
	}
	for _, n := range specPrograms {
		sp = append(sp, program{name: n, scale: sampledScale, prog: progs[n], n: 1 << 20})
	}
	detail := func(seed uint64) []string {
		var out []string
		for _, s := range detailSpecs(seed, progs) {
			out = append(out, s.Label)
		}
		return out
	}
	sampled := func(seed uint64) []string {
		var out []string
		u, k := sampledSpecs(seed, sp)
		for _, s := range append(u, k...) {
			out = append(out, s.Label)
		}
		return out
	}
	serve := func(seed uint64) serveInputs { return serveRequests(seed, 27) }

	if a, b := detail(1), detail(1); !reflect.DeepEqual(a, b) {
		t.Error("detailSpecs differs for one seed")
	}
	if a, b := detail(1), detail(2); reflect.DeepEqual(a, b) {
		t.Error("detailSpecs identical for two seeds")
	}
	if n := len(detail(1)); n != len(detailEngines)*17 {
		t.Errorf("detail grid has %d specs", n)
	}
	if a, b := sampled(1), sampled(1); !reflect.DeepEqual(a, b) {
		t.Error("sampledSpecs differs for one seed")
	}
	if a, b := sampled(1), sampled(2); reflect.DeepEqual(a, b) {
		t.Error("sampledSpecs identical for two seeds")
	}
	if a, b := serve(1), serve(1); !reflect.DeepEqual(a, b) {
		t.Error("serveRequests differs for one seed")
	}
	if a, b := serve(1), serve(2); reflect.DeepEqual(a, b) {
		t.Error("serveRequests identical for two seeds")
	}

	// Every block holds each class once; cold configs never repeat; one
	// malformed request every third block.
	in := serve(heldOutSeed)
	cold := make(map[api.Spec]bool)
	perBlock := make(map[int]int)
	bad := 0
	for _, r := range append(append([]request(nil), in.warmup...), in.timed...) {
		if r.malformed != "" {
			bad++
			if len(r.specs) != 1 {
				t.Errorf("malformed request with %d specs", len(r.specs))
			}
			continue
		}
		perBlock[r.block]++
		want := 5
		if r.block == 0 {
			want = 3
		}
		if len(r.specs) != want {
			t.Errorf("block %d request has %d specs, want %d", r.block, len(r.specs), want)
		}
		seen := make(map[api.Spec]int)
		for _, s := range r.specs {
			seen[s]++
		}
		for s, n := range seen {
			if n == 2 {
				if cold[s] {
					t.Errorf("cold spec %+v repeats across blocks", s)
				}
				cold[s] = true
			}
		}
	}
	for b := 0; b <= 27; b++ {
		if perBlock[b] != len(serveClasses) {
			t.Errorf("block %d has %d sweep requests", b, perBlock[b])
		}
	}
	if bad != 27/3 {
		t.Errorf("%d malformed requests, want %d", bad, 27/3)
	}
	if len(in.preload) != 28*len(serveClasses) {
		t.Errorf("%d preload specs", len(in.preload))
	}
}

// TestMetricNames checks the declared metrics against the naming rules
// and against BENCHMARK.json.
func TestMetricNames(t *testing.T) {
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	type entry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var wantE2E, wantLayer []entry
	for _, d := range metricDefs {
		if !metricName.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q invalid or repeated", d.name)
		}
		seen[d.name] = true
		if !unit.MatchString(d.unit) || (d.better != "higher" && d.better != "lower") {
			t.Errorf("metric %s: unit %q, better %q", d.name, d.unit, d.better)
		}
		if d.e2e {
			wantE2E = append(wantE2E, entry{d.name, d.unit, d.better})
		} else {
			wantLayer = append(wantLayer, entry{d.name, d.unit, d.better})
		}
	}
	if len(wantLayer) > 128 || len(wantE2E) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(wantE2E), len(wantLayer))
	}
	for w := range workloadsByName {
		if !metricName.MatchString(w) {
			t.Errorf("workload name %q invalid", w)
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
		Workload []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bench.EndToEnd, wantE2E) {
		t.Errorf("BENCHMARK.json end_to_end differs from metricDefs")
	}
	if !reflect.DeepEqual(bench.PerLayer, wantLayer) {
		b, _ := json.Marshal(wantLayer)
		t.Errorf("BENCHMARK.json per_layer differs from metricDefs; want\n%s", b)
	}
	for _, w := range bench.Workload {
		if workloadsByName[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if len(bench.Workload) != len(workloadsByName) {
		t.Errorf("BENCHMARK.json has %d workloads, repobench %d", len(bench.Workload), len(workloadsByName))
	}
}

func TestSampledAccuracy(t *testing.T) {
	sampled := map[string]float64{"p/none/uniform": 1.1, "p/e/uniform": 1.32, "q/none/kmeans": 2}
	full := map[string]float64{"p/none": 1, "p/e": 1.1, "q/none": 2}
	ipcErr, gainErr, ipcAt, gainAt := sampledAccuracy(sampled, full)
	if math.Abs(ipcErr-20) > 1e-9 || ipcAt != "p/e/uniform" {
		t.Errorf("ipc error = %g at %s, want 20 at p/e/uniform", ipcErr, ipcAt)
	}
	// Sampled gain 20%, full-detail gain 10%.
	if math.Abs(gainErr-10) > 1e-9 || gainAt != "p/e/uniform" {
		t.Errorf("gain error = %g pp at %s, want 10 at p/e/uniform", gainErr, gainAt)
	}
}

func TestPairedOverhead(t *testing.T) {
	// The host slows down by half between pairs; each traced round is 10%
	// slower than the untraced round it is paired with.
	untraced := []float64{10, 5, 10}
	traced := []float64{9, 4.5, 9, 1} // an unpaired traced round is ignored
	if got := pairedOverheadPct(untraced, traced); math.Abs(got-10) > 1e-9 {
		t.Errorf("overhead = %g%%, want 10", got)
	}
	if got := pairedOverheadPct(nil, traced); got != 0 {
		t.Errorf("overhead with no pairs = %g, want 0", got)
	}
}
