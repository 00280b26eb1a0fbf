package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"mssr/internal/api"
	"mssr/internal/emu"
	"mssr/internal/isa"
	"mssr/internal/sim"
	"mssr/internal/workloads"
)

// engineDef names one engine configuration of the paper's comparison.
type engineDef struct {
	name string
	spec sim.Spec // engine and geometry only
}

// detailEngines are the paper's engines: no reuse, DCI (RGID with one
// stream), RGID with four streams, Register Integration, and the two DIR
// variants. The first is the baseline the reuse gains are taken over.
var detailEngines = []engineDef{
	{"none", sim.Spec{Engine: sim.EngineNone}},
	{"rgid-1x64", sim.Spec{Engine: sim.EngineRGID, Streams: 1, Entries: 64}},
	{"rgid-4x64", sim.Spec{Engine: sim.EngineRGID, Streams: 4, Entries: 64}},
	{"ri-64x4", sim.Spec{Engine: sim.EngineRI, Sets: 64, Ways: 4}},
	{"dir-value", sim.Spec{Engine: sim.EngineDIRValue, Sets: 64, Ways: 4}},
	{"dir-name", sim.Spec{Engine: sim.EngineDIRName, Sets: 64, Ways: 4}},
}

// sampledEngines are the engines the sampled sweep compares.
var sampledEngines = []engineDef{detailEngines[0], detailEngines[2], detailEngines[3]}

// Generator streams: one per workload, so adding a draw to one workload
// never changes another's inputs.
const (
	streamDetail = iota + 1
	streamSampled
	streamServe
)

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// permuted returns a seeded permutation of the engines.
func permuted(r *rand.Rand, es []engineDef) []engineDef {
	out := make([]engineDef, len(es))
	for i, j := range r.Perm(len(es)) {
		out[i] = es[j]
	}
	return out
}

// detailSpecs builds the detail-grid sweep over the prebuilt programs:
// programs in the fixed longest-first order (so the makespan of the two
// workers does not depend on the seed), each program's six engines in a
// seeded order. Every spec verifies its architectural end state.
func detailSpecs(seed uint64, progs map[string]*isa.Program) []sim.Spec {
	r := newRand(seed, streamDetail)
	var specs []sim.Spec
	for _, name := range append(append([]string(nil), specPrograms...), gapPrograms...) {
		for _, e := range permuted(r, detailEngines) {
			s := e.spec
			s.Label = name + "/" + e.name
			s.Program = progs[name]
			s.VerifyArch = true
			specs = append(specs, s)
		}
	}
	return specs
}

// sampleGeometry sizes the sampled runs of a program of n dynamic
// instructions the way the uniform-sampling experiment does: 48 periods
// tiled across the program, each a functional skip plus a detailed
// window of n/800 instructions (at least 256).
func sampleGeometry(n uint64) (ff, dw uint64) {
	dw = n / 800
	if dw < 256 {
		dw = 256
	}
	ff = 1
	if per := n / samplePeriods; per > dw {
		ff = per - dw
	}
	return ff, dw
}

const samplePeriods = 48

// Sampling modes of the sampled sweep.
const (
	modeUniform = "uniform" // warmed uniform sampling
	modeKMeans  = "kmeans"  // checkpoint-backed k-means phase selection
)

// program is a built program with its dynamic length.
type program struct {
	name  string
	scale int
	prog  *isa.Program
	n     uint64 // instructions the functional emulator retires
}

// buildAndProbe builds each named program at its scale and runs it once
// on the functional emulator to learn its dynamic length, which sizes
// sample windows and checks every full-detail result's retired count. It
// records one build and one probe span under parent and returns the time
// spent building and probing.
func buildAndProbe(tr *tracer, trace string, parent uint64, want []program) ([]program, [2]time.Duration, error) {
	var took [2]time.Duration
	out := append([]program(nil), want...)
	t := time.Now()
	id := tr.open("build", trace, parent)
	for i := range out {
		p, err := workloads.Build(out[i].name, out[i].scale)
		if err != nil {
			return nil, took, err
		}
		out[i].prog = p
	}
	tr.close(id)
	took[0] = time.Since(t)
	t = time.Now()
	id = tr.open("probe", trace, parent)
	for i := range out {
		r, err := emu.RunProgram(out[i].prog, 1<<40)
		if err != nil {
			return nil, took, fmt.Errorf("probe %s: %w", out[i].name, err)
		}
		out[i].n = r.Retired
	}
	tr.close(id)
	took[1] = time.Since(t)
	return out, took, nil
}

// windowMark is the interval-telemetry period of sampled specs: longer
// than any detailed window, so the sampler's one flush at each window's
// end is the only interval it records. The flush carries the window
// number, which is how a traced sweep sees a detailed window end.
const windowMark = 1 << 40

// sampledSpecs builds the two passes of the sampled sweep: warmed
// uniform sampling, then cold k-means phase selection over the same
// windows. Programs keep their fixed order; engines are seeded.
func sampledSpecs(seed uint64, progs []program) (uniform, kmeans []sim.Spec) {
	r := newRand(seed, streamSampled)
	for _, p := range progs {
		ff, dw := sampleGeometry(p.n)
		for _, e := range permuted(r, sampledEngines) {
			s := e.spec
			s.Program = p.prog
			s.FastForward, s.DetailedWindow, s.SamplePeriods = ff, dw, samplePeriods
			s.SampleInterval, s.SampleWindow = windowMark, 1
			u, k := s, s
			u.Label, u.Warm = p.name+"/"+e.name+"/"+modeUniform, true
			k.Label, k.PhaseSelect = p.name+"/"+e.name+"/"+modeKMeans, sim.PhaseKMeans
			uniform = append(uniform, u)
			kmeans = append(kmeans, k)
		}
	}
	return uniform, kmeans
}

// serveClasses are the programs cold serve-fleet runs use: short GAP and
// micro programs, an odd count so the median request sits inside one
// class rather than on the edge between two.
var serveClasses = []string{"bfs", "cc", "pr", "bc", "sssp", "nested-mispred", "linear-mispred"}

// serveConfigs is the engine/geometry space cold serve-fleet specs draw
// from: no reuse plus 16 geometries of each reuse engine.
var serveConfigs = func() []api.Spec {
	out := []api.Spec{{Engine: "none"}}
	for _, n := range []int{1, 2, 4, 8} {
		for _, p := range []int{16, 32, 64, 128} {
			out = append(out, api.Spec{Engine: "rgid", Streams: n, Entries: p})
		}
	}
	for _, eng := range []string{"ri", "dir-value", "dir-name"} {
		for _, s := range []int{16, 32, 64, 128} {
			for _, w := range []int{1, 2, 4, 8} {
				out = append(out, api.Spec{Engine: eng, Sets: s, Ways: w})
			}
		}
	}
	return out
}()

// maxServeBlocks bounds the blocks (warm-up included) so every block
// gets a cold config of its own from serveConfigs.
var maxServeBlocks = len(serveConfigs)

// Kinds of malformed serve-fleet request.
const (
	badWorkload = "unknown-workload"
	badGeometry = "negative-geometry"
	badSets     = "non-pow2-sets"
)

// request is one serve-fleet submission.
type request struct {
	block     int
	class     string
	specs     []api.Spec
	malformed string // "" for a sweep request
}

// serveInputs is the seeded serve-fleet traffic.
type serveInputs struct {
	preload []api.Spec // results written to the stores before start-up
	warmup  []request  // block 0, untimed
	timed   []request  // blocks 1..n, with the malformed requests
}

func withConfig(class string, scale int, c api.Spec) api.Spec {
	c.Workload, c.Scale, c.VerifyArch = class, scale, true
	return c
}

// serveRequests generates the serve-fleet traffic: blocks 0..n, each
// with one sweep request per class in a seeded order. A sweep request
// holds five specs of its class:
//
//   - a cold scale-1 spec with a config no earlier block used,
//   - an identical copy of it, which the daemon joins in flight (dedup),
//   - an earlier block's cold spec, now in the memory cache,
//   - the previous block's store spec, promoted to the memory cache,
//   - a scale-0 spec the preload pass wrote to the store.
//
// Every third timed block carries one malformed single-spec request at a
// seeded position, its kind cycling through badWorkload, badGeometry and
// badSets. Block 0 (warm-up) has no cache slots.
func serveRequests(seed uint64, blocks int) serveInputs {
	if blocks > maxServeBlocks-1 {
		blocks = maxServeBlocks - 1
	}
	r := newRand(seed, streamServe)
	cold := make(map[string][]int)   // class -> config index per block
	stored := make(map[string][]int) // class -> scale-0 config index per block
	for _, c := range serveClasses {
		cold[c] = r.Perm(len(serveConfigs))[:blocks+1]
		stored[c] = r.Perm(len(serveConfigs))[:blocks+1]
	}
	var in serveInputs
	for b := 0; b <= blocks; b++ {
		for _, c := range serveClasses {
			in.preload = append(in.preload, withConfig(c, 0, serveConfigs[stored[c][b]]))
		}
	}
	for b := 0; b <= blocks; b++ {
		var reqs []request
		for _, ci := range r.Perm(len(serveClasses)) {
			c := serveClasses[ci]
			run := withConfig(c, 1, serveConfigs[cold[c][b]])
			specs := []api.Spec{run, run, withConfig(c, 0, serveConfigs[stored[c][b]])}
			if b > 0 {
				specs = append(specs,
					withConfig(c, 1, serveConfigs[cold[c][r.IntN(b)]]),
					withConfig(c, 0, serveConfigs[stored[c][b-1]]))
			}
			r.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
			reqs = append(reqs, request{block: b, class: c, specs: specs})
		}
		if b == 0 {
			in.warmup = reqs
			continue
		}
		if b%3 == 0 {
			kind := []string{badWorkload, badGeometry, badSets}[(b/3-1)%3]
			bad := malformedRequest(r, b, kind)
			at := r.IntN(len(reqs) + 1)
			reqs = append(reqs[:at], append([]request{bad}, reqs[at:]...)...)
		}
		in.timed = append(in.timed, reqs...)
	}
	return in
}

// malformedRequest builds one malformed single-spec request of the given
// kind.
func malformedRequest(r *rand.Rand, block int, kind string) request {
	c := serveClasses[r.IntN(len(serveClasses))]
	s := withConfig(c, 0, api.Spec{})
	switch kind {
	case badWorkload:
		s.Workload = fmt.Sprintf("%s-%d", c, 100+r.IntN(900))
	case badGeometry:
		s.Engine, s.Sets, s.Ways = "ri", -(1 << r.IntN(7)), 4
	case badSets:
		// Validate admits a set count that is not a power of two, and
		// the engine then panics while the run is set up.
		s.Engine = []string{"ri", "dir-value", "dir-name"}[r.IntN(3)]
		s.Sets, s.Ways = []int{3, 12, 24, 48, 96}[r.IntN(5)], 1<<r.IntN(3)
	}
	return request{block: block, class: c, specs: []api.Spec{s}, malformed: kind}
}
