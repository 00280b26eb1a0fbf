package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"mssr/internal/isa"
	"mssr/internal/sim"
	"mssr/internal/stats"
	"mssr/internal/workloads"
)

func buildDetailPrograms() (map[string]*isa.Program, error) {
	progs := make(map[string]*isa.Program)
	for _, name := range append(append([]string(nil), specPrograms...), gapPrograms...) {
		p, err := workloads.Build(name, 1)
		if err != nil {
			return nil, err
		}
		progs[name] = p
	}
	return progs, nil
}

// runGridPass runs the paper's full-detail figure sweep once: six
// engines over the 17 SPEC- and GAP-like programs at scale 1, batched,
// with VerifyArch, on a Runner with a fresh core pool. It checks every
// result against its reference fingerprint and writes the internal/core
// and modelled-component layer metrics. The traced sampled-sweep run ends
// with it; it is not timed end to end, because host speed moves a
// full-detail sweep by more than any bound the benchmark may use (see
// README.md). It records no spans, so the sampled sweep's sim.job spans
// stay its own.
func runGridPass(ctx context.Context, cfg config, o *outcome) error {
	progs, err := buildDetailPrograms()
	if err != nil {
		return err
	}
	specs := detailSpecs(cfg.seed, progs)
	res, err := (&sim.Runner{Jobs: cfg.jobs, Batching: true}).Run(ctx, specs)
	if res == nil {
		return err // validation failed: nothing ran
	}
	o.attempted += len(specs)
	for i := range res {
		r := &res[i]
		if r.Err != nil {
			o.fail("%s: %v", r.Key, firstLine(r.Err.Error()))
			continue
		}
		if want, ok := cfg.ref.Detail[r.Key]; !ok || fingerprintOf(r) != want {
			o.fail("%s: stats %+v, reference %+v", r.Key, fingerprintOf(r), want)
		}
	}
	addCoreMetrics(o.m, res)
	return nil
}

// addCoreMetrics writes the internal/core and modelled-component layer
// metrics of one full-detail sweep.
func addCoreMetrics(m map[string]float64, res []sim.Result) {
	var tot stats.Stats
	var wall time.Duration
	progRetired := make(map[string]uint64)
	progWall := make(map[string]time.Duration)
	ipc := make(map[string]float64) // program/engine -> IPC
	for i := range res {
		r := &res[i]
		if r.Stats == nil {
			continue
		}
		tot.Add(r.Stats)
		wall += r.Wall
		prog, _, _ := strings.Cut(r.Key, "/")
		progRetired[prog] += r.Stats.Retired
		progWall[prog] += r.Wall
		ipc[r.Key] = float64(r.Stats.Retired) / float64(r.Stats.Cycles)
	}
	m["core.detail_mips"] = float64(tot.Retired) / wall.Seconds() / 1e6
	m["core.host_ns_per_cycle"] = float64(wall.Nanoseconds()) / float64(tot.Cycles)
	m["core.sim_cycles"] = float64(tot.Cycles)
	for _, p := range specPrograms {
		if progWall[p] > 0 {
			m["core.mips."+p] = float64(progRetired[p]) / progWall[p].Seconds() / 1e6
		}
	}
	m["frontend.useful_frac"] = ratio(tot.Retired, tot.Fetched)
	m["bpred.mpki"] = 1000 * ratio(tot.BranchMispredicts+tot.JumpMispredicts, tot.Retired)
	m["reuse.hit_ratio"] = ratio(tot.ReuseHits, tot.ReuseTests)
	m["mem.l1d_miss_ratio"] = ratio(tot.L1DMisses, tot.L1DHits+tot.L1DMisses)
	for _, e := range detailEngines[1:] {
		// Geometric mean over the programs of the engine's IPC over no
		// reuse, as a gain in percent.
		var logSum float64
		var k int
		for _, p := range append(append([]string(nil), specPrograms...), gapPrograms...) {
			base, with := ipc[p+"/none"], ipc[p+"/"+e.name]
			if base > 0 && with > 0 {
				logSum += math.Log(with / base)
				k++
			}
		}
		if k > 0 {
			m["reuse.gain_pct."+e.name] = 100 * (math.Exp(logSum/float64(k)) - 1)
		}
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// pairedOverheadPct is the tracing overhead: over pairs of adjacent
// untraced and traced rounds (or blocks) of one run, the median of how
// much lower the traced throughput is than the untraced one, in percent.
// Pairing neighbours keeps a host drift slower than a pair out of it.
func pairedOverheadPct(untraced, traced []float64) float64 {
	var d []float64
	for i := range min(len(untraced), len(traced)) {
		if untraced[i] > 0 {
			d = append(d, 100*(untraced[i]-traced[i])/untraced[i])
		}
	}
	return median(d)
}

func tailNote(t tail) string {
	return fmt.Sprintf("latency_tail=p%g(n=%d)", t.Pct, t.N)
}

// firstLine trims an error message (panics carry a stack) to its first
// line.
func firstLine(msg string) string {
	s, _, _ := strings.Cut(msg, "\n")
	return s
}
