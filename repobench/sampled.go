package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"mssr/internal/ckpt"
	"mssr/internal/sim"
)

// sampledScale is the workload scale of the sampled sweep: large enough
// that sampling, not the emulator's length probe, dominates its time.
const sampledScale = 3

// sampledRoundSeconds is the nominal length of one sampled-sweep round
// (both modes over every program and engine) on the reference host.
const sampledRoundSeconds = 6

// overheadPairs is how many adjacent traced/untraced round pairs a
// traced run makes to measure the trace overhead.
const overheadPairs = 3

func newCkptStore() *ckpt.Store { return ckpt.NewMemory(0) }

// sampledPrograms are the programs of the sampled sweep, to be built.
func sampledPrograms() []program {
	out := make([]program, len(specPrograms))
	for i, name := range specPrograms {
		out[i] = program{name: name, scale: sampledScale}
	}
	return out
}

// runSampledSweep runs none, rgid-4x64 and ri-64x4 over the SPEC-like
// programs in two sampling modes, warmed uniform and checkpoint-backed
// k-means, each round on a fresh checkpoint store. A traced run ends with
// one full-detail grid pass for the core layer metrics.
func runSampledSweep(ctx context.Context, cfg config) (*outcome, error) {
	o := &outcome{m: make(map[string]float64)}
	if cfg.trace {
		o.tr = newTracer()
	}
	root := o.tr.open("run", "sampled-sweep", 0)
	defer o.tr.close(root)

	var progs []program
	var builds, probes []float64
	var probed uint64
	setup, err := timeSetup(5, 0, nil, func() error {
		var took [2]time.Duration
		var err error
		progs, took, err = buildAndProbe(o.tr, "sampled-sweep", root, sampledPrograms())
		builds, probes = append(builds, took[0].Seconds()), append(probes, took[1].Seconds())
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, p := range progs {
		probed += p.n
	}
	o.m["setup_s"], o.m["workloads.build_s"] = setup, median(builds)
	o.m["emu.probe_mips"] = float64(probed) / median(probes) / 1e6
	uniform, kmeans := sampledSpecs(cfg.seed, progs)

	// An untraced run times every round. A traced run makes round 0
	// untraced, then pairs of a traced and an untraced round, which the
	// trace overhead compares.
	n := rounds(cfg.seconds, sampledRoundSeconds, 3)
	if cfg.trace {
		n = 1 + 2*overheadPairs
	}
	var (
		mips, roundCPU, pairedMIPS, tracedMIPS []float64
		jobMS, windows                         []float64
		latency                                []tail
		busy, tracedWall                       time.Duration
		gr                                     goRuntime
		ipc                                    = make(map[string]float64) // label -> sampled IPC, last round
	)
	for round := range n {
		runtime.GC() // drop the previous round's checkpoint store
		var tr *tracer
		if cfg.trace && round%2 == 1 {
			tr = o.tr
			gr = readGoRuntime()
		}
		cpu0 := cpuSeconds()
		store := newCkptStore()
		runner := &sim.Runner{Jobs: cfg.jobs, Checkpoints: store}
		var res []sim.Result
		var wall time.Duration
		var lat []float64
		for _, specs := range [][]sim.Spec{uniform, kmeans} {
			sr, err := sweep(ctx, runner, specs, tr, root, fmt.Sprintf("round-%d", round))
			if err != nil {
				return nil, err
			}
			res = append(res, sr.res...)
			wall += sr.wall
			if tr == nil {
				lat = append(lat, sr.latency...)
			} else {
				jobMS = append(jobMS, sr.jobMS...)
				windows = append(windows, sr.windowMS...)
				busy += sr.busy()
			}
		}
		o.attempted += len(res)
		var delivered uint64
		clear(ipc)
		for i := range res {
			r := &res[i]
			if r.Err != nil {
				o.fail("%s: %v", r.Key, firstLine(r.Err.Error()))
				continue
			}
			want, ok := cfg.ref.Sampled[r.Key]
			if got := fingerprintOf(r); !ok || got != want {
				o.fail("%s: sampled result %+v, reference %+v", r.Key, got, want)
				continue
			}
			delivered += r.TotalRetired
			ipc[r.Key] = r.ExtrapolatedIPC
		}
		if c := store.Counters(); c.Evictions > 0 {
			o.wrong("checkpoint store evicted %d entries; checkpoint counts are no longer exact", c.Evictions)
		}
		rate := float64(delivered) / wall.Seconds() / 1e6
		if tr == nil {
			mips = append(mips, rate)
			roundCPU = append(roundCPU, cpuSeconds()-cpu0)
			latency = append(latency, summarize(lat))
			if cfg.trace && round > 0 {
				pairedMIPS = append(pairedMIPS, rate)
			}
			continue
		}
		addGoDeltas(o.m, gr)
		tracedMIPS = append(tracedMIPS, rate)
		tracedWall += wall
		addSampledLayers(o.m, res, store)
	}
	lat := medianOfRounds(latency)
	o.m["effective_mips"] = median(mips)
	o.m["cpu_s"] = float64(n) * median(roundCPU)
	o.m["peak_rss_mb"] = peakRSSMB()
	o.m["latency_p50_ms"], o.m["latency_tail_ms"] = lat.P50, lat.Tail
	o.notes = append(o.notes, fmt.Sprintf("rounds=%d", n), tailNote(lat), "round_mips="+joinFloats(mips))

	// Accuracy against full detail is exact, so every run reports it.
	ipcErr, gainErr, ipcAt, gainAt := sampledAccuracy(ipc, cfg.ref.SampledFullIPC)
	o.notes = append(o.notes, fmt.Sprintf("ipc_err_pct=%.4f(%s) gain_err_pp=%.4f(%s)", ipcErr, ipcAt, gainErr, gainAt))
	if !cfg.trace {
		return o, nil
	}
	o.m["ipc_err_pct"], o.m["gain_err_pp"] = ipcErr, gainErr
	job := summarize(jobMS)
	o.m["sim.job_p50_ms"], o.m["sim.job_tail_ms"] = job.P50, job.Tail
	o.m["sim.window_p50_ms"] = median(windows)
	o.m["sim.busy_frac"] = busy.Seconds() / (tracedWall.Seconds() * float64(cfg.jobs))
	o.m["latency.tail_pctile"], o.m["latency.samples"] = lat.Pct, float64(lat.N)
	o.m["trace.overhead_pct"] = pairedOverheadPct(pairedMIPS, tracedMIPS)
	o.notes = append(o.notes, "traced_mips="+joinFloats(tracedMIPS))
	if err := runGridPass(ctx, cfg, o); err != nil {
		return nil, err
	}
	return o, nil
}

// addSampledLayers writes the per-round sim and ckpt layer counts of one
// traced round (they repeat exactly from round to round).
func addSampledLayers(m map[string]float64, res []sim.Result, store *ckpt.Store) {
	var windows, ff, detail uint64
	for i := range res {
		r := &res[i]
		windows += uint64(r.Windows)
		ff += r.FFExecuted
		if r.Stats != nil {
			detail += r.Stats.Retired
		}
	}
	c := store.Counters()
	m["sim.windows"] = float64(windows)
	m["sim.ff_executed"] = float64(ff)
	m["sim.detail_retired"] = float64(detail)
	m["ckpt.hits"], m["ckpt.misses"] = float64(c.Hits), float64(c.Misses)
	m["ckpt.hit_ratio"] = ratio(c.Hits, c.Hits+c.Misses)
	m["ckpt.written_mb"] = float64(c.BytesWritten) / (1 << 20)
	m["ckpt.resident_mb"] = float64(store.Size()) / (1 << 20)
}

// sampledAccuracy compares sampled IPCs (program/engine/mode) with
// full-detail ones (program/engine): the worst relative IPC error in
// percent over programs × engines × modes, and the worst error of an
// engine's IPC gain over no reuse, in percentage points, each with the
// label it was found at.
func sampledAccuracy(sampled, full map[string]float64) (ipcErr, gainErr float64, ipcAt, gainAt string) {
	for key, ipc := range sampled {
		prog, rest, _ := strings.Cut(key, "/")
		eng, mode, _ := strings.Cut(rest, "/")
		ref := full[prog+"/"+eng]
		if ref <= 0 {
			continue
		}
		if e := 100 * math.Abs(ipc-ref) / ref; e > ipcErr || (e == ipcErr && key < ipcAt) {
			ipcErr, ipcAt = e, key
		}
		if eng == "none" {
			continue
		}
		base, refBase := sampled[prog+"/none/"+mode], full[prog+"/none"]
		if base > 0 && refBase > 0 {
			e := math.Abs(100*(ipc/base-1) - 100*(ref/refBase-1))
			if e > gainErr || (e == gainErr && key < gainAt) {
				gainErr, gainAt = e, key
			}
		}
	}
	return ipcErr, gainErr, ipcAt, gainAt
}
