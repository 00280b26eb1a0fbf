package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"

	"mssr/internal/sim"
	"mssr/internal/stats"
)

// reference holds the outputs every run is checked against. It is
// recorded by `repobench --record` and embedded in the binary.
type reference struct {
	// Detail maps a detail-grid label (program/engine) to its
	// full-detail simulated statistics.
	Detail map[string]fingerprint `json:"detail"`
	// SampledScale is the workload scale of the sampled sweep.
	SampledScale int `json:"sampled_scale"`
	// SampledFullIPC maps program/engine to the full-detail IPC at
	// SampledScale, the accuracy reference of the sampled sweep.
	SampledFullIPC map[string]float64 `json:"sampled_full_ipc"`
	// Sampled maps program/engine/mode to the sampled result.
	Sampled map[string]fingerprint `json:"sampled"`
}

// fingerprint identifies one simulated result.
type fingerprint struct {
	Stats   string  `json:"stats"` // FNV-1a of the JSON-encoded stats.Stats
	Cycles  uint64  `json:"cycles"`
	Retired uint64  `json:"retired"`
	IPC     float64 `json:"ipc,omitempty"` // sampled runs: ExtrapolatedIPC
	Total   uint64  `json:"total_retired,omitempty"`
}

func statsHash(s *stats.Stats) string {
	b, err := json.Marshal(s)
	if err != nil {
		return "unencodable"
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

func fingerprintOf(r *sim.Result) fingerprint {
	if r.Stats == nil {
		return fingerprint{}
	}
	return fingerprint{
		Stats:   statsHash(r.Stats),
		Cycles:  r.Stats.Cycles,
		Retired: r.Stats.Retired,
		IPC:     r.ExtrapolatedIPC,
		Total:   r.TotalRetired,
	}
}

//go:embed reference.json
var referenceJSON []byte

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &ref, nil
}

// recordReference runs the detail grid once, the sampled sweep once and
// its full-detail reference runs, and writes their outputs to path.
// Results do not depend on the seed (it only orders the sweep), so one
// recording serves every seed.
func recordReference(ctx context.Context, path string) error {
	jobs := runtime.NumCPU()
	ref := reference{
		Detail:         make(map[string]fingerprint),
		SampledScale:   sampledScale,
		SampledFullIPC: make(map[string]float64),
		Sampled:        make(map[string]fingerprint),
	}

	progs, err := buildDetailPrograms()
	if err != nil {
		return err
	}
	res, err := (&sim.Runner{Jobs: jobs, Batching: true}).Run(ctx, detailSpecs(defaultSeed, progs))
	if err != nil {
		return fmt.Errorf("detail grid: %w", err)
	}
	for i := range res {
		ref.Detail[res[i].Key] = fingerprintOf(&res[i])
	}

	sp, _, err := buildAndProbe(nil, "", 0, sampledPrograms())
	if err != nil {
		return err
	}
	var full []sim.Spec
	for _, p := range sp {
		for _, e := range sampledEngines {
			s := e.spec
			s.Label, s.Program, s.VerifyArch = p.name+"/"+e.name, p.prog, true
			full = append(full, s)
		}
	}
	res, err = (&sim.Runner{Jobs: jobs, Batching: true}).Run(ctx, full)
	if err != nil {
		return fmt.Errorf("sampled reference: %w", err)
	}
	for i := range res {
		ref.SampledFullIPC[res[i].Key] = float64(res[i].Stats.Retired) / float64(res[i].Stats.Cycles)
	}

	uniform, kmeans := sampledSpecs(defaultSeed, sp)
	runner := &sim.Runner{Jobs: jobs, Checkpoints: newCkptStore()}
	for _, specs := range [][]sim.Spec{uniform, kmeans} {
		res, err = runner.Run(ctx, specs)
		if err != nil {
			return fmt.Errorf("sampled sweep: %w", err)
		}
		for i := range res {
			ref.Sampled[res[i].Key] = fingerprintOf(&res[i])
		}
	}

	out, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
