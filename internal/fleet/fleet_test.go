package fleet_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mssr/internal/api"
	"mssr/internal/client"
	"mssr/internal/fleet"
	"mssr/internal/server"
	"mssr/internal/sim"
)

// sweep12 is the acceptance sweep: 12 distinct configs (3 workloads x 4
// engine points, one of them sampled) at smoke scale.
func sweep12() []api.Spec {
	var specs []api.Spec
	for _, wl := range []string{"nested-mispred", "bfs", "mcf"} {
		specs = append(specs,
			api.Spec{Workload: wl, Scale: 0},
			api.Spec{Workload: wl, Scale: 0, Engine: "rgid", Streams: 4, Entries: 64},
			api.Spec{Workload: wl, Scale: 0, Engine: "ri", Streams: 2, Entries: 32},
			api.Spec{Workload: wl, Scale: 0, Engine: "rgid", Streams: 4, Entries: 64, SampleInterval: 2048},
		)
	}
	return specs
}

// countingBackend counts Run invocations while delegating to the real
// runner.
type countingBackend struct {
	runs atomic.Int64
}

func (b *countingBackend) Run(ctx context.Context, specs []sim.Spec) ([]sim.Result, error) {
	b.runs.Add(1)
	return (&sim.Runner{}).Run(ctx, specs)
}

// gatedBackend blocks every Run until released, closing started on the
// first call — the hook the worker-failure test uses to kill a worker
// that is provably mid-simulation, and the stealing test's way of
// holding each worker's shard until it decides which one is slow.
type gatedBackend struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGatedBackend() *gatedBackend {
	return &gatedBackend{started: make(chan struct{}), release: make(chan struct{})}
}

func (b *gatedBackend) Run(ctx context.Context, specs []sim.Spec) ([]sim.Result, error) {
	b.once.Do(func() { close(b.started) })
	select {
	case <-b.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return (&sim.Runner{}).Run(ctx, specs)
}

func fastClient(addr string) *client.Client {
	c := client.New(addr)
	c.PollInterval = 2 * time.Millisecond
	return c
}

// newWorker spins up one msrd daemon over loopback and returns its addr.
// The daemon is shut down at cleanup.
func newWorker(t *testing.T, cfg server.Config) (string, *httptest.Server) {
	t.Helper()
	srv := server.New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		ts.Close()
	})
	return ts.URL, ts
}

// newFleet spins up a coordinator over loopback.
func newFleet(t *testing.T, cfg fleet.Config) (*fleet.Coordinator, *client.Client) {
	t.Helper()
	if cfg.NewClient == nil {
		cfg.NewClient = fastClient
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 20 * time.Millisecond
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 5 * time.Millisecond
	}
	co := fleet.New(cfg)
	ts := httptest.NewServer(co)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		_ = co.Shutdown(ctx)
		ts.Close()
	})
	return co, fastClient(ts.URL)
}

// runSweep submits specs and waits for the final status.
func runSweep(t *testing.T, c *client.Client, specs []api.Spec) *api.JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sub, err := c.Submit(ctx, specs)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st, err := c.Wait(ctx, sub.JobID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	return st
}

// assertByteIdentical pins fleet results against a single-node baseline:
// same keys, byte-identical stats and intervals, position by position.
func assertByteIdentical(t *testing.T, baseline, got []api.Result) {
	t.Helper()
	if len(baseline) != len(got) {
		t.Fatalf("result count %d, want %d", len(got), len(baseline))
	}
	for i := range baseline {
		if got[i].Error != "" {
			t.Errorf("result %d errored: %s", i, got[i].Error)
			continue
		}
		if got[i].Key != baseline[i].Key {
			t.Errorf("result %d key = %q, want %q", i, got[i].Key, baseline[i].Key)
		}
		ws, _ := json.Marshal(baseline[i].Stats)
		gs, _ := json.Marshal(got[i].Stats)
		if string(ws) != string(gs) {
			t.Errorf("result %d stats diverged:\nsingle %s\nfleet  %s", i, ws, gs)
		}
		wi, _ := json.Marshal(baseline[i].Intervals)
		gi, _ := json.Marshal(got[i].Intervals)
		if string(wi) != string(gi) {
			t.Errorf("result %d intervals diverged:\nsingle %s\nfleet  %s", i, wi, gi)
		}
	}
}

// singleNodeBaseline runs the sweep on one standalone daemon.
func singleNodeBaseline(t *testing.T, specs []api.Spec) []api.Result {
	t.Helper()
	addr, _ := newWorker(t, server.Config{})
	st := runSweep(t, fastClient(addr), specs)
	for i, r := range st.Results {
		if r.Error != "" {
			t.Fatalf("baseline result %d errored: %s", i, r.Error)
		}
	}
	return st.Results
}

func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing %s value %q: %v", name, rest, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition:\n%s", name, text)
	return 0
}

// TestFleetSweepMatchesSingleNode pins the core fleet acceptance: a
// 12-config sweep through a 2-worker fleet completes with results
// byte-identical to a single daemon's.
func TestFleetSweepMatchesSingleNode(t *testing.T) {
	specs := sweep12()
	baseline := singleNodeBaseline(t, specs)

	ba, bb := &countingBackend{}, &countingBackend{}
	addrA, _ := newWorker(t, server.Config{Backend: ba})
	addrB, _ := newWorker(t, server.Config{Backend: bb})
	// ChunkSize >= the sweep lets each worker take its whole shard in
	// one dispatch, so no backlog lingers for work stealing to move off
	// its rendezvous home — the cache-homing assertions below depend on
	// every spec running on its own shard.
	_, fc := newFleet(t, fleet.Config{Workers: []string{addrA, addrB}, ChunkSize: 16})

	st := runSweep(t, fc, specs)
	if st.State != api.StateDone || st.Done != len(specs) {
		t.Fatalf("fleet job state %s done %d/%d", st.State, st.Done, st.Total)
	}
	assertByteIdentical(t, baseline, st.Results)

	// The sweep really was distributed: with 12 keys rendezvous-hashed
	// over two workers, both ran simulations (P[one-sided] ~ 2^-11; if
	// this ever fires, the hash broke, not the dice).
	if ba.runs.Load() == 0 || bb.runs.Load() == 0 {
		t.Errorf("sweep was not distributed: worker runs = %d / %d", ba.runs.Load(), bb.runs.Load())
	}

	// Re-submitting the sweep is served entirely from worker caches:
	// content-addressed sharding sends every key back to the worker that
	// computed it. A steal would have moved a spec off its home shard
	// and blurred the homing guarantee, so only assert strict hit counts
	// on steal-free runs (the chunk sizing above makes steals all but
	// impossible; this guard keeps a scheduler fluke from flaking).
	before := ba.runs.Load() + bb.runs.Load()
	st2 := runSweep(t, fc, specs)
	assertByteIdentical(t, baseline, st2.Results)
	ctx := context.Background()
	m, err := fc.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if steals := metricValue(t, m, "msrfleet_steals_total"); steals == 0 {
		if after := ba.runs.Load() + bb.runs.Load(); after != before {
			t.Errorf("resubmitted sweep ran %d new backend batches; sharding should have hit every worker cache", after-before)
		}
		if st2.CacheHits != len(specs) {
			t.Errorf("resubmitted sweep cache hits = %d, want %d", st2.CacheHits, len(specs))
		}
	}
}

// TestFleetWorkerFailureMidSweep pins the failure path of the
// acceptance: one worker is killed while provably mid-simulation, and
// the sweep still completes byte-identical to single-node — the dead
// worker's specs are re-hashed onto the survivor and retried.
func TestFleetWorkerFailureMidSweep(t *testing.T) {
	specs := sweep12()
	baseline := singleNodeBaseline(t, specs)

	ba := &countingBackend{}
	addrA, _ := newWorker(t, server.Config{Backend: ba})

	// Worker B is built by hand (not newWorker) so the test controls the
	// kill and the cleanup ordering around the gated backend.
	bb := newGatedBackend()
	srvB := server.New(server.Config{Backend: bb})
	tsB := httptest.NewServer(srvB)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		_ = srvB.Shutdown(ctx)
	})
	t.Cleanup(func() { bb.once.Do(func() { close(bb.started) }); close(bb.release) })

	co, fc := newFleet(t, fleet.Config{
		Workers:        []string{addrA, tsB.URL},
		ChunkSize:      2,
		HealthFailures: 2,
		MaxAttempts:    5,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sub, err := fc.Submit(ctx, specs)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	// Wait until worker B is inside a simulation, then kill it hard: no
	// graceful drain, every open connection (including the coordinator's
	// result stream) dies mid-flight.
	select {
	case <-bb.started:
	case <-ctx.Done():
		t.Fatal("worker B never started a simulation")
	}
	tsB.CloseClientConnections()
	tsB.Close()

	st, err := fc.Wait(ctx, sub.JobID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.State != api.StateDone || st.Done != len(specs) {
		t.Fatalf("fleet job state %s done %d/%d", st.State, st.Done, st.Total)
	}
	assertByteIdentical(t, baseline, st.Results)

	m, err := fc.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if retries := metricValue(t, m, "msrfleet_retries_total"); retries < 1 {
		t.Errorf("msrfleet_retries_total = %v, want >= 1: the kill should have forced a retry", retries)
	}
	if failures := metricValue(t, m, "msrfleet_unit_failures_total"); failures != 0 {
		t.Errorf("msrfleet_unit_failures_total = %v, want 0: every spec must survive the kill", failures)
	}

	// The ring converged on the survivor.
	var healthy []api.WorkerInfo
	for _, w := range co.Workers() {
		if w.Healthy {
			healthy = append(healthy, w)
		}
	}
	if len(healthy) != 1 || healthy[0].Addr != addrA {
		t.Errorf("healthy ring = %+v, want only %s", healthy, addrA)
	}
}

// TestFleetWorkSteal pins the stealing path: a slow worker's shard
// backlog is drained by the idle fast worker instead of serializing the
// sweep behind the hot shard. Both workers start out holding their
// first unit. The one with the larger shard (at least half the specs,
// however the ring splits them) becomes the slow worker: it keeps
// holding until the fast worker's own shard has drained and the slow
// backlog is below the two units a steal needs. While it holds, that
// backlog can only shrink by stealing, so a steal is guaranteed, not
// raced.
func TestFleetWorkSteal(t *testing.T) {
	var specs []api.Spec
	for _, wl := range []string{"nested-mispred", "bfs", "mcf", "pr"} {
		for e := 0; e < 8; e++ {
			specs = append(specs, api.Spec{Workload: wl, Scale: 0, Engine: "rgid", Streams: 2, Entries: 16 << uint(e%4), Sets: 1 << uint(e/4)})
		}
	}

	gates := map[string]*gatedBackend{}
	var addrs []string
	for i := 0; i < 2; i++ {
		g := newGatedBackend()
		addr, _ := newWorker(t, server.Config{Backend: g, Workers: 1})
		gates[addr] = g
		addrs = append(addrs, addr)
	}
	// No health probe fires during the test: a probe that timed out
	// under a loaded host would demote the held worker and re-home its
	// backlog onto the fast worker, leaving nothing to steal.
	co, fc := newFleet(t, fleet.Config{Workers: addrs, ChunkSize: 1, HealthInterval: time.Hour})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sub, err := fc.Submit(ctx, specs)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Submit shards every spec before it returns and no unit can finish
	// yet, so queue plus in-flight is each worker's whole shard.
	shard := map[string]int{}
	for _, w := range co.Workers() {
		shard[w.Addr] = w.Queue + w.Inflight
	}
	slow, fast := addrs[0], addrs[1]
	if shard[fast] > shard[slow] {
		slow, fast = fast, slow
	}
	close(gates[fast].release)
	for drained := false; !drained; {
		queue := map[string]int{}
		for _, w := range co.Workers() {
			queue[w.Addr] = w.Queue
		}
		drained = queue[fast] == 0 && queue[slow] < 2
		select {
		case <-ctx.Done():
			t.Fatalf("fast worker never drained its shard: shards %v, queues %v", shard, queue)
		case <-time.After(2 * time.Millisecond):
		}
	}
	close(gates[slow].release)
	st, err := fc.Wait(ctx, sub.JobID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.State != api.StateDone || st.Done != len(specs) {
		t.Fatalf("fleet job state %s done %d/%d", st.State, st.Done, st.Total)
	}
	for i, r := range st.Results {
		if r.Error != "" {
			t.Errorf("result %d errored: %s", i, r.Error)
		}
	}
	m, err := fc.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if steals := metricValue(t, m, "msrfleet_steals_total"); steals < 1 {
		t.Errorf("msrfleet_steals_total = %v, want >= 1: the fast worker should have stolen from the slow shard", steals)
	}
}

// TestFleetRegistration pins dynamic membership: a coordinator with no
// static workers is unready and sheds jobs; a registered worker makes it
// ready and serves a sweep; registration is idempotent.
func TestFleetRegistration(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, fc := newFleet(t, fleet.Config{})

	if err := fc.Ready(ctx); err == nil {
		t.Error("workerless coordinator reported ready")
	}
	if err := fc.Health(ctx); err != nil {
		t.Errorf("workerless coordinator reported dead: %v", err)
	}
	if _, err := fc.Submit(ctx, sweep12()[:1]); err == nil {
		t.Error("workerless coordinator accepted a job")
	}

	addr, _ := newWorker(t, server.Config{})
	if err := fc.RegisterWorker(ctx, addr); err != nil {
		t.Fatalf("RegisterWorker: %v", err)
	}
	if err := fc.RegisterWorker(ctx, addr); err != nil {
		t.Fatalf("re-RegisterWorker: %v", err)
	}
	ws, err := fc.Workers(ctx)
	if err != nil {
		t.Fatalf("Workers: %v", err)
	}
	if len(ws) != 1 || ws[0].Addr != addr || !ws[0].Healthy {
		t.Fatalf("workers = %+v, want one healthy %s", ws, addr)
	}
	if err := fc.Ready(ctx); err != nil {
		t.Errorf("coordinator with a healthy worker not ready: %v", err)
	}

	st := runSweep(t, fc, sweep12()[:3])
	for i, r := range st.Results {
		if r.Error != "" {
			t.Errorf("result %d errored: %s", i, r.Error)
		}
	}
}

// TestFleetMetricsAggregation pins the fleet /metrics union: msrfleet_*
// series plus every worker's msrd_* series labelled worker="addr", with
// HELP/TYPE headers deduplicated.
func TestFleetMetricsAggregation(t *testing.T) {
	addrA, _ := newWorker(t, server.Config{})
	addrB, _ := newWorker(t, server.Config{})
	_, fc := newFleet(t, fleet.Config{Workers: []string{addrA, addrB}})

	runSweep(t, fc, sweep12())

	ctx := context.Background()
	m, err := fc.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if v := metricValue(t, m, "msrfleet_jobs_submitted_total"); v != 1 {
		t.Errorf("msrfleet_jobs_submitted_total = %v, want 1", v)
	}
	if v := metricValue(t, m, "msrfleet_units_completed_total"); v != 12 {
		t.Errorf("msrfleet_units_completed_total = %v, want 12", v)
	}
	if v := metricValue(t, m, "msrfleet_workers_healthy"); v != 2 {
		t.Errorf("msrfleet_workers_healthy = %v, want 2", v)
	}
	for _, addr := range []string{addrA, addrB} {
		want := fmt.Sprintf("msrd_jobs_submitted_total{worker=%q}", addr)
		if !strings.Contains(m, want) {
			t.Errorf("aggregated exposition lacks %s", want)
		}
	}
	if n := strings.Count(m, "# HELP msrd_jobs_submitted_total"); n != 1 {
		t.Errorf("HELP header for msrd_jobs_submitted_total appears %d times, want 1", n)
	}
	if strings.Contains(m, "\nmsrd_jobs_submitted_total ") {
		t.Error("aggregated exposition contains an unlabelled worker sample")
	}
}
