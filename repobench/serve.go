package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"mssr/internal/api"
	"mssr/internal/ckpt"
	"mssr/internal/client"
	"mssr/internal/events"
	"mssr/internal/fleet"
	"mssr/internal/server"
	"mssr/internal/store"
)

// serveBlockSeconds is the nominal length of one serve-fleet block (one
// sweep request per class, plus a malformed request every third block)
// on the reference host.
const serveBlockSeconds = 0.9

// serveWorkers is the number of msrd workers behind the coordinator.
const serveWorkers = 2

var resultSources = []string{api.SourceRun, api.SourceCache, api.SourceStore, api.SourceDedup}

// daemon is one in-process msrd worker on a loopback port.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	st   *store.Store
	ck   *ckpt.Store
	addr string
}

// fleetUp is a running coordinator with its workers.
type fleetUp struct {
	workers []*daemon
	co      *fleet.Coordinator
	hs      *http.Server
	url     string
	open    time.Duration // time spent opening the stores
}

// serveOn serves h on addr ("" picks a free loopback port).
func serveOn(h http.Handler, addr string) (*http.Server, string, error) {
	if addr == "" {
		addr = "http://127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", strings.TrimPrefix(addr, "http://"))
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
	return hs, "http://" + ln.Addr().String(), nil
}

// startFleet opens each worker's result and checkpoint stores under dir
// (walking and verifying what an earlier process wrote), starts the
// workers and the coordinator, and returns once /readyz answers on all
// of them. A restart passes the previous fleet's worker addresses: the
// coordinator shards on them, so a worker that came back on another port
// would no longer own the results in its store.
func startFleet(ctx context.Context, dir string, workerAddrs []string, tr *tracer, parent uint64) (*fleetUp, error) {
	f := &fleetUp{}
	var addrs []string
	for i := 0; i < serveWorkers; i++ {
		t := time.Now()
		id := tr.open("store-open", "serve-fleet", parent)
		st, err := store.Open(filepath.Join(dir, fmt.Sprintf("w%d", i), "results"), 0, nil)
		if err != nil {
			return nil, err
		}
		ck, err := ckpt.Open(filepath.Join(dir, fmt.Sprintf("w%d", i), "ckpt"), 0, 0, nil)
		if err != nil {
			st.Close()
			return nil, err
		}
		tr.close(id)
		f.open += time.Since(t)
		d := &daemon{st: st, ck: ck}
		d.srv = server.New(server.Config{SimJobs: 1, Batch: true, Store: st, Checkpoints: ck})
		f.workers = append(f.workers, d)
		var addr string
		if i < len(workerAddrs) {
			addr = workerAddrs[i]
		}
		if d.hs, d.addr, err = serveOn(d.srv, addr); err != nil {
			f.stop()
			return nil, err
		}
		addrs = append(addrs, d.addr)
	}
	id := tr.open("fleet-start", "serve-fleet", parent)
	defer tr.close(id)
	f.co = fleet.New(fleet.Config{Workers: addrs})
	var err error
	if f.hs, f.url, err = serveOn(f.co, ""); err != nil {
		f.stop()
		return nil, err
	}
	for _, u := range append(addrs, f.url) {
		if err := waitReady(ctx, client.New(u)); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func waitReady(ctx context.Context, c *client.Client) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := c.Ready(ctx)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready: %w", c.BaseURL, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the coordinator down, then drains each worker (flushing
// its store's write-behind queue) and closes its stores.
func (f *fleetUp) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if f.co != nil {
		_ = f.co.Shutdown(ctx) // unresolved specs complete with a shutdown error
	}
	if f.hs != nil {
		f.hs.Close()
	}
	for _, d := range f.workers {
		_ = d.srv.Shutdown(ctx) // a drain past the deadline cancels runs; nothing is pending here
		if d.hs != nil {
			d.hs.Close()
		}
		d.st.Close()
		d.ck.Close()
	}
}

func (f *fleetUp) addrs() []string {
	var out []string
	for _, d := range f.workers {
		out = append(out, d.addr)
	}
	return out
}

// scrape returns the summed /metrics of the workers, each worker's
// msrd_sim_wall_seconds_total, and the coordinator's /metrics.
func (f *fleetUp) scrape(ctx context.Context) (workers promSample, simWall []float64, co promSample, err error) {
	workers = make(promSample)
	for _, d := range f.workers {
		text, err := client.New(d.addr).Metrics(ctx)
		if err != nil {
			return nil, nil, nil, err
		}
		p := parseProm(text)
		for k, v := range p {
			workers[k] += v
		}
		simWall = append(simWall, p.sum("msrd_sim_wall_seconds_total"))
	}
	text, err := client.New(f.url).Metrics(ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	return workers, simWall, parseProm(text), nil
}

// serveRun is the state of one serve-fleet run.
type serveRun struct {
	o        *outcome
	cl       *client.Client
	expected map[string]uint64 // programKey -> dynamic instruction count
	first    map[string][]byte // CacheKey -> Stats JSON of the first result seen

	// Per-request and per-result samples of the timed phase.
	latency, submitMS, firstMS []float64
	bySource                   map[string][]float64
	resultBytes, results       int
	runWallMS                  []float64 // WallNS of results the workers simulated
	runCycles, runRetired      uint64
	rejected, admittedBad      int
}

// programKey is a program's identity as it leads a CacheKey.
func programKey(workload string, scale int) string {
	if scale == 1 {
		return workload
	}
	return fmt.Sprintf("%s@s%d", workload, scale)
}

var status4xx = regexp.MustCompile(`client: submit: 4\d\d `)

// probePrograms builds every program the traffic uses and runs it on the
// functional emulator; every full-detail result must retire exactly that
// many instructions. It returns the retired counts by programKey and the
// time spent building and probing.
func probePrograms(tr *tracer, parent uint64) (map[string]uint64, [2]time.Duration, error) {
	var want []program
	for _, c := range serveClasses {
		for _, scale := range []int{0, 1} {
			want = append(want, program{name: c, scale: scale})
		}
	}
	progs, took, err := buildAndProbe(tr, "serve-fleet", parent, want)
	if err != nil {
		return nil, took, err
	}
	out := make(map[string]uint64)
	for _, p := range progs {
		out[programKey(p.name, p.scale)] = p.n
	}
	return out, took, nil
}

// runServeFleet drives an msrfleet coordinator in front of two msrd
// workers with a closed loop of one submitting client, while one client
// subscribes to the coordinator's whole event bus.
func runServeFleet(ctx context.Context, cfg config) (*outcome, error) {
	o := &outcome{m: make(map[string]float64)}
	if cfg.trace {
		o.tr = newTracer()
	}
	root := o.tr.open("run", "serve-fleet", 0)
	defer o.tr.close(root)

	dir := filepath.Join(outDir, fmt.Sprintf("serve-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	blocks := rounds(cfg.seconds, serveBlockSeconds, 4)
	in := serveRequests(cfg.seed, blocks)
	s := &serveRun{o: o, first: make(map[string][]byte), bySource: make(map[string][]float64)}
	tx := &http.Transport{MaxConnsPerHost: 1}
	defer tx.CloseIdleConnections()

	// An earlier daemon lifetime: the preload pass writes results into
	// the stores the measured fleet opens at start-up.
	var err error
	if s.expected, _, err = probePrograms(nil, 0); err != nil {
		return nil, err
	}
	f, err := startFleet(ctx, dir, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	s.cl = &client.Client{BaseURL: f.url, HTTPClient: &http.Client{Transport: tx}}
	if err := s.preload(ctx, in.preload); err != nil {
		f.stop()
		return nil, err
	}
	f.stop()
	addrs := f.addrs()
	f = nil

	// Set-up, repeated: build and probe the programs, open the stores,
	// start the fleet. The last start-up serves the measured traffic.
	var opens, builds, probes []float64
	setup, err := timeSetup(9, time.Second, func() {
		f.stop()
		f = nil
	}, func() error {
		var err error
		var took [2]time.Duration
		if s.expected, took, err = probePrograms(o.tr, root); err != nil {
			return err
		}
		builds, probes = append(builds, took[0].Seconds()), append(probes, took[1].Seconds())
		f, err = startFleet(ctx, dir, addrs, o.tr, root)
		if err == nil {
			opens = append(opens, f.open.Seconds())
		}
		return err
	})
	if f != nil {
		defer f.stop()
	}
	if err != nil {
		return nil, err
	}
	o.m["setup_s"], o.m["store.open_s"] = setup, median(opens)
	o.m["workloads.build_s"] = median(builds)
	var probed uint64
	for _, n := range s.expected {
		probed += n
	}
	o.m["emu.probe_mips"] = float64(probed) / median(probes) / 1e6
	s.cl.BaseURL = f.url

	sub := subscribe(ctx, f.url)
	defer sub.stop()

	// The warm-up block is checked like the timed ones, but its samples
	// go to a throwaway serveRun: a failed check makes the run incorrect
	// without being one of the timed operations.
	warm := &serveRun{o: &outcome{}, cl: s.cl, expected: s.expected, first: s.first, bySource: make(map[string][]float64)}
	for _, req := range in.warmup {
		if _, err := warm.do(ctx, req, nil, root); err != nil {
			return nil, err
		}
	}
	o.incorrect = append(o.incorrect, warm.o.incorrect...)

	runtime.GC() // start the timed phase from a collected heap
	wBefore, wallBefore, coBefore, err := f.scrape(ctx)
	if err != nil {
		return nil, err
	}
	evBefore, dropBefore := sub.counts()
	gr := readGoRuntime()
	// Throughput and CPU are taken per block and reported as medians, so
	// a host disturbance shorter than half the run does not move them.
	// Traced runs alternate untraced and traced blocks; blockMIPS[1]
	// holds the traced ones, each paired with the untraced block before
	// it for the trace overhead.
	var blockMIPS [2][]float64
	var blockCPU []float64
	nblocks := 0
	for i := 0; i < len(in.timed); nblocks++ {
		b := in.timed[i].block
		var tr *tracer
		k := 0
		if cfg.trace && b%2 == 0 {
			tr, k = o.tr, 1
		}
		var insts uint64
		t0, cpu0 := time.Now(), cpuSeconds()
		for ; i < len(in.timed) && in.timed[i].block == b; i++ {
			o.attempted++
			n, err := s.do(ctx, in.timed[i], tr, root)
			if err != nil {
				return nil, err
			}
			insts += n
		}
		blockMIPS[k] = append(blockMIPS[k], float64(insts)/time.Since(t0).Seconds()/1e6)
		if tr == nil {
			blockCPU = append(blockCPU, cpuSeconds()-cpu0)
		}
	}
	o.m["cpu_s"] = float64(nblocks) * median(blockCPU)
	addGoDeltas(o.m, gr)
	evAfter, dropAfter := sub.counts()
	wAfter, wallAfter, coAfter, err := f.scrape(ctx)
	if err != nil {
		return nil, err
	}

	lat := summarize(s.latency)
	o.m["effective_mips"] = median(blockMIPS[0])
	o.m["peak_rss_mb"] = peakRSSMB()
	o.m["latency_p50_ms"], o.m["latency_tail_ms"] = lat.P50, lat.Tail
	o.notes = append(o.notes, fmt.Sprintf("blocks=%d", nblocks), tailNote(lat),
		fmt.Sprintf("rejected_4xx=%d admitted_malformed=%d", s.rejected, s.admittedBad))
	for _, src := range resultSources {
		o.notes = append(o.notes, fmt.Sprintf("results_%s=%d", src, len(s.bySource[src])))
	}
	if !cfg.trace {
		return o, nil
	}

	w, co := promDelta(wBefore, wAfter), promDelta(coBefore, coAfter)
	o.m["server.cache_hits"] = w.sum("msrd_cache_hits_total")
	o.m["server.cache_misses"] = w.sum("msrd_cache_misses_total")
	o.m["server.dedup_joins"] = w.sum("msrd_dedup_joins_total")
	o.m["server.rejected"] = w.sum("msrd_jobs_rejected_total") + co.sum("msrfleet_jobs_rejected_total")
	o.m["server.sims_run"] = w.sum("msrd_sims_run_total")
	o.m["server.sim_wall_s"] = w.sum("msrd_sim_wall_seconds_total")
	o.m["store.hits"], o.m["store.misses"] = w.sum("msrd_store_hits_total"), w.sum("msrd_store_misses_total")
	o.m["ckpt.hits"], o.m["ckpt.misses"] = w.sum("msrd_ckpt_hits_total"), w.sum("msrd_ckpt_misses_total")
	o.m["fleet.units_dispatched"] = co.sum("msrfleet_units_dispatched_total")
	o.m["fleet.retries"] = co.sum("msrfleet_retries_total")
	o.m["fleet.steals"] = co.sum("msrfleet_steals_total")
	o.m["fleet.worker_skew"] = skew(wallBefore, wallAfter)
	for _, src := range resultSources {
		o.m["server.result_ms."+src] = median(s.bySource[src])
	}
	o.m["client.submit_ms_p50"] = median(s.submitMS)
	o.m["client.first_result_ms_p50"] = median(s.firstMS)
	if s.results > 0 {
		o.m["api.result_kb"] = float64(s.resultBytes) / float64(s.results) / 1024
	}
	o.m["events.received"], o.m["events.dropped"] = float64(evAfter-evBefore), float64(dropAfter-dropBefore)
	job := summarize(s.runWallMS)
	o.m["sim.job_p50_ms"], o.m["sim.job_tail_ms"] = job.P50, job.Tail
	o.m["sim.detail_retired"], o.m["core.sim_cycles"] = float64(s.runRetired), float64(s.runCycles)
	o.m["latency.tail_pctile"], o.m["latency.samples"] = lat.Pct, float64(lat.N)
	o.m["trace.overhead_pct"] = pairedOverheadPct(blockMIPS[0], blockMIPS[1])
	o.m["store.get_us_p50"] = storeGetProbe(f, in.preload)
	o.m["client.rejected_4xx"], o.m["client.admitted_malformed"] = float64(s.rejected), float64(s.admittedBad)
	return o, nil
}

// skew is the ratio of the busiest to the idlest worker's simulation
// time over the interval.
func skew(before, after []float64) float64 {
	var hi, lo float64
	for i := range after {
		d := after[i] - before[i]
		if i == 0 || d > hi {
			hi = d
		}
		if i == 0 || d < lo {
			lo = d
		}
	}
	if lo <= 0 {
		return 0
	}
	return hi / lo
}

// storeGetProbe times store.Get of every preloaded result on the worker
// that holds it and returns the median in microseconds.
func storeGetProbe(f *fleetUp, specs []api.Spec) float64 {
	var us []float64
	for _, sp := range specs {
		s, err := sp.Sim()
		if err != nil {
			continue
		}
		key := s.CanonicalKey()
		for _, d := range f.workers {
			t := time.Now()
			if _, ok := d.st.Get(key); ok {
				us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
			}
		}
	}
	return median(us)
}

// preload submits specs one block's worth (a spec per class) at a time,
// as an earlier daemon's traffic would have, and records each result as
// the first seen for its key.
func (s *serveRun) preload(ctx context.Context, specs []api.Spec) error {
	for len(specs) > 0 {
		n := min(len(serveClasses), len(specs))
		resp, err := s.cl.Submit(ctx, specs[:n])
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		err = s.cl.Stream(ctx, resp.JobID, func(r api.Result) error {
			if r.Error != "" {
				return fmt.Errorf("preload %s: %s", r.Key, firstLine(r.Error))
			}
			b, err := json.Marshal(r.Stats)
			if err != nil {
				return err
			}
			s.first[r.CacheKey] = b
			return nil
		})
		if err != nil {
			return err
		}
		specs = specs[n:]
	}
	return nil
}

// do sends one request and streams it to completion, checking every
// result. It returns the simulated instructions the delivered results
// represent. Only transport failures are returned as errors; failed
// operations are counted on the outcome.
func (s *serveRun) do(ctx context.Context, req request, tr *tracer, root uint64) (uint64, error) {
	trace := fmt.Sprintf("req-b%d-%s", req.block, req.class)
	if req.malformed != "" {
		trace = fmt.Sprintf("req-b%d-%s", req.block, req.malformed)
	}
	rid := tr.open("request", trace, root)
	defer tr.close(rid)
	t0 := time.Now()
	sid := tr.open("client.submit", trace, rid)
	resp, err := s.cl.Submit(ctx, req.specs)
	tr.close(sid)
	submitMS := msSince(t0)
	if err != nil {
		if req.malformed != "" && status4xx.MatchString(err.Error()) {
			s.rejected++ // the correct outcome for a malformed spec
			return 0, nil
		}
		s.o.fail("%s: %v", trace, err)
		return 0, nil
	}
	if req.malformed != "" {
		s.admittedBad++
	}

	var (
		insts   uint64
		failed  bool
		arrived int
		firstAt time.Time
		last    = time.Now()
	)
	stid := tr.open("client.stream", trace, rid)
	err = s.cl.Stream(ctx, resp.JobID, func(r api.Result) error {
		now := time.Now()
		tr.record("result", trace, stid, last, now)
		last = now
		if arrived == 0 {
			firstAt = now
		}
		arrived++
		if req.malformed != "" {
			// Admitted malformed specs must still fail cleanly; either
			// way the operation failed.
			failed = true
			return nil
		}
		if msg := s.check(&r); msg != "" {
			failed = true
			s.o.wrong("%s: %s", trace, msg)
			return nil
		}
		insts += r.Retired
		if tr == nil {
			s.bySource[r.Source] = append(s.bySource[r.Source], msBetween(t0, now))
		}
		if b, err := json.Marshal(r); err == nil {
			s.resultBytes += len(b)
			s.results++
		}
		if r.Source == api.SourceRun {
			s.runWallMS = append(s.runWallMS, float64(r.WallNS)/1e6)
			s.runCycles += r.Cycles
			s.runRetired += r.Retired
		}
		return nil
	})
	tr.close(stid)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", trace, err)
	}
	if arrived != len(req.specs) {
		failed = true
		s.o.wrong("%s: %d results for %d specs", trace, arrived, len(req.specs))
	}
	if failed {
		s.o.failed++
		return insts, nil
	}
	if tr == nil && req.malformed == "" {
		s.latency = append(s.latency, msBetween(t0, last))
		s.submitMS = append(s.submitMS, submitMS)
		s.firstMS = append(s.firstMS, msBetween(t0, firstAt))
	}
	return insts, nil
}

// check validates one sweep result: it ran without error, retired the
// program's full dynamic length, and — whatever path served it — its
// Stats equal byte for byte the first result seen for its CacheKey.
func (s *serveRun) check(r *api.Result) string {
	if r.Error != "" {
		return fmt.Sprintf("%s: %s", r.Key, firstLine(r.Error))
	}
	if r.Stats == nil {
		return r.Key + ": no stats"
	}
	prog, _, _ := strings.Cut(r.CacheKey, "/")
	want := s.expected[prog]
	if want == 0 || r.Retired != want || r.Stats.Retired != want {
		return fmt.Sprintf("%s: retired %d, emulator %d", r.CacheKey, r.Retired, want)
	}
	b, err := json.Marshal(r.Stats)
	if err != nil {
		return err.Error()
	}
	if first, ok := s.first[r.CacheKey]; ok {
		if !bytes.Equal(first, b) {
			return fmt.Sprintf("%s (%s): stats differ from the first result for this key", r.Key, r.Source)
		}
	} else {
		s.first[r.CacheKey] = b
	}
	return ""
}

// subscriber counts the events of a firehose client.Events subscription
// and the sequence gaps (frames the server dropped).
type subscriber struct {
	cancel            context.CancelFunc
	done              chan struct{}
	received, dropped atomic.Uint64
}

func subscribe(ctx context.Context, url string) *subscriber {
	ctx, cancel := context.WithCancel(ctx)
	s := &subscriber{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		var last uint64
		_ = client.New(url).Events(ctx, "", func(ev events.Event) error {
			if last != 0 && ev.Seq > last+1 {
				s.dropped.Add(ev.Seq - last - 1)
			}
			last = ev.Seq
			s.received.Add(1)
			return nil
		}) // ends with ctx.Err() when stopped
	}()
	return s
}

func (s *subscriber) counts() (received, dropped uint64) {
	return s.received.Load(), s.dropped.Load()
}

func (s *subscriber) stop() {
	s.cancel()
	<-s.done
}
