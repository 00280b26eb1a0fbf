// Package fleet implements the msrd fleet coordinator: an HTTP daemon
// that shards simulation jobs across a set of msrd worker daemons and
// presents the union as one service speaking the same /v1 API a single
// daemon does, so every existing client (internal/client, msrbench
// -remote) points at a fleet unchanged.
//
// Sharding is content-addressed: each spec's shard key
// (sim.Spec.ShardKey — the canonical key, except that checkpointable
// multi-fidelity specs collapse to their program identity) is
// rendezvous-hashed onto the worker ring, so identical specs — across
// jobs, across clients — always land on the same worker, whose
// in-memory cache, persistent store and in-flight dedup then compose
// into fleet-wide dedup without any coordinator state, and every sweep
// over one program homes onto the worker whose checkpoint store that
// program has already warmed. The coordinator adds what a single daemon cannot provide:
//
//   - worker registration (static -workers list plus POST
//     /fleet/v1/workers, which restarted workers use to re-announce
//     themselves) and periodic liveness probing;
//   - failure handling: when a worker fails its health checks or breaks
//     mid-stream, its queued and unresolved specs are re-hashed across
//     the remaining ring and retried with backoff, bounded by a per-spec
//     attempt budget;
//   - work stealing: a worker whose shard queue runs dry takes queued
//     specs from the deepest backlog, so a hot shard (one workload
//     hashing many variants onto one worker) cannot idle the fleet;
//   - fleet observability: /metrics unions every worker's exposition
//     with a worker="addr" label plus coordinator-level series (queue
//     depths, shard balance, retries, steals).
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mssr/internal/api"
	"mssr/internal/client"
	"mssr/internal/events"
	"mssr/internal/obs"
	"mssr/internal/sim"
)

// Config tunes the coordinator. The zero value is usable but has no
// workers; add them via Workers or the registration endpoint.
type Config struct {
	// Workers is the static list of worker addresses known at startup.
	Workers []string
	// HealthInterval paces the liveness probes (0 = 1s).
	HealthInterval time.Duration
	// HealthFailures is how many consecutive probe failures demote a
	// worker (0 = 2).
	HealthFailures int
	// ChunkSize bounds how many specs one dispatch submits to a worker
	// as a single sub-job (0 = 16). Larger chunks amortize HTTP overhead
	// and let the worker batch-execute; smaller chunks spread a sweep
	// wider and give work stealing finer grains.
	ChunkSize int
	// MaxAttempts bounds how many times one spec is dispatched before it
	// completes with an error (0 = 4).
	MaxAttempts int
	// RetryBackoff is the base delay before re-dispatching after a
	// worker failure, scaled by the spec's attempt count (0 = 100ms).
	RetryBackoff time.Duration
	// QueueLimit bounds specs admitted and not yet resolved; submissions
	// beyond it are shed with 429 (0 = 4096).
	QueueLimit int
	// RetryAfter is the backoff hint attached to 429 responses (0 = 1s).
	RetryAfter time.Duration
	// ReadyThreshold marks the fleet "saturated" on /readyz once this
	// many specs are pending (0 = QueueLimit). Load balancers use it to
	// rotate traffic away before submissions start bouncing with 429.
	ReadyThreshold int
	// RelayBackoff is the base delay between reconnect attempts when a
	// worker's event stream drops (0 = 200ms, capped at 2s).
	RelayBackoff time.Duration
	// Logger receives the coordinator's structured logs; nil discards.
	Logger *slog.Logger
	// NewClient overrides worker client construction (tests inject
	// fast-polling clients).
	NewClient func(addr string) *client.Client
}

func (c Config) withDefaults() Config {
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.HealthFailures <= 0 {
		c.HealthFailures = 2
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 16
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 4096
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.ReadyThreshold <= 0 {
		c.ReadyThreshold = c.QueueLimit
	}
	if c.RelayBackoff <= 0 {
		c.RelayBackoff = 200 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
	}
	if c.NewClient == nil {
		c.NewClient = func(addr string) *client.Client { return client.New(addr) }
	}
	return c
}

// unit is one spec of one job on its way through the fleet.
type unit struct {
	job      *job
	idx      int // position in the job
	spec     api.Spec
	key      string // canonical key (result identity)
	shard    string // sim.Spec.ShardKey() (worker-placement identity)
	display  string // Label or canonical key, for error results
	attempts int
	lastErr  string
}

// worker is one msrd daemon in the ring.
type worker struct {
	addr string
	cl   *client.Client

	// Guarded by the coordinator's mu.
	healthy  bool
	failures int
	queue    []*unit
	inflight int

	dispatched atomic.Uint64
	completed  atomic.Uint64
}

// Coordinator is the fleet daemon. Create with New, serve with any
// http.Server, stop with Shutdown.
type Coordinator struct {
	cfg Config
	mux *http.ServeMux
	log *slog.Logger
	met fleetMetrics

	// hub is the fleet-wide event bus: coordinator lifecycle events
	// (dispatch, retries, ring membership) plus telemetry frames relayed
	// from every worker's own /v1/ws stream, re-labeled worker="addr".
	hub      *events.Hub
	started  time.Time
	probeDur *obs.Histogram

	mu      sync.Mutex
	cond    *sync.Cond
	workers map[string]*worker
	jobs    map[string]*job
	orphans []*unit // units with no healthy worker to queue on
	pending int     // units admitted and not yet resolved
	closed  bool
	// subJobs maps "workerAddr subJobID" to the chunk's units, so the
	// relay can re-label a worker's job-scoped frames with the owning
	// fleet job. Entries are dropped (after a grace for in-flight frames)
	// when the dispatch that registered them returns.
	subJobs map[string][]*unit

	nextJob atomic.Uint64
	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// New builds a Coordinator, starts its health prober and one dispatch
// loop per configured worker.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		log:      cfg.Logger,
		hub:      &events.Hub{},
		started:  time.Now(),
		probeDur: obs.NewHistogram(obs.DurationBuckets),
		workers:  make(map[string]*worker),
		jobs:     make(map[string]*job),
		subJobs:  make(map[string][]*unit),
	}
	c.met.version, c.met.goVersion, c.met.revision = obs.BuildInfo()
	c.cond = sync.NewCond(&c.mu)
	c.baseCtx, c.cancel = context.WithCancel(context.Background())
	c.mu.Lock()
	for _, addr := range cfg.Workers {
		c.addWorkerLocked(addr)
	}
	c.mu.Unlock()
	c.wg.Add(1)
	go c.healthLoop()

	c.mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	c.mux.HandleFunc("GET /v1/jobs/{id}", c.handleJob)
	c.mux.HandleFunc("GET /v1/jobs/{id}/stream", c.handleStream)
	c.mux.HandleFunc("GET /v1/jobs/{id}/intervals", c.handleIntervals)
	c.mux.HandleFunc("GET /v1/ws", c.handleWS)
	c.mux.HandleFunc("POST /fleet/v1/workers", c.handleRegister)
	c.mux.HandleFunc("GET /fleet/v1/workers", c.handleWorkers)
	c.mux.HandleFunc("GET /healthz", c.handleHealth)
	c.mux.HandleFunc("GET /readyz", c.handleReady)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	return c
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// normalizeAddr canonicalizes a worker address the same way client.New
// does ("host:port" -> "http://host:port"), so one worker announced two
// ways cannot join the ring twice.
func normalizeAddr(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// addWorkerLocked registers addr (idempotent) and starts its dispatch
// and event-relay loops. Callers hold c.mu.
func (c *Coordinator) addWorkerLocked(addr string) *worker {
	addr = normalizeAddr(addr)
	if w, ok := c.workers[addr]; ok {
		return w
	}
	w := &worker{addr: addr, cl: c.cfg.NewClient(addr), healthy: true}
	c.workers[addr] = w
	c.met.registrations.Add(1)
	c.hub.Publish(events.Event{Type: events.TypeWorkerRegistered, Worker: addr})
	c.wg.Add(2)
	go c.workerLoop(w)
	go c.relayLoop(w)
	c.cond.Broadcast()
	return w
}

// healthyAddrsLocked snapshots the healthy ring.
func (c *Coordinator) healthyAddrsLocked() []string {
	addrs := make([]string, 0, len(c.workers))
	for addr, w := range c.workers {
		if w.healthy {
			addrs = append(addrs, addr)
		}
	}
	return addrs
}

// enqueueLocked routes one unit onto its rendezvous worker, or parks it
// with the orphans until a worker is healthy.
func (c *Coordinator) enqueueLocked(u *unit) {
	addrs := c.healthyAddrsLocked()
	if len(addrs) == 0 {
		c.orphans = append(c.orphans, u)
		return
	}
	w := c.workers[pick(addrs, u.shard)]
	w.queue = append(w.queue, u)
}

// Shutdown stops the coordinator: no new submissions, in-flight
// dispatches are cancelled, loops joined (bounded by ctx), and every
// unresolved spec completes with a shutdown error so no stream blocks
// forever.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.cond.Broadcast()
	c.cancel()

	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}

	c.mu.Lock()
	leftovers := append([]*unit(nil), c.orphans...)
	c.orphans = nil
	for _, w := range c.workers {
		leftovers = append(leftovers, w.queue...)
		w.queue = nil
	}
	jobs := make([]*job, 0, len(c.jobs))
	for _, j := range c.jobs {
		jobs = append(jobs, j)
	}
	c.mu.Unlock()
	for _, u := range leftovers {
		c.completeUnit(u, errorResult(u, "coordinator shut down"), "")
	}
	for _, j := range jobs {
		for i := range j.wire {
			j.complete(i, api.Result{
				Index:    i,
				Key:      displayKey(j.wire[i], j.keys[i]),
				CacheKey: j.keys[i],
				Source:   api.SourceRun,
				Error:    "coordinator shut down",
			})
		}
	}
	return err
}

// ------------------------------------------------------------ dispatch ---

// workerLoop is one worker's dispatcher: it takes chunks from the
// worker's shard queue (or steals from a hot one), submits them as one
// sub-job, and feeds streamed completions back into the owning jobs.
func (c *Coordinator) workerLoop(w *worker) {
	defer c.wg.Done()
	for {
		units := c.take(w)
		if units == nil {
			return
		}
		c.dispatch(w, units)
		c.mu.Lock()
		w.inflight -= len(units)
		c.mu.Unlock()
		c.cond.Broadcast()
	}
}

// take blocks until the worker has work (own queue, orphans, or a steal)
// or the coordinator closes (nil).
func (c *Coordinator) take(w *worker) []*unit {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return nil
		}
		if w.healthy {
			if units := c.takeFromLocked(&c.orphans, w); units != nil {
				return units
			}
			if units := c.takeFromLocked(&w.queue, w); units != nil {
				return units
			}
			if units := c.stealLocked(w); units != nil {
				return units
			}
		}
		c.cond.Wait()
	}
}

// takeFromLocked pops up to a chunk from the head of q for w.
func (c *Coordinator) takeFromLocked(q *[]*unit, w *worker) []*unit {
	if len(*q) == 0 {
		return nil
	}
	n := len(*q)
	if n > c.cfg.ChunkSize {
		n = c.cfg.ChunkSize
	}
	units := append([]*unit(nil), (*q)[:n]...)
	*q = (*q)[n:]
	w.inflight += n
	return units
}

// stealLocked moves up to half of the deepest healthy queue (tail end —
// the work its owner would reach last) onto w.
func (c *Coordinator) stealLocked(w *worker) []*unit {
	var victim *worker
	for _, v := range c.workers {
		if v == w || !v.healthy || len(v.queue) < 2 {
			continue
		}
		if victim == nil || len(v.queue) > len(victim.queue) {
			victim = v
		}
	}
	if victim == nil {
		return nil
	}
	n := len(victim.queue) / 2
	if n > c.cfg.ChunkSize {
		n = c.cfg.ChunkSize
	}
	cut := len(victim.queue) - n
	units := append([]*unit(nil), victim.queue[cut:]...)
	victim.queue = victim.queue[:cut]
	w.inflight += n
	c.met.steals.Add(1)
	c.met.unitsStolen.Add(uint64(n))
	c.hub.Publish(events.Event{Type: events.TypeSteal, Worker: victim.addr, Specs: n})
	c.log.Info("work stolen", "thief", w.addr, "victim", victim.addr, "units", n, "victim_queue", len(victim.queue))
	return units
}

// dispatch submits one chunk to w as a single sub-job and resolves every
// unit from the worker's completion stream. Units the worker failed to
// resolve are retried on the re-hashed ring.
func (c *Coordinator) dispatch(w *worker, units []*unit) {
	specs := make([]api.Spec, len(units))
	for i, u := range units {
		specs[i] = u.spec
	}
	w.dispatched.Add(uint64(len(units)))
	c.met.unitsDispatched.Add(uint64(len(units)))

	resolved := make([]bool, len(units))
	var retry []*unit
	ctx := c.baseCtx
	settle := func(i int, r api.Result) {
		if resolved[i] {
			return
		}
		resolved[i] = true
		u := units[i]
		if r.Error != "" && u.attempts+1 < c.cfg.MaxAttempts {
			// A per-result error from a live worker is usually a
			// cancelled simulation (worker draining); give the spec its
			// remaining attempts elsewhere before surfacing it.
			u.lastErr = r.Error
			retry = append(retry, u)
			return
		}
		w.completed.Add(1)
		c.completeUnit(u, r, w.addr)
	}

	sub, err := w.cl.Submit(ctx, specs)
	if err == nil {
		// Register the sub-job so the relay can re-label this worker's
		// frames with the owning fleet jobs. The mapping outlives the
		// dispatch by a grace period: relay frames travel on their own
		// connection and may still be in flight when the result stream
		// ends.
		relayKey := w.addr + " " + sub.JobID
		c.mu.Lock()
		c.subJobs[relayKey] = units
		c.mu.Unlock()
		defer time.AfterFunc(5*time.Second, func() {
			c.mu.Lock()
			delete(c.subJobs, relayKey)
			c.mu.Unlock()
		})
		for _, u := range units {
			c.hub.Publish(events.Event{Type: events.TypeSpecDispatched, Job: u.job.id, Key: u.display, Worker: w.addr})
		}
		serr := w.cl.Stream(ctx, sub.JobID, func(r api.Result) error {
			if r.Index >= 0 && r.Index < len(units) {
				settle(r.Index, r)
			}
			return nil
		})
		allResolved := true
		for i := range resolved {
			if !resolved[i] {
				allResolved = false
				break
			}
		}
		if !allResolved {
			// Broken or truncated stream: one authoritative status fetch
			// picks up anything the worker did finish.
			if st, jerr := w.cl.Job(ctx, sub.JobID); jerr == nil && st.State == api.StateDone {
				for _, r := range st.Results {
					if r.Index >= 0 && r.Index < len(units) {
						settle(r.Index, r)
					}
				}
			} else if serr == nil {
				serr = jerr
			}
			err = serr
			if err == nil {
				err = errors.New("worker stream ended with unresolved specs")
			}
		}
	}

	var unresolved []*unit
	for i, u := range units {
		if !resolved[i] {
			unresolved = append(unresolved, u)
			if err != nil {
				u.lastErr = err.Error()
			}
		}
	}
	if err != nil && len(unresolved) > 0 {
		// The worker failed this dispatch outright: demote it (the
		// health prober revives it when it answers again) and re-hash
		// its unresolved specs across the rest of the ring.
		c.markDown(w, fmt.Sprintf("dispatch failed: %v", err))
	}
	retry = append(retry, unresolved...)
	if len(retry) > 0 {
		c.hub.Publish(events.Event{Type: events.TypeRetry, Worker: w.addr, Specs: len(retry)})
		c.requeue(retry)
	}
}

// requeue gives failed units another attempt (with backoff scaled by
// their attempt count) or completes them with their last error once the
// budget is spent.
func (c *Coordinator) requeue(units []*unit) {
	var again []*unit
	maxAttempt := 0
	for _, u := range units {
		u.attempts++
		if u.attempts >= c.cfg.MaxAttempts {
			c.met.unitFailures.Add(uint64(1))
			c.completeUnit(u, errorResult(u, fmt.Sprintf("dispatch failed after %d attempts: %s", u.attempts, u.lastErr)), "")
			continue
		}
		if u.attempts > maxAttempt {
			maxAttempt = u.attempts
		}
		again = append(again, u)
	}
	if len(again) == 0 {
		return
	}
	c.met.retries.Add(uint64(len(again)))
	// Backoff in the failing worker's loop: the units land on other
	// workers' queues afterwards, so only this loop pays the delay.
	select {
	case <-time.After(time.Duration(maxAttempt) * c.cfg.RetryBackoff):
	case <-c.baseCtx.Done():
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		for _, u := range again {
			c.completeUnit(u, errorResult(u, "coordinator shut down"), "")
		}
		return
	}
	for _, u := range again {
		c.enqueueLocked(u)
	}
	c.mu.Unlock()
	c.cond.Broadcast()
}

// completeUnit resolves one unit: the result is re-indexed into the
// owning job's positions and published. workerAddr labels the bus
// events with the worker that produced the result ("" for fleet-side
// completions such as shed or shutdown errors).
func (c *Coordinator) completeUnit(u *unit, r api.Result, workerAddr string) {
	r.Index = u.idx
	c.met.unitsCompleted.Add(1)
	c.mu.Lock()
	c.pending--
	c.mu.Unlock()
	u.job.announce.Lock()
	first, jobDone := u.job.complete(u.idx, r)
	if first {
		c.hub.Publish(events.Event{
			Type: events.TypeSpecDone, Job: u.job.id, Key: r.Key, Worker: workerAddr,
			Source: r.Source, Done: u.job.doneCount(),
			WallMS: float64(r.WallNS) / 1e6, IPC: r.IPC,
			Extrapolated: r.Extrapolated, ExtrapolatedIPC: r.ExtrapolatedIPC, IPCErrorEst: r.IPCErrorEst,
			Error: r.Error,
		})
	}
	u.job.announce.Unlock()
	if jobDone {
		if u.job.failed() {
			c.met.jobsFailed.Add(1)
		} else {
			c.met.jobsCompleted.Add(1)
		}
		st := u.job.status()
		wallMS := float64(st.Finished.Sub(st.Submitted).Microseconds()) / 1000
		typ := events.TypeJobDone
		if st.Error != "" || u.job.failed() {
			typ = events.TypeJobFailed
		}
		c.hub.Publish(events.Event{Type: typ, Job: u.job.id, Specs: st.Total, Done: st.Done, WallMS: wallMS})
		c.log.Info("fleet job finish", "job_id", u.job.id,
			"specs", st.Total, "cache_hits", st.CacheHits, "dedup_joins", st.DedupJoins,
			"duration_ms", wallMS)
	}
	c.cond.Broadcast()
}

// errorResult builds the wire result for a unit the fleet failed.
func errorResult(u *unit, msg string) api.Result {
	return api.Result{
		Index:    u.idx,
		Key:      u.display,
		CacheKey: u.key,
		Source:   api.SourceRun,
		Error:    msg,
	}
}

func displayKey(ws api.Spec, canonical string) string {
	if ws.Label != "" {
		return ws.Label
	}
	return canonical
}

// -------------------------------------------------------------- health ---

// healthLoop probes every worker's liveness endpoint each interval.
func (c *Coordinator) healthLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	// Probes get a floor on their deadline independent of the probing
	// cadence: a dead worker fails instantly (connection refused), so a
	// generous timeout only affects hung-but-connected workers, while a
	// tight one would demote healthy workers on scheduler hiccups.
	probeTimeout := c.cfg.HealthInterval
	if probeTimeout < time.Second {
		probeTimeout = time.Second
	}
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-t.C:
		}
		c.mu.Lock()
		ws := make([]*worker, 0, len(c.workers))
		for _, w := range c.workers {
			ws = append(ws, w)
		}
		c.mu.Unlock()
		for _, w := range ws {
			pctx, cancel := context.WithTimeout(c.baseCtx, probeTimeout)
			t0 := time.Now()
			err := w.cl.Health(pctx)
			c.probeDur.Observe(time.Since(t0))
			cancel()
			c.noteProbe(w, err)
		}
	}
}

// noteProbe records one probe outcome and flips worker health at the
// configured thresholds.
func (c *Coordinator) noteProbe(w *worker, err error) {
	if err == nil {
		c.mu.Lock()
		w.failures = 0
		revived := !w.healthy
		w.healthy = true
		c.mu.Unlock()
		if revived {
			c.hub.Publish(events.Event{Type: events.TypeWorkerUp, Worker: w.addr})
			c.log.Info("worker healthy", "worker", w.addr)
			c.cond.Broadcast()
		}
		return
	}
	c.mu.Lock()
	w.failures++
	demote := w.healthy && w.failures >= c.cfg.HealthFailures
	c.mu.Unlock()
	if demote {
		c.markDown(w, fmt.Sprintf("health probe failed: %v", err))
	}
}

// markDown demotes a worker and re-homes its queued units.
func (c *Coordinator) markDown(w *worker, reason string) {
	c.mu.Lock()
	if !w.healthy {
		c.mu.Unlock()
		return
	}
	w.healthy = false
	w.failures = c.cfg.HealthFailures
	moved := w.queue
	w.queue = nil
	for _, u := range moved {
		c.enqueueLocked(u)
	}
	c.mu.Unlock()
	c.hub.Publish(events.Event{Type: events.TypeWorkerDown, Worker: w.addr, Specs: len(moved), Error: reason})
	c.log.Warn("worker down", "worker", w.addr, "reason", reason, "requeued", len(moved))
	c.cond.Broadcast()
}

// ------------------------------------------------------------ handlers ---

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		c.writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if len(req.Specs) == 0 {
		c.writeError(w, http.StatusBadRequest, errors.New("no specs submitted"))
		return
	}
	keys := make([]string, len(req.Specs))
	shards := make([]string, len(req.Specs))
	var verrs []error
	for i, ws := range req.Specs {
		sp, err := ws.Sim()
		if err == nil {
			err = sp.Validate()
		}
		if err != nil {
			verrs = append(verrs, fmt.Errorf("spec %d: %w", i, err))
			continue
		}
		keys[i] = sp.CanonicalKey()
		shards[i] = sp.ShardKey()
	}
	if len(verrs) > 0 {
		c.writeError(w, http.StatusBadRequest, errors.Join(verrs...))
		return
	}

	j := newJob(fmt.Sprintf("f%d", c.nextJob.Add(1)), req.Specs, keys, time.Now())
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.writeError(w, http.StatusServiceUnavailable, errors.New("coordinator is draining"))
		return
	}
	if len(c.healthyAddrsLocked()) == 0 {
		c.mu.Unlock()
		c.met.jobsRejected.Add(1)
		c.writeError(w, http.StatusServiceUnavailable, errors.New("no healthy workers"))
		return
	}
	if c.pending+len(req.Specs) > c.cfg.QueueLimit {
		pending := c.pending
		c.mu.Unlock()
		c.met.jobsRejected.Add(1)
		c.log.Warn("fleet job rejected", "specs", len(req.Specs), "pending", pending, "queue_limit", c.cfg.QueueLimit)
		secs := int((c.cfg.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, api.Error{
			Error:        fmt.Sprintf("fleet queue full (%d specs pending)", pending),
			RetryAfterMS: c.cfg.RetryAfter.Milliseconds(),
		})
		return
	}
	c.jobs[j.id] = j
	c.pending += len(req.Specs)
	for i := range req.Specs {
		c.enqueueLocked(&unit{
			job:     j,
			idx:     i,
			spec:    req.Specs[i],
			key:     keys[i],
			shard:   shards[i],
			display: displayKey(req.Specs[i], keys[i]),
		})
	}
	c.mu.Unlock()
	c.cond.Broadcast()
	c.met.jobsSubmitted.Add(1)
	// Fleet jobs run as soon as they are admitted (units go straight onto
	// shard queues), so queued and start publish back to back.
	c.hub.Publish(events.Event{Type: events.TypeJobQueued, Job: j.id, Specs: len(req.Specs)})
	c.hub.Publish(events.Event{Type: events.TypeJobStart, Job: j.id, Specs: len(req.Specs)})
	c.log.Info("fleet job submitted", "job_id", j.id, "specs", len(req.Specs))
	writeJSON(w, http.StatusAccepted, api.SubmitResponse{JobID: j.id, Total: len(req.Specs)})
}

func (c *Coordinator) lookup(id string) *job {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobs[id]
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	j := c.lookup(r.PathValue("id"))
	if j == nil {
		c.writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (c *Coordinator) handleStream(w http.ResponseWriter, r *http.Request) {
	j := c.lookup(r.PathValue("id"))
	if j == nil {
		c.writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for i := 0; ; i++ {
		e, ok := j.next(i, r.Context().Done())
		if !ok {
			return
		}
		if err := enc.Encode(e); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (c *Coordinator) handleIntervals(w http.ResponseWriter, r *http.Request) {
	j := c.lookup(r.PathValue("id"))
	if j == nil {
		c.writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for i := 0; ; i++ {
		e, ok := j.next(i, r.Context().Done())
		if !ok {
			return
		}
		for k := range e.Intervals {
			rec := api.IntervalRecord{Key: e.Key, Source: e.Source, Interval: e.Intervals[k]}
			if err := enc.Encode(&rec); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req api.RegisterWorkerRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		c.writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.Addr == "" {
		c.writeError(w, http.StatusBadRequest, errors.New("no worker addr"))
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.writeError(w, http.StatusServiceUnavailable, errors.New("coordinator is draining"))
		return
	}
	addr := normalizeAddr(req.Addr)
	_, known := c.workers[addr]
	c.addWorkerLocked(addr)
	c.mu.Unlock()
	if !known {
		c.log.Info("worker registered", "worker", addr)
	}
	writeJSON(w, http.StatusOK, c.workersResponse())
}

func (c *Coordinator) workersResponse() api.WorkersResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := api.WorkersResponse{Workers: make([]api.WorkerInfo, 0, len(c.workers))}
	for _, w := range c.workers {
		out.Workers = append(out.Workers, api.WorkerInfo{
			Addr:       w.addr,
			Healthy:    w.healthy,
			Queue:      len(w.queue),
			Inflight:   w.inflight,
			Dispatched: w.dispatched.Load(),
			Completed:  w.completed.Load(),
		})
	}
	sort.Slice(out.Workers, func(i, j int) bool { return out.Workers[i].Addr < out.Workers[j].Addr })
	return out
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.workersResponse())
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady: the fleet is ready when it is not draining, at least one
// worker is healthy, and the pending backlog sits below ReadyThreshold.
// "saturated" is a 503 distinct from rejection — submissions may still
// be admitted until QueueLimit, but balancers should rotate away.
func (c *Coordinator) handleReady(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	closed := c.closed
	healthy := len(c.healthyAddrsLocked())
	total := len(c.workers)
	pending := c.pending
	c.mu.Unlock()
	switch {
	case closed:
		writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{"status": "draining"})
	case healthy == 0:
		writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{"status": "no healthy workers", "workers": total})
	case pending >= c.cfg.ReadyThreshold:
		writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{"status": "saturated", "pending": pending, "threshold": c.cfg.ReadyThreshold, "workers": total, "healthy": healthy})
	default:
		writeJSON(w, http.StatusOK, map[string]interface{}{"status": "ready", "workers": total, "healthy": healthy, "pending": pending})
	}
}

// handleWS streams the fleet event bus over a WebSocket: coordinator
// lifecycle events plus worker telemetry frames relayed with
// worker="addr" labels. ?job=ID filters to one fleet job.
func (c *Coordinator) handleWS(w http.ResponseWriter, r *http.Request) {
	c.met.wsConns.Add(1)
	defer c.met.wsConns.Add(-1)
	if err := events.ServeWS(c.hub, w, r, events.ServeOptions{Job: r.URL.Query().Get("job")}); err != nil {
		c.met.streamErrors.Add(1)
		c.log.Warn("fleet event stream failed", "err", err)
	}
}

// Hub returns the fleet event bus (exported for CLIs/tests).
func (c *Coordinator) Hub() *events.Hub { return c.hub }

// ---------------------------------------------------------------- relay ---

// relayLoop maintains one worker's event-relay connection: it dials the
// worker's /v1/ws firehose, re-labels each telemetry frame with the
// owning fleet job and worker="addr", and republishes it on the fleet
// hub. Connection failures retry with bounded backoff — a worker
// without the endpoint (or down) costs one cheap dial per backoff and
// nothing else.
func (c *Coordinator) relayLoop(w *worker) {
	defer c.wg.Done()
	backoff := c.cfg.RelayBackoff
	for {
		if c.baseCtx.Err() != nil {
			return
		}
		conn, err := events.Dial(c.baseCtx, w.addr+"/v1/ws")
		if err != nil {
			select {
			case <-time.After(backoff):
			case <-c.baseCtx.Done():
				return
			}
			if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
			continue
		}
		backoff = c.cfg.RelayBackoff
		// ReadMessage cannot watch a context, so a shutdown closes the
		// connection out from under it.
		connDone := make(chan struct{})
		go func() {
			select {
			case <-c.baseCtx.Done():
				conn.Close()
			case <-connDone:
			}
		}()
		c.relay(w, conn)
		close(connDone)
		conn.Close()
	}
}

// relay pumps one established worker event stream into the fleet hub
// until it breaks. Only telemetry frames are forwarded (interval,
// window, spec_start) — authoritative lifecycle events (dispatched,
// done, failed) come from the coordinator's own bookkeeping, so the
// fleet stream never carries duplicates. Frames that cannot be mapped
// to a fleet job (a client talking to the worker directly, or a frame
// arriving after its sub-job's grace period) are dropped.
func (c *Coordinator) relay(w *worker, conn *events.WSConn) {
	for {
		msg, err := conn.ReadMessage()
		if err != nil {
			return
		}
		var ev events.Event
		if json.Unmarshal(msg, &ev) != nil {
			continue
		}
		switch ev.Type {
		case events.TypeInterval, events.TypeWindow, events.TypeSpecStart:
		default:
			continue
		}
		c.mu.Lock()
		units := c.subJobs[w.addr+" "+ev.Job]
		var owner *job
		for _, u := range units {
			if u.display == ev.Key {
				owner = u.job
				break
			}
		}
		c.mu.Unlock()
		if owner == nil {
			continue
		}
		ev.Job = owner.id
		ev.Worker = w.addr
		c.hub.Publish(ev) // Publish re-stamps Seq and TimeNS for the fleet bus
	}
}

func (c *Coordinator) writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, api.Error{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// Workers returns the current worker view (exported for CLIs/tests).
func (c *Coordinator) Workers() []api.WorkerInfo {
	return c.workersResponse().Workers
}

var _ sim.Backend = (*client.Remote)(nil) // the fleet serves Remote's contract
