package server

import (
	"fmt"
	"io"
	"sync/atomic"

	"mssr/internal/ckpt"
	"mssr/internal/obs"
)

// metrics holds the daemon's counters, exported in Prometheus text
// exposition format on /metrics. All fields are atomics: they are
// updated from job workers and read by the scrape handler concurrently.
type metrics struct {
	jobsSubmitted atomic.Uint64 // accepted into the queue
	jobsRejected  atomic.Uint64 // shed with 429 at admission
	jobsCompleted atomic.Uint64 // finished with every simulation ok
	jobsFailed    atomic.Uint64 // finished with >= 1 failed simulation
	jobsRunning   atomic.Int64  // gauge: currently executing

	cacheHits      atomic.Uint64 // specs served from the in-memory result cache
	cacheMisses    atomic.Uint64 // specs that missed the in-memory cache
	cacheEvictions atomic.Uint64 // entries the in-memory LRU bound pushed out
	dedupJoins     atomic.Uint64 // specs that joined an identical in-flight run

	simsRun     atomic.Uint64 // simulations actually executed
	simsFailed  atomic.Uint64 // executed simulations that returned an error
	simCycles   atomic.Uint64 // cumulative simulated cycles
	simRetired  atomic.Uint64 // cumulative retired instructions
	simWallNS   atomic.Int64  // cumulative simulation wall time
	streamConns atomic.Int64  // gauge: open NDJSON streams

	streamErrors atomic.Uint64 // NDJSON stream records lost to encode/write failures
	wsConns      atomic.Int64  // gauge: open /v1/ws event subscriptions

	// Memory hierarchy totals, mirrored from executed simulations' stats.
	l1dHits      atomic.Uint64
	l1dMisses    atomic.Uint64
	l1dEvictions atomic.Uint64
	l2Hits       atomic.Uint64
	l2Misses     atomic.Uint64
	l2Evictions  atomic.Uint64
	dramAccesses atomic.Uint64

	requestDur *obs.Histogram // HTTP request handling latency
	simDur     *obs.Histogram // executed simulation wall time

	// Build identity, resolved once in init for the build_info gauge.
	version, goVersion, revision string
}

// init allocates the histograms and resolves the build identity; call
// once before serving.
func (m *metrics) init() {
	m.requestDur = obs.NewHistogram(obs.DurationBuckets)
	m.simDur = obs.NewHistogram(obs.DurationBuckets)
	m.version, m.goVersion, m.revision = obs.BuildInfo()
}

// blobStats is one blob store's state (results or checkpoints) sampled
// for one scrape; the zero value (store disabled) still emits every
// series at zero so dashboards see constant time series either way.
type blobStats struct {
	entries, diskEntries int
	bytes, diskBytes     int64
	ckpt.Counters
}

// write renders every metric. queueDepth, cacheLen, st, ck, wsDropped
// and uptimeSec are sampled by the caller (they are gauges owned by
// other structures).
func (m *metrics) write(w io.Writer, queueDepth, cacheLen int, st, ck blobStats, wsDropped uint64, uptimeSec float64) {
	emit := func(name, help, typ string, value interface{}) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, value)
	}
	fmt.Fprintf(w, "# HELP msrd_build_info Build identity of the running daemon (constant 1).\n# TYPE msrd_build_info gauge\nmsrd_build_info{version=%q,go_version=%q,revision=%q} 1\n",
		m.version, m.goVersion, m.revision)
	emit("msrd_uptime_seconds", "Seconds since the daemon started serving.", "gauge",
		fmt.Sprintf("%.3f", uptimeSec))
	emit("msrd_jobs_submitted_total", "Jobs accepted into the admission queue.", "counter", m.jobsSubmitted.Load())
	emit("msrd_jobs_rejected_total", "Jobs shed with 429 because the queue was full.", "counter", m.jobsRejected.Load())
	emit("msrd_jobs_completed_total", "Jobs finished with every simulation successful.", "counter", m.jobsCompleted.Load())
	emit("msrd_jobs_failed_total", "Jobs finished with at least one failed simulation.", "counter", m.jobsFailed.Load())
	emit("msrd_jobs_running", "Jobs currently executing.", "gauge", m.jobsRunning.Load())
	emit("msrd_queue_depth", "Jobs queued and not yet executing.", "gauge", queueDepth)
	emit("msrd_cache_hits_total", "Specs served from the content-addressed result cache.", "counter", m.cacheHits.Load())
	emit("msrd_cache_misses_total", "Specs that missed the result cache.", "counter", m.cacheMisses.Load())
	emit("msrd_cache_entries", "Results currently cached.", "gauge", cacheLen)
	emit("msrd_cache_evictions_total", "Results the in-memory LRU bound evicted (written behind to the store when one is configured).", "counter", m.cacheEvictions.Load())
	emit("msrd_store_hits_total", "Specs served from the persistent content-addressed store.", "counter", st.Hits)
	emit("msrd_store_misses_total", "Persistent-store lookups that missed.", "counter", st.Misses)
	emit("msrd_store_evictions_total", "Results the persistent store's size bound evicted from disk.", "counter", st.Evictions)
	emit("msrd_store_corrupt_total", "Persistent-store entries dropped after failing verification.", "counter", st.Corrupt)
	emit("msrd_store_entries", "Results currently persisted on disk.", "gauge", st.entries)
	emit("msrd_store_bytes", "Total bytes of persisted result files.", "gauge", st.bytes)
	emit("msrd_ckpt_hits_total", "Architectural boundary states restored from the checkpoint store.", "counter", ck.Hits)
	emit("msrd_ckpt_misses_total", "Checkpoint lookups that missed and fell back to functional emulation.", "counter", ck.Misses)
	emit("msrd_ckpt_evictions_total", "Checkpoints the store's size bounds evicted.", "counter", ck.Evictions)
	emit("msrd_ckpt_corrupt_total", "Persisted checkpoints dropped after failing verification.", "counter", ck.Corrupt)
	emit("msrd_ckpt_bytes_read_total", "Bytes of checkpoint state served to restores.", "counter", ck.BytesRead)
	emit("msrd_ckpt_bytes_written_total", "Bytes of checkpoint state captured into the store.", "counter", ck.BytesWritten)
	emit("msrd_ckpt_entries", "Checkpoints currently held in memory.", "gauge", ck.entries)
	emit("msrd_ckpt_bytes", "Total bytes of in-memory checkpoint state.", "gauge", ck.bytes)
	emit("msrd_ckpt_disk_entries", "Checkpoints currently persisted on disk.", "gauge", ck.diskEntries)
	emit("msrd_ckpt_disk_bytes", "Total bytes of persisted checkpoint files.", "gauge", ck.diskBytes)
	emit("msrd_dedup_joins_total", "Specs deduplicated onto an identical in-flight simulation.", "counter", m.dedupJoins.Load())
	emit("msrd_sims_run_total", "Simulations executed (cache hits and dedup joins excluded).", "counter", m.simsRun.Load())
	emit("msrd_sims_failed_total", "Executed simulations that returned an error.", "counter", m.simsFailed.Load())
	emit("msrd_sim_cycles_total", "Cumulative simulated cycles across executed simulations.", "counter", m.simCycles.Load())
	emit("msrd_sim_retired_total", "Cumulative retired instructions across executed simulations.", "counter", m.simRetired.Load())
	emit("msrd_sim_wall_seconds_total", "Cumulative simulation wall time in seconds.", "counter",
		fmt.Sprintf("%.6f", float64(m.simWallNS.Load())/1e9))
	mips := 0.0
	if wall := float64(m.simWallNS.Load()) / 1e9; wall > 0 {
		mips = float64(m.simRetired.Load()) / wall / 1e6
	}
	emit("msrd_sim_mips", "Aggregate simulated throughput: retired instructions per simulation wall second, in millions.", "gauge",
		fmt.Sprintf("%.6f", mips))
	emit("msrd_stream_connections", "Open NDJSON result streams.", "gauge", m.streamConns.Load())
	emit("msrd_stream_errors_total", "NDJSON stream records or WebSocket subscribers lost to write failures or stalls.", "counter", m.streamErrors.Load())
	emit("msrd_ws_connections", "Open /v1/ws live-event subscriptions.", "gauge", m.wsConns.Load())
	emit("msrd_ws_dropped_total", "Live event frames dropped on full subscriber buffers.", "counter", wsDropped)
	emit("msrd_sim_l1d_hits_total", "Cumulative L1D cache hits across executed simulations.", "counter", m.l1dHits.Load())
	emit("msrd_sim_l1d_misses_total", "Cumulative L1D cache misses across executed simulations.", "counter", m.l1dMisses.Load())
	emit("msrd_sim_l1d_evictions_total", "Cumulative L1D cache evictions across executed simulations.", "counter", m.l1dEvictions.Load())
	emit("msrd_sim_l2_hits_total", "Cumulative L2 cache hits across executed simulations.", "counter", m.l2Hits.Load())
	emit("msrd_sim_l2_misses_total", "Cumulative L2 cache misses across executed simulations.", "counter", m.l2Misses.Load())
	emit("msrd_sim_l2_evictions_total", "Cumulative L2 cache evictions across executed simulations.", "counter", m.l2Evictions.Load())
	emit("msrd_sim_dram_accesses_total", "Cumulative DRAM accesses across executed simulations.", "counter", m.dramAccesses.Load())
	m.requestDur.Write(w, "msrd_request_duration_seconds", "HTTP request handling latency.")
	m.simDur.Write(w, "msrd_sim_duration_seconds", "Executed simulation wall time.")
}
