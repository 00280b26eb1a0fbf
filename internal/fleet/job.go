package fleet

import (
	"sync"
	"time"

	"mssr/internal/api"
)

// job is one submitted batch moving through the fleet. It mirrors the
// worker daemon's job bookkeeping — positional results, a
// completion-order event log for NDJSON streaming, a notify channel
// replaced on every publication — but its specs complete independently
// as sharded units resolve on different workers.
type job struct {
	id   string
	wire []api.Spec // validated wire specs, submit order
	keys []string   // canonical keys, aligned with wire

	// announce makes completing a unit and publishing its spec_done
	// event one step (Coordinator.completeUnit), so a job's spec_done
	// events carry increasing Done counts in stream order even when two
	// workers finish at once.
	announce sync.Mutex

	mu        sync.Mutex
	state     string
	submitted time.Time
	started   time.Time
	finished  time.Time
	results   []api.Result
	filled    []bool
	done      int
	events    []api.Result
	cacheHits int
	dedup     int
	notify    chan struct{}
}

func newJob(id string, wire []api.Spec, keys []string, now time.Time) *job {
	return &job{
		id:        id,
		wire:      wire,
		keys:      keys,
		state:     api.StateRunning,
		submitted: now,
		started:   now,
		results:   make([]api.Result, len(wire)),
		filled:    make([]bool, len(wire)),
		notify:    make(chan struct{}),
	}
}

// complete records the result for spec index i and publishes it,
// finishing the job when it was the last outstanding spec. The first
// completion of a slot wins: first reports whether this call filled the
// slot (callers publish per-spec events on it), jobDone whether it
// finished the job.
func (j *job) complete(i int, r api.Result) (first, jobDone bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.filled[i] {
		return false, false
	}
	j.filled[i] = true
	j.results[i] = r
	j.done++
	switch r.Source {
	case api.SourceCache, api.SourceStore:
		j.cacheHits++
	case api.SourceDedup:
		j.dedup++
	}
	j.events = append(j.events, r)
	if j.done == len(j.wire) {
		j.state = api.StateDone
		j.finished = time.Now()
	}
	close(j.notify)
	j.notify = make(chan struct{})
	return true, j.done == len(j.wire)
}

// doneCount reports how many specs have resolved so far.
func (j *job) doneCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done
}

// failed reports whether any recorded result carries an error.
func (j *job) failed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := range j.results {
		if j.filled[i] && j.results[i].Error != "" {
			return true
		}
	}
	return false
}

// status snapshots the job as a wire JobStatus; results attach only once
// the job is done.
func (j *job) status() api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := api.JobStatus{
		ID:         j.id,
		State:      j.state,
		Total:      len(j.wire),
		Done:       j.done,
		CacheHits:  j.cacheHits,
		DedupJoins: j.dedup,
		Submitted:  j.submitted,
		Started:    j.started,
		Finished:   j.finished,
	}
	if j.state == api.StateDone {
		st.Results = append([]api.Result(nil), j.results...)
	}
	return st
}

// next returns the completion-order event at position i, blocking until
// it exists, the job finishes, or cancel closes.
func (j *job) next(i int, cancel <-chan struct{}) (api.Result, bool) {
	for {
		j.mu.Lock()
		if i < len(j.events) {
			e := j.events[i]
			j.mu.Unlock()
			return e, true
		}
		if j.state == api.StateDone {
			j.mu.Unlock()
			return api.Result{}, false
		}
		ch := j.notify
		j.mu.Unlock()
		select {
		case <-ch:
		case <-cancel:
			return api.Result{}, false
		}
	}
}
