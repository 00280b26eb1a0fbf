package main

import (
	"context"
	"sync"
	"time"

	"mssr/internal/obs"
	"mssr/internal/sim"
)

// sweepRun is one timed call of sim.Runner.Run as repobench saw it.
type sweepRun struct {
	res      []sim.Result
	wall     time.Duration
	latency  []float64 // per spec: Run call to the spec's OnFinish, ms
	jobMS    []float64 // per spec: OnStart to OnFinish, ms
	windowMS []float64 // traced only: one per detailed window, ms
}

// sweepObserver records per-spec timing through the Runner's Observer
// hooks, and when traced the sim.job spans and, through the OnWindow and
// OnInterval hooks, the sim.window spans.
type sweepObserver struct {
	tr     *tracer
	parent uint64
	trace  string

	mu       sync.Mutex
	start    []time.Time
	finish   []time.Time
	jobSpan  []uint64
	windowAt []time.Time // start of spec i's open window, zero if none
	windowNo []int       // number of spec i's open window
	windowMS []float64
}

func (o *sweepObserver) OnStart(i, _ int, key string) {
	now := time.Now()
	id := o.tr.open("sim.job", o.trace, o.parent)
	o.mu.Lock()
	o.start[i], o.jobSpan[i] = now, id
	o.mu.Unlock()
}

func (o *sweepObserver) OnFinish(i, _ int, _ sim.Result) {
	now := time.Now()
	o.mu.Lock()
	o.finish[i] = now
	o.closeWindow(i, now)
	id := o.jobSpan[i]
	o.mu.Unlock()
	o.tr.close(id)
}

// onWindow starts spec i's next detailed window. It fires after the
// functional skip (or checkpoint restore) that leads to the window.
func (o *sweepObserver) onWindow(i int, _ string, window, _ int) {
	now := time.Now()
	o.mu.Lock()
	o.windowAt[i], o.windowNo[i] = now, window
	o.mu.Unlock()
}

// onInterval ends spec i's open detailed window at the interval the core
// flushes when the window's run ends (sampled specs record no other
// interval, see windowMark). The skip to the next window is therefore
// not part of the window's span.
func (o *sweepObserver) onInterval(i int, _ string, iv obs.Interval) {
	now := time.Now()
	o.mu.Lock()
	if iv.Window == o.windowNo[i] {
		o.closeWindow(i, now)
	}
	o.mu.Unlock()
}

// closeWindow records spec i's open window ending at now; o.mu is held.
func (o *sweepObserver) closeWindow(i int, now time.Time) {
	if o.windowAt[i].IsZero() {
		return
	}
	o.windowMS = append(o.windowMS, msBetween(o.windowAt[i], now))
	o.tr.record("sim.window", o.trace, o.jobSpan[i], o.windowAt[i], now)
	o.windowAt[i] = time.Time{}
}

// sweep runs specs on r, installing the timing hooks. Window and interval
// hooks are installed only on traced sweeps.
func sweep(ctx context.Context, r *sim.Runner, specs []sim.Spec, tr *tracer, parent uint64, trace string) (*sweepRun, error) {
	id := tr.open("sweep", trace, parent)
	o := &sweepObserver{
		tr: tr, parent: id, trace: trace,
		start: make([]time.Time, len(specs)), finish: make([]time.Time, len(specs)),
		jobSpan: make([]uint64, len(specs)), windowAt: make([]time.Time, len(specs)),
		windowNo: make([]int, len(specs)),
	}
	r.Observer = o
	if tr != nil {
		r.OnWindow, r.OnInterval = o.onWindow, o.onInterval
	} else {
		r.OnWindow, r.OnInterval = nil, nil
	}
	t0 := time.Now()
	res, err := r.Run(ctx, specs)
	wall := time.Since(t0)
	tr.close(id)
	if res == nil {
		return nil, err // validation failed: nothing ran
	}
	sr := &sweepRun{res: res, wall: wall, windowMS: o.windowMS}
	for i := range specs {
		sr.latency = append(sr.latency, msBetween(t0, o.finish[i]))
		sr.jobMS = append(sr.jobMS, msBetween(o.start[i], o.finish[i]))
	}
	return sr, nil
}

// busy is the summed per-job wall time of the sweep.
func (s *sweepRun) busy() time.Duration {
	var t time.Duration
	for i := range s.res {
		t += s.res[i].Wall
	}
	return t
}
