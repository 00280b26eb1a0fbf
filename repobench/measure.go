package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tailLadder is the set of percentiles a tail latency is reported at;
// tailPercentile picks the highest one the sample count supports.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// rankIndex is the nearest-rank index of percentile p in n sorted samples.
func rankIndex(p float64, n int) int {
	// The epsilon keeps binary rounding (99.9% of 10000 computes as
	// 9990.000000000002) from moving the rank up.
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// tailPercentile returns the highest percentile of tailLadder that leaves
// at least ten of n samples strictly beyond its nearest-rank sample, so a
// tail figure is never one or two outliers. With fewer than twenty
// samples no ladder step qualifies and the maximum (100) is returned with
// ok false.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-1-rankIndex(p, n) >= 10 {
			return p, true
		}
	}
	return 100, false
}

// percentile returns the nearest-rank percentile p of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(p, len(s))]
}

// median returns the middle value of xs, averaging the two middle values
// of an even count (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail summarises a latency sample: median, tail value, and which
// percentile the tail is at.
type tail struct {
	P50, Tail, Pct float64
	N              int
}

func summarize(ms []float64) tail {
	p, _ := tailPercentile(len(ms))
	return tail{P50: median(ms), Tail: percentile(ms, p), Pct: p, N: len(ms)}
}

// medianOfRounds returns the median across rounds of each round's p50
// and tail. Rounds are the same work, so they share a tail percentile.
func medianOfRounds(rs []tail) tail {
	var p50, tl []float64
	for _, r := range rs {
		p50, tl = append(p50, r.P50), append(tl, r.Tail)
	}
	out := tail{P50: median(p50), Tail: median(tl)}
	if len(rs) > 0 {
		out.Pct, out.N = rs[0].Pct, rs[0].N
	}
	return out
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB returns the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// goRuntime is a snapshot of the Go runtime counters the go.* layer
// metrics are deltas of.
type goRuntime struct{ allocBytes, gcCycles, gcCPU float64 }

func readGoRuntime() goRuntime {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return goRuntime{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// addGoDeltas writes the go.* layer metrics for the interval since before.
func addGoDeltas(m map[string]float64, before goRuntime) {
	after := readGoRuntime()
	m["go.alloc_mb"] += (after.allocBytes - before.allocBytes) / (1 << 20)
	m["go.gc_cycles"] += after.gcCycles - before.gcCycles
	m["go.gc_cpu_s"] += after.gcCPU - before.gcCPU
}

// joinFloats formats xs for the summary line.
func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, ",")
}
