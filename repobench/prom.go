package main

import (
	"bufio"
	"strconv"
	"strings"
)

// promSample is one parsed /metrics exposition: series ("name" or
// "name{labels}") to value.
type promSample map[string]float64

// parseProm parses the Prometheus text exposition format the daemons
// serve. Comment lines and lines that do not end in a number are skipped.
func parseProm(text string) promSample {
	out := make(promSample)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// Label values may contain spaces, so a labelled series ends at
		// its closing brace; the value is the next field (a timestamp
		// may follow it).
		var series, rest string
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				continue
			}
			series, rest = line[:j+1], line[j+1:]
		} else {
			series, rest, _ = strings.Cut(line, " ")
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			continue
		}
		out[series] = v
	}
	return out
}

// seriesName strips the label set from a series.
func seriesName(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// sum adds every series of metric name.
func (p promSample) sum(name string) float64 {
	var t float64
	for s, v := range p {
		if seriesName(s) == name {
			t += v
		}
	}
	return t
}

// delta returns after minus before for every series in after; a series
// absent before counts from zero.
func promDelta(before, after promSample) promSample {
	out := make(promSample, len(after))
	for s, v := range after {
		out[s] = v - before[s]
	}
	return out
}
