package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile for the
// benchmark to report it: with fewer, one stall decides the figure.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or
// below it.  It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// supports reports whether n samples leave at least minTail samples
// beyond the p-th percentile.
func supports(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minTail-1e-9 // 100-99.9 is not exact in binary
}

// highestPercentile returns the highest of the usual reporting
// percentiles that n samples support, or 0 when even the median is not
// supported.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 99, 99.9, 99.99} {
		if supports(n, p) {
			best = p
		}
	}
	return best
}

// median returns the median of xs (the mean of the middle pair for an
// even count), leaving xs unsorted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// supportedPercentile returns the p-th percentile of xs, or 0 when
// fewer than minTail samples lie beyond it.
func supportedPercentile(xs []float64, p float64) float64 {
	if !supports(len(xs), p) {
		return 0
	}
	return percentile(sortedCopy(xs), p)
}

// latencies collects one request class's latencies in milliseconds.
type latencies struct{ ms []float64 }

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, durMS(d)) }

func durMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// dueLatency is the latency of an open-loop request: from the time it
// was due to be sent, not the time it was sent, so a stall that delays
// later sends is charged to every request it delayed.
func dueLatency(due, done time.Time) time.Duration { return done.Sub(due) }

// generatorLag is how late the load generator itself sent a request: the
// send time minus the earliest time it could have sent, which is the due
// time or, on a connection with one request in flight, the completion of
// the previous request.  Lag from the system under test (a slow previous
// reply) is excluded; lag left over is the generator falling behind.
func generatorLag(due, prevDone, sent time.Time) time.Duration {
	ready := due
	if prevDone.After(ready) {
		ready = prevDone
	}
	if sent.Before(ready) {
		return 0
	}
	return sent.Sub(ready)
}

// interval is a half-open time span [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// unionWithin returns how much of [outer.start, outer.end) the union of
// spans covers; overlapping spans are counted once.
func unionWithin(outer interval, spans []interval) int64 {
	clipped := make([]interval, 0, len(spans))
	for _, s := range spans {
		s.start = max(s.start, outer.start)
		s.end = min(s.end, outer.end)
		if s.end > s.start {
			clipped = append(clipped, s)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered, curStart, curEnd int64
	open := false
	for _, s := range clipped {
		switch {
		case !open:
			curStart, curEnd, open = s.start, s.end, true
		case s.start <= curEnd:
			curEnd = max(curEnd, s.end)
		default:
			covered += curEnd - curStart
			curStart, curEnd = s.start, s.end
		}
	}
	if open {
		covered += curEnd - curStart
	}
	return covered
}

// selfTime is a span's duration minus the part of it its children
// cover; children may overlap one another.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - unionWithin(parent, children)
}
