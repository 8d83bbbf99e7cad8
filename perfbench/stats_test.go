package main

import (
	"testing"
	"time"
)

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		self     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping", []interval{{10, 40}, {30, 60}}, 50},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
		{"unsorted", []interval{{70, 80}, {10, 40}, {35, 50}}, 50},
		{"clipped to parent", []interval{{-20, 10}, {90, 130}}, 80},
		{"outside parent", []interval{{100, 120}, {-5, 0}}, 100},
		{"covering", []interval{{0, 50}, {40, 100}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.self {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.self)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = 1
	}
	if v := supportedPercentile(xs, 90); v != 0 {
		t.Fatalf("p90 of 99 samples = %g, want 0: only 9 lie beyond it", v)
	}
	if v := supportedPercentile(append(xs, 2), 90); v != 1 {
		t.Fatalf("p90 of 100 samples = %g, want 1", v)
	}
}

func TestLatencyCountsFromTheDueTime(t *testing.T) {
	due := time.Unix(100, 0)
	// Sent 3 ms late because the previous reply arrived then; answered
	// 1 ms after that.
	prevDone := due.Add(3 * time.Millisecond)
	sent := prevDone
	done := sent.Add(time.Millisecond)
	if got := dueLatency(due, done); got != 4*time.Millisecond {
		t.Errorf("dueLatency = %v, want 4ms: the stall before the send counts", got)
	}
	if got := generatorLag(due, prevDone, sent); got != 0 {
		t.Errorf("generatorLag = %v, want 0: waiting for the system is not generator lag", got)
	}
	if got := generatorLag(due, due.Add(-time.Millisecond), due.Add(2*time.Millisecond)); got != 2*time.Millisecond {
		t.Errorf("generatorLag = %v, want 2ms: the connection was free at the due time", got)
	}
	if got := generatorLag(due, time.Time{}, due.Add(-time.Microsecond)); got != 0 {
		t.Errorf("generatorLag of an early send = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}
