package main

import (
	"math"
	"testing"
	"time"
)

func TestMedianAndQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{nil, 0, 0, 0},
		{[]float64{7}, 7, 7, 7},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		// Matches Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 2.75, 8.25},
	} {
		if got := median(tc.xs); got != tc.med {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.med)
		}
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	quartiles(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("inputs reordered: %v", xs)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: tail must sort
	}
	return xs
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n          int
		pct, value float64
	}{
		{1000, 99, 990}, // exactly ten samples beyond p99
		{999, 95, 950},  // 9.99 beyond p99 is not enough
		{200, 95, 190},
		{150, 90, 135},
		{100, 90, 90},
		{99, 50, 50}, // small sample: only the median
		{7, 50, 4},   // fewer than 20: still the median
		{20, 50, 10.5},
	} {
		pct, v := tail(seq(tc.n))
		if pct != tc.pct || math.Abs(v-tc.value) > 1e-9 {
			t.Errorf("tail(n=%d) = p%v %v, want p%v %v", tc.n, pct, v, tc.pct, tc.value)
		}
	}
}

func TestGroupedTail(t *testing.T) {
	// Below 2000 samples there is one group: the plain tail rule.
	if pct, v, g := groupedTail(seq(1500)); pct != 99 || v != 1485 || g != 1 {
		t.Errorf("groupedTail(n=1500) = p%v %v in %d groups, want p99 1485 in 1", pct, v, g)
	}
	// Five groups of 1000 with a burst of slow samples in one: the median
	// of the group p99s ignores the burst.
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = 1
		if i%1000 >= 980 {
			xs[i] = 2 // each group's top 20: its p99 reads 2
		}
	}
	for i := 1000; i < 2000; i++ {
		xs[i] = 100
	}
	if pct, v, g := groupedTail(xs); pct != 99 || v != 2 || g != 5 {
		t.Errorf("groupedTail(burst) = p%v %v in %d groups, want p99 2 in 5", pct, v, g)
	}
	// Never more than maxTailGroups groups; the remainder joins the last.
	if _, _, g := groupedTail(seq(12345)); g != maxTailGroups {
		t.Errorf("groupedTail(n=12345) used %d groups, want %d", g, maxTailGroups)
	}
}

func TestSelfTime(t *testing.T) {
	p := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping", []interval{{110, 150}, {140, 160}}, 50},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"unsorted", []interval{{150, 170}, {110, 120}, {115, 155}}, 40},
		{"clipped to parent", []interval{{50, 120}, {180, 260}}, 60},
		{"outside parent", []interval{{10, 90}, {210, 300}}, 100},
		{"covers parent", []interval{{0, 300}}, 0},
		{"touching", []interval{{110, 120}, {120, 130}}, 80},
	} {
		if got := selfTime(p, tc.children); got != time.Duration(tc.want) {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}
