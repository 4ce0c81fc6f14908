package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the exclusive
// method (Python's statistics.quantiles default), so the spreads this
// program prints match the ones computed over its runs. Fewer than two
// values return the lone value (or 0) twice.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		if len(xs) == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n, m := len(s), len(s)+1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// tailLevels are the percentiles a tail latency may be reported at, highest
// first. p99 is the top: the metric names promise no more.
var tailLevels = []float64{99, 95, 90}

// tail applies the reporting rule for timings: report the highest percentile
// that still has at least ten samples beyond it. It returns that percentile
// and its nearest-rank value; with too few samples for any tail level
// (fewer than 100) only the median can be reported, and tail returns 50 and
// the median.
func tail(xs []float64) (pct, value float64) {
	n := len(xs)
	for _, p := range tailLevels {
		if float64(n)*(100-p)/100 >= 10 {
			s := slices.Clone(xs)
			sort.Float64s(s)
			rank := int(math.Ceil(p * float64(n) / 100))
			return p, s[rank-1]
		}
	}
	return 50, median(xs)
}

// maxTailGroups bounds how many groups groupedTail splits samples into.
const maxTailGroups = 5

// groupedTail is the tail rule made robust to one burst of interference:
// xs, in arrival order, is cut into consecutive groups of at least 1000
// samples (at most maxTailGroups, at least one), tail is applied to each
// group, and the median of the group tails is returned with the first
// group's percentile and the group count. Below 2000 samples it is tail.
func groupedTail(xs []float64) (pct, value float64, groups int) {
	groups = min(max(len(xs)/1000, 1), maxTailGroups)
	size := len(xs) / groups
	vals := make([]float64, groups)
	for g := range vals {
		end := (g + 1) * size
		if g == groups-1 {
			end = len(xs)
		}
		p, v := tail(xs[g*size : end])
		if g == 0 {
			pct = p
		}
		vals[g] = v
	}
	return pct, median(vals), groups
}

// interval is a closed-open time range, in nanoseconds since a common origin.
type interval struct{ start, end int64 }

// selfTime is the part of parent not covered by any child interval: the
// parent's duration minus the union of its children's intervals clipped to
// the parent. Overlapping children (a retried request racing its
// predecessor, concurrent fan-out) are counted once.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered := int64(0)
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return time.Duration(parent.end - parent.start - covered)
}
