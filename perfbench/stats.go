package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: a percentile with fewer is one outlier away from moving.
const minBeyond = 10

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 90}

// percentileOK reports whether n samples support percentile p: at least
// minBeyond of them lie above it.
func percentileOK(n int, p float64) bool {
	return n-rankOf(n, p) >= minBeyond
}

// rankOf is the 1-based nearest rank of percentile p among n samples.
// The epsilon keeps float error in p/100*n from bumping an exact rank.
func rankOf(n int, p float64) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// percentileBase states a percentile's sample support for a report.
func percentileBase(n int, p float64) string {
	verdict := "enough"
	if !percentileOK(n, p) {
		verdict = "too few"
	}
	return fmt.Sprintf("n=%d, %d beyond p%g (%s: %d required)", n, n-rankOf(n, p), p, verdict, minBeyond)
}

// tailPercentile picks the highest candidate percentile that n samples
// support, or 0 when none does.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if percentileOK(n, p) {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankOf(len(sorted), p)-1]
}

// median returns the median of xs (the mean of the middle pair for an
// even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio divides, returning 0 for an empty base so that a count with
// nothing to divide by prints as 0 rather than NaN.
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}

// quiet returns, in time order, the measurement units (sub-windows or
// Serve calls) in which the host's hypervisor stole no more CPU than in
// the unit at percentile pct of steal, give or take one tick. On a
// shared host other guests' bursts take up to a third of the CPU for
// minutes; the units they hit measure the neighbours, not the server.
// With no steal every unit is quiet.
func quiet(ds []stealDelta, pct float64) []int {
	shares := make([]float64, len(ds))
	totals := make([]float64, len(ds))
	for i, d := range ds {
		shares[i], totals[i] = d.share(), float64(d.total)
	}
	sorted := append([]float64(nil), shares...)
	sort.Float64s(sorted)
	limit := percentile(sorted, pct) + ratio(1, median(totals))
	var idx []int
	for i, s := range shares {
		if s <= limit {
			idx = append(idx, i)
		}
	}
	return idx
}

// pick returns xs at the given indices.
func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// quietBase describes a quiet-unit selection for a report.
func quietBase(unit string, idx []int, ds []stealDelta) string {
	shares := make([]float64, len(ds))
	for i, d := range ds {
		shares[i] = d.share() * 100
	}
	sort.Float64s(shares)
	return fmt.Sprintf("over the %d of %d %s with the least host steal (steal %% per unit: median %.1f, max %.1f)",
		len(idx), len(ds), unit, median(shares), shares[len(shares)-1])
}
