package main

import (
	"fmt"
	"math"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true},
		{999, 99, false},
		{10000, 99.9, true},
		{9999, 99.9, false},
		{100, 90, true},
		{99, 90, false},
		{20, 50, true},
		{19, 50, false},
	}
	for _, c := range cases {
		if got := percentileOK(c.n, c.p); got != c.want {
			t.Errorf("percentileOK(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestTailPercentilePicksHighestSupported(t *testing.T) {
	cases := map[int]float64{
		100000: 99.9,
		10000:  99.9,
		9999:   99,
		1000:   99,
		999:    90,
		100:    90,
		99:     0,
	}
	for n, want := range cases {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %g, want %g", n, got, want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 99: 99, 100: 100, 1: 1, 0: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", p, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestMedianAndRatio(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if ratio(1, 0) != 0 || ratio(1, 4) != 0.25 {
		t.Error("ratio")
	}
}

func TestQuietDropsStolenUnits(t *testing.T) {
	var ds []stealDelta
	for _, st := range []int64{2, 30, 1, 35, 3, 28, 0, 12} {
		ds = append(ds, stealDelta{steal: st, total: 100})
	}
	// Steal at the median is 0.075, at the 25th percentile 0.01; one
	// tick is 0.01.
	for _, c := range []struct {
		pct  float64
		want []int
	}{{50, []int{0, 2, 4, 6}}, {25, []int{0, 2, 6}}} {
		got := quiet(ds, c.pct)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("quiet(p%g) = %v, want %v", c.pct, got, c.want)
		}
	}
	// A unit one tick above the threshold still counts as quiet.
	if got := quiet([]stealDelta{{0, 100}, {1, 100}, {0, 100}, {1, 100}}, 25); len(got) != 4 {
		t.Errorf("one-tick differences dropped units: %v", got)
	}
	if got := quiet([]stealDelta{{0, 0}, {0, 0}}, 25); len(got) != 2 {
		t.Errorf("with no steal every unit is quiet, got %v", got)
	}
	if got := pick([]float64{5, 6, 7}, []int{2, 0}); got[0] != 7 || got[1] != 5 {
		t.Errorf("pick = %v", got)
	}
}
