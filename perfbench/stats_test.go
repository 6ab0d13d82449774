package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[n-1-i] = float64(i + 1) // descending, so sorting is exercised
	}
	return v
}

func TestPercentileNearestRank(t *testing.T) {
	s := sortedCopy(seq(100))
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it, and the sample count comes with it.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		wantP  float64
		wantOK bool
	}{
		{10000, 99.9, true},
		{9999, 99, true},
		{1000, 99, true},
		{999, 95, true},
		{100, 90, true},
		{99, 75, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	} {
		p, v, n, ok := tailPercentile(seq(c.n))
		if p != c.wantP || ok != c.wantOK || n != c.n {
			t.Errorf("n=%d: got p%v ok=%v n=%d, want p%v ok=%v", c.n, p, ok, n, c.wantP, c.wantOK)
			continue
		}
		if ok {
			if above := c.n - int(v); above < minBeyond {
				t.Errorf("n=%d: p%v = %v leaves %d samples beyond", c.n, p, v, above)
			}
		}
	}
	if !supports(1000, 99) || supports(999, 99) || !supports(100, 90) || supports(99, 90) {
		t.Error("supports disagrees with the ten-beyond rule")
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// which judges run-to-run spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 7, 2}, [3]float64{1.625, 3.5, 8.0}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{5, 1, 4, 2, 3, 8, 7, 6, 9}, [3]float64{2.5, 5, 7.5}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianAndSpread(t *testing.T) {
	if m := median([]float64{5, 1, 4, 2, 3}); m != 3 {
		t.Errorf("odd median = %v", m)
	}
	if m := median(seq(10)); m != 5.5 {
		t.Errorf("even median = %v", m)
	}
	if s := spread(seq(10)); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
	if s := spread([]float64{2, 2, 2, 2}); s != 0 {
		t.Errorf("constant spread = %v", s)
	}
}
