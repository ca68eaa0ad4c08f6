package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail value:
// the tail is the highest percentile that still has this many samples
// beyond it, so it never rests on a handful of outliers.
const minBeyond = 10

// dist summarizes one latency sample set.
type dist struct {
	N      int
	P50    float64
	Tail   float64
	TailPc float64 // percentile the tail sits at; 100 means "max, too few samples"
}

// summarize returns the median and tail of xs (xs is not modified).
func summarize(xs []float64) dist {
	n := len(xs)
	if n == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: n, P50: median(s)}
	d.Tail, d.TailPc = tail(s)
	return d
}

// median of an ascending slice.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf sorts a copy of xs and returns its median.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

// tail returns the order statistic with exactly minBeyond samples above
// it, and its percentile 100·(n−minBeyond)/n. With too few samples for
// that, it returns the maximum and percentile 100.
func tail(s []float64) (value, pc float64) {
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n <= minBeyond {
		return s[n-1], 100
	}
	return s[n-1-minBeyond], 100 * float64(n-minBeyond) / float64(n)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// relDiff is |a−b| relative to the larger magnitude (0 when both are 0).
func relDiff(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
