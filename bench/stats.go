package main

import (
	"math"
	"sort"
)

// summary is a metric's value over a run's rounds: the median is the
// reported value, min/max/n are printed beside it.
type summary struct {
	median, min, max float64
	n                int
}

func summarize(vals []float64) summary {
	if len(vals) == 0 {
		return summary{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return summary{median: medianSorted(s), min: s[0], max: s[len(s)-1], n: len(s)}
}

func medianSorted(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func median(vals []float64) float64 { return summarize(vals).median }

// nearestRank is the index of the nearest-rank percentile p among n > 0
// ascending samples: the smallest one with at least p of the samples at or
// below it.
func nearestRank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n)))-1, 0), n-1)
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return s[nearestRank(len(s), p)]
}

// quartileSpread is (Q3 − Q1) ÷ median with the quartiles computed as
// Python's statistics.quantiles(values, n=4) computes them (the exclusive
// method), which is how the benchmark's acceptance measures steadiness.
func quartileSpread(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := medianSorted(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
