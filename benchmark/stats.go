package main

import (
	"math"
	"sort"
)

// stat summarizes the samples of one metric.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize computes median and quartiles of samples. An exact count is a
// single sample: all three equal it.
func summarize(samples []float64) stat {
	if len(samples) == 0 {
		return stat{}
	}
	q1, med, q3 := quartiles(samples)
	return stat{Median: med, Q1: q1, Q3: q3, N: len(samples)}
}

// spread is the interquartile distance as a share of the median, the
// run-to-run noise measure the comparator sets against a metric's bound.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(v, n=4) (the "exclusive" method), so spreads
// computed here agree with the driver's.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(v []float64, p float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}
