package main

import (
	"sort"
	"time"
)

// samples is a set of measurements of one quantity.
type samples []float64

// sorted returns a sorted copy.
func (s samples) sorted() samples {
	c := append(samples(nil), s...)
	sort.Float64s(c)
	return c
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100): the
// smallest sample with at least p% of all samples at or below it. It is
// 0 for an empty set.
func (s samples) percentile(p int) float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sorted()[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n
// samples, ⌈p·n/100⌉ clamped to [1, n], in integer arithmetic so that
// p = 99 of n = 1000 is rank 990 exactly.
func nearestRank(n, p int) int {
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tail is how many samples lie beyond the p-th percentile of n samples.
// A percentile is reported only when at least ten do.
func tail(n, p int) int { return n - nearestRank(n, p) }

// median returns the middle sample, or the mean of the two middle
// samples of an even-sized set; 0 for an empty set.
func (s samples) median() float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	c := s.sorted()
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// sum returns the total of all samples.
func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// max returns the largest sample; 0 for an empty set.
func (s samples) max() float64 {
	m := 0.0
	for i, v := range s {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// mb is the byte count of the MB unit the memory metrics report in.
const mb = 1e6
