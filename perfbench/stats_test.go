package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- { // unsorted on purpose
		s = append(s, float64(i))
	}
	for _, c := range []struct {
		p    int
		want float64
	}{{1, 1}, {50, 50}, {90, 90}, {99, 99}, {100, 100}} {
		if got := s.percentile(c.p); got != c.want {
			t.Errorf("p%d of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := (samples{7, 3, 5}).percentile(50); got != 5 {
		t.Errorf("p50 of {3,5,7} = %v, want 5", got)
	}
	if got := (samples{4, 1}).percentile(50); got != 1 {
		t.Errorf("p50 of {1,4} = %v, want the lower sample 1", got)
	}
	if got := (samples{}).percentile(99); got != 0 {
		t.Errorf("p99 of nothing = %v, want 0", got)
	}
}

func TestNearestRankAndTail(t *testing.T) {
	for _, c := range []struct{ n, p, rank, tail int }{
		{1000, 99, 990, 10}, // exactly ten beyond: the least a p99 needs
		{999, 99, 990, 9},
		{1050, 99, 1040, 10},
		{100, 99, 99, 1},
		{10, 50, 5, 5},
		{1, 99, 1, 0},
	} {
		if r := nearestRank(c.n, c.p); r != c.rank {
			t.Errorf("nearestRank(%d, %d) = %d, want %d", c.n, c.p, r, c.rank)
		}
		if tl := tail(c.n, c.p); tl != c.tail {
			t.Errorf("tail(%d, %d) = %d, want %d", c.n, c.p, tl, c.tail)
		}
	}
}

func TestMedianSumMax(t *testing.T) {
	if m := (samples{3, 1, 2}).median(); m != 2 {
		t.Errorf("median of {1,2,3} = %v", m)
	}
	if m := (samples{4, 1, 3, 2}).median(); m != 2.5 {
		t.Errorf("median of {1,2,3,4} = %v, want 2.5", m)
	}
	if m := (samples{}).median(); m != 0 {
		t.Errorf("median of nothing = %v", m)
	}
	s := samples{-1, -3, -2}
	if s.sum() != -6 || s.max() != -1 {
		t.Errorf("sum/max of {-1,-3,-2} = %v/%v", s.sum(), s.max())
	}
}

func TestUnitConversions(t *testing.T) {
	d := 1500 * time.Microsecond
	if millis(d) != 1.5 || micros(d) != 1500 {
		t.Errorf("1.5ms converts to %v ms, %v us", millis(d), micros(d))
	}
}
