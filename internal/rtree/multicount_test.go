package rtree

import (
	"math/rand"
	"testing"
)

// randRadii returns an ascending radius schedule mixing tiny, mid and
// beyond-diameter values, optionally with duplicates.
func randRadii(rng *rand.Rand, a float64) []float64 {
	n := 1 + rng.Intn(16)
	radii := make([]float64, n)
	r := a * (0.001 + rng.Float64()*0.01)
	for e := range radii {
		radii[e] = r
		if rng.Intn(6) > 0 {
			r *= 1.3 + rng.Float64()*1.5
		}
	}
	return radii
}

// foldShapeRadii returns a 40-radius ascending schedule from tiny to
// beyond the diameter of randPoints' cube, with runs of repeated radii —
// long windows for the dual joins' leaf-scan tallies.
func foldShapeRadii(rng *rand.Rand) []float64 {
	radii := make([]float64, 40)
	r := 0.05
	for e := range radii {
		radii[e] = r
		if rng.Intn(5) > 0 {
			r *= 1.25
		}
	}
	return radii
}

// foldShapePoints returns uniform points plus three clusters of 220
// copies of one point each, so every fanout packs some leaves (and the
// kd-tree some small subtrees) entirely of duplicates.
func foldShapePoints(rng *rand.Rand, dim int) [][]float64 {
	pts := randPoints(rng, 200, dim)
	for c := 0; c < 3; c++ {
		p := randPoints(rng, 1, dim)[0]
		for i := 0; i < 220; i++ {
			pts = append(pts, append([]float64(nil), p...))
		}
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// TestRangeCountMultiMatchesRepeatedRangeCount is the batched-counting
// contract: one traversal must return exactly [RangeCount(r) for r in
// radii], across fanouts that make the tree tall and flat.
func TestRangeCountMultiMatchesRepeatedRangeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 25; trial++ {
		n := 30 + rng.Intn(400)
		dim := 1 + rng.Intn(4)
		pts := randPoints(rng, n, dim)
		for i := rng.Intn(20); i > 0; i-- {
			pts = append(pts, append([]float64(nil), pts[rng.Intn(len(pts))]...))
		}
		fanout := []int{0, 4, 64}[trial%3]
		tr := New(pts, fanout)
		for q := 0; q < 12; q++ {
			query := pts[rng.Intn(len(pts))]
			if q%3 == 0 {
				query = randPoints(rng, 1, dim)[0]
			}
			radii := randRadii(rng, 150)
			got := tr.RangeCountMulti(query, radii)
			for e, r := range radii {
				if want := tr.RangeCount(query, r); got[e] != want {
					t.Fatalf("trial %d: RangeCountMulti[%d] (r=%v) = %d, want RangeCount = %d",
						trial, e, r, got[e], want)
				}
			}
		}
	}
}

func TestRangeCountMultiEdges(t *testing.T) {
	tr := New([][]float64{{0, 0}, {1, 0}, {4, 0}}, 0)
	if got := tr.RangeCountMulti([]float64{0, 0}, nil); len(got) != 0 {
		t.Errorf("empty radii should give empty counts, got %v", got)
	}
	if got := tr.RangeCountMulti([]float64{0, 0}, []float64{2}); len(got) != 1 || got[0] != 2 {
		t.Errorf("single radius: got %v, want [2]", got)
	}
	empty := New(nil, 0)
	if got := empty.RangeCountMulti([]float64{0, 0}, []float64{1, 2}); got[0] != 0 || got[1] != 0 {
		t.Errorf("empty tree should count 0 everywhere, got %v", got)
	}
}

func TestRangeQueryAppendReusesBuffer(t *testing.T) {
	pts := [][]float64{{0, 0}, {1, 0}, {9, 9}}
	tr := New(pts, 0)
	buf := make([]int, 0, 8)
	got := tr.RangeQueryAppend([]float64{0, 0}, 1.5, buf)
	if len(got) != 2 || cap(got) != 8 {
		t.Errorf("RangeQueryAppend = %v (cap %d), want 2 ids in the caller's buffer", got, cap(got))
	}
}
