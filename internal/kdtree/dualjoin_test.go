package kdtree

import (
	"fmt"
	"math/rand"
	"testing"
)

// assertCountAllMatches checks the dual-tree self-join contract: for every
// indexed point and every radius, CountAllMulti must equal the per-point
// RangeCount — for every worker count.
func assertCountAllMatches(t *testing.T, label string, tr *Tree, pts [][]float64, radii []float64) {
	t.Helper()
	for _, workers := range []int{1, 4} {
		got := tr.CountAllMulti(radii, workers)
		if len(got) != len(radii) {
			t.Fatalf("%s: %d rows, want %d", label, len(got), len(radii))
		}
		for e, r := range radii {
			for i, p := range pts {
				if want := tr.RangeCount(p, r); got[e][i] != want {
					t.Fatalf("%s (workers=%d): counts[%d][%d] (r=%v) = %d, want RangeCount = %d",
						label, workers, e, i, r, got[e][i], want)
				}
			}
		}
	}
}

func TestCountAllMultiMatchesRangeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		n := 20 + rng.Intn(400)
		dim := 1 + rng.Intn(4)
		pts := randPoints(rng, n, dim)
		for i := rng.Intn(25); i > 0; i-- { // duplicates stress zero distances
			pts = append(pts, append([]float64(nil), pts[rng.Intn(len(pts))]...))
		}
		tr := New(pts)
		assertCountAllMatches(t, fmt.Sprintf("trial%d", trial), tr, pts, randRadii(rng, 150))
	}
}

func TestCountAllMultiClustered(t *testing.T) {
	// Clustered data exercises the wholesale box-vs-box credits that
	// uniform data rarely triggers at small radii.
	rng := rand.New(rand.NewSource(42))
	var pts [][]float64
	for b := 0; b < 6; b++ {
		cx, cy := rng.Float64()*100, rng.Float64()*100
		for i := 0; i < 60; i++ {
			pts = append(pts, []float64{cx + rng.NormFloat64()*0.5, cy + rng.NormFloat64()*0.5})
		}
	}
	tr := New(pts)
	assertCountAllMatches(t, "clustered", tr, pts, []float64{0.1, 1, 5, 40, 100, 200})
}

func TestCountAllMultiEdges(t *testing.T) {
	empty := New(nil)
	if got := empty.CountAllMulti([]float64{1, 2}, 1); len(got) != 2 || len(got[0]) != 0 {
		t.Errorf("empty tree: got %v, want two empty rows", got)
	}
	tr := New([][]float64{{0, 0}, {3, 0}})
	if got := tr.CountAllMulti(nil, 1); len(got) != 0 {
		t.Errorf("empty radii: got %v, want no rows", got)
	}
	one := New([][]float64{{7, 7}})
	if got := one.CountAllMulti([]float64{0, 5}, 1); got[0][0] != 1 || got[1][0] != 1 {
		t.Errorf("singleton: got %v, want all-1", got)
	}
	dup := New([][]float64{{5, 5}, {5, 5}, {5, 5}})
	got := dup.CountAllMulti([]float64{0, 1}, 1)
	for e := range got {
		for i := range got[e] {
			if got[e][i] != 3 {
				t.Errorf("duplicates: counts[%d][%d] = %d, want 3", e, i, got[e][i])
			}
		}
	}
}

// TestCountAllMultiRepeatable guards the scratch-space cleanup: a second
// call on the same tree must see clean accumulators and return the same
// matrix.
func TestCountAllMultiRepeatable(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pts := randPoints(rng, 300, 2)
	tr := New(pts)
	radii := randRadii(rng, 150)
	first := tr.CountAllMulti(radii, 1)
	second := tr.CountAllMulti(radii, 2)
	for e := range first {
		for i := range first[e] {
			if first[e][i] != second[e][i] {
				t.Fatalf("second call differs at [%d][%d]: %d vs %d", e, i, first[e][i], second[e][i])
			}
		}
	}
}

// TestCountAllMultiFoldShapes covers the shapes the leaf-scan fold
// tallies over: a 40-radius schedule with repeated radii and small
// subtrees made entirely of duplicate points.
func TestCountAllMultiFoldShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	pts := foldShapePoints(rng, 3)
	assertCountAllMatches(t, "foldShapes", New(pts), pts, foldShapeRadii(rng))
}
