package rtree

import (
	"fmt"
	"math/rand"
	"testing"

	"mccatch/internal/metric"
)

// bruteCrossCounts is the brute-force oracle for the cross count join:
// counts[e][i] = indexed points within radii[e] of queries[i], compared
// on squared distances — the domain every R-tree query path uses.
func bruteCrossCounts(in, queries [][]float64, radii []float64) [][]int {
	counts := make([][]int, len(radii))
	for e := range counts {
		counts[e] = make([]int, len(queries))
	}
	for i, q := range queries {
		for _, p := range in {
			d2 := metric.SquaredEuclidean(q, p)
			for e, r := range radii {
				if d2 <= r*r {
					counts[e][i]++
				}
			}
		}
	}
	return counts
}

func assertCrossCountsMatch(t *testing.T, label string, tr *Tree, in, queries [][]float64, radii []float64) {
	t.Helper()
	want := bruteCrossCounts(in, queries, radii)
	for _, workers := range crossWorkerCounts {
		got := tr.CountCrossMulti(queries, radii, workers)
		if len(got) != len(want) {
			t.Fatalf("%s (workers=%d): %d rows, want %d", label, workers, len(got), len(want))
		}
		for e := range want {
			for i := range want[e] {
				if got[e][i] != want[e][i] {
					t.Fatalf("%s (workers=%d): counts[%d][%d] = %d, want %d (query %v)",
						label, workers, e, i, got[e][i], want[e][i], queries[i])
				}
			}
		}
	}
}

func TestCountCrossMultiMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(400)
		dim := 1 + rng.Intn(4)
		in := randPoints(rng, n, dim)
		queries := randPoints(rng, rng.Intn(80), dim)
		for i := rng.Intn(10); i > 0; i-- {
			queries = append(queries, append([]float64(nil), in[rng.Intn(len(in))]...))
		}
		tr := New(in, 0)
		assertCrossCountsMatch(t, fmt.Sprintf("trial%d", trial), tr, in, queries, randRadii(rng, 150))
	}
}

func TestCountCrossMultiClustered(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	var in, queries [][]float64
	for b := 0; b < 5; b++ {
		cx, cy := rng.Float64()*50, rng.Float64()*50
		for i := 0; i < 50; i++ {
			in = append(in, []float64{cx + rng.NormFloat64()*0.5, cy + rng.NormFloat64()*0.5})
		}
	}
	for b := 0; b < 8; b++ {
		cx, cy := 100+rng.Float64()*200, 100+rng.Float64()*200
		for i := 0; i < 6; i++ {
			queries = append(queries, []float64{cx + rng.NormFloat64()*0.3, cy + rng.NormFloat64()*0.3})
		}
	}
	tr := New(in, 0)
	assertCrossCountsMatch(t, "clustered", tr, in, queries,
		[]float64{0.1, 1, 5, 20, 80, 160, 320, 640})
}

func TestCountCrossMultiEdges(t *testing.T) {
	in := [][]float64{{0, 0}, {1, 0}}
	tr := New(in, 0)
	if got := tr.CountCrossMulti(nil, []float64{1, 2}, 1); len(got) != 2 || len(got[0]) != 0 {
		t.Errorf("no queries: got %v, want two empty rows", got)
	}
	if got := tr.CountCrossMulti([][]float64{{5, 5}}, nil, 1); len(got) != 0 {
		t.Errorf("empty radii: got %v, want no rows", got)
	}
	empty := New(nil, 0)
	got := empty.CountCrossMulti([][]float64{{1, 1}}, []float64{1, 2}, 1)
	if len(got) != 2 || got[0][0] != 0 || got[1][0] != 0 {
		t.Errorf("empty tree: got %v, want zero counts", got)
	}
}

// TestCountCrossMultiFoldShapes is the cross-join twin of
// TestCountAllMultiFoldShapes: wide leaves on both trees, a 40-radius
// schedule with repeats, and duplicate-only leaves among both the
// indexed points and the queries.
func TestCountCrossMultiFoldShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	in := foldShapePoints(rng, 3)
	queries := append(foldShapePoints(rng, 3)[:300], in[:150]...)
	radii := foldShapeRadii(rng)
	for _, fanout := range []int{100, 4, 0} {
		assertCrossCountsMatch(t, fmt.Sprintf("fanout%d", fanout), New(in, fanout), in, queries, radii)
	}
}
