package slimtree

import (
	"fmt"
	"math/rand"
	"testing"

	"mccatch/internal/metric"
)

// bruteCrossCountsDist is the brute-force oracle for the cross count
// join under any metric: counts[e][i] = indexed elements within
// radii[e] of queries[i], compared on plain distances — the domain
// every slim-tree query path uses.
func bruteCrossCountsDist[T any](dist metric.Distance[T], in, queries []T, radii []float64) [][]int {
	counts := make([][]int, len(radii))
	for e := range counts {
		counts[e] = make([]int, len(queries))
	}
	for i, q := range queries {
		for _, p := range in {
			d := dist(q, p)
			for e, r := range radii {
				if d <= r {
					counts[e][i]++
				}
			}
		}
	}
	return counts
}

func assertCrossCountsMatch[T any](t *testing.T, label string, tr *Tree[T], dist metric.Distance[T], in, queries []T, radii []float64) {
	t.Helper()
	want := bruteCrossCountsDist(dist, in, queries, radii)
	for _, workers := range crossWorkerCounts {
		got := tr.CountCrossMulti(queries, radii, workers)
		if len(got) != len(want) {
			t.Fatalf("%s (workers=%d): %d rows, want %d", label, workers, len(got), len(want))
		}
		for e := range want {
			for i := range want[e] {
				if got[e][i] != want[e][i] {
					t.Fatalf("%s (workers=%d): counts[%d][%d] = %d, want %d",
						label, workers, e, i, got[e][i], want[e][i])
				}
			}
		}
	}
}

func TestCountCrossMultiMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	trials := 10
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(300)
		dim := 1 + rng.Intn(3)
		in := randPoints(rng, n, dim)
		queries := randPoints(rng, rng.Intn(60), dim)
		for i := rng.Intn(8); i > 0; i-- {
			queries = append(queries, append([]float64(nil), in[rng.Intn(len(in))]...))
		}
		tr := New(metric.Euclidean, 8, in)
		assertCrossCountsMatch(t, fmt.Sprintf("trial%d", trial), tr, metric.Euclidean, in, queries, randRadii(rng, 150))
	}
}

func TestCountCrossMultiStrings(t *testing.T) {
	in := []string{"book", "books", "boo", "cook", "cooks", "hook",
		"graph", "graphs", "graphite", "telescope", "telescopes", "microscope"}
	queries := []string{"book", "crook", "graph", "microscopes", "zzzzzzzzzz", ""}
	tr := New(metric.Levenshtein, 0, in)
	assertCrossCountsMatch(t, "strings", tr, metric.Levenshtein, in, queries,
		[]float64{0, 1, 2, 4, 8, 16})
}

func TestCountCrossMultiEdges(t *testing.T) {
	in := [][]float64{{0, 0}, {1, 0}}
	tr := New(metric.Euclidean, 8, in)
	if got := tr.CountCrossMulti(nil, []float64{1, 2}, 1); len(got) != 2 || len(got[0]) != 0 {
		t.Errorf("no queries: got %v, want two empty rows", got)
	}
	if got := tr.CountCrossMulti([][]float64{{5, 5}}, nil, 1); len(got) != 0 {
		t.Errorf("empty radii: got %v, want no rows", got)
	}
	empty := New[[]float64](metric.Euclidean, 8, nil)
	got := empty.CountCrossMulti([][]float64{{1, 1}}, []float64{1, 2}, 1)
	if len(got) != 2 || got[0][0] != 0 || got[1][0] != 0 {
		t.Errorf("empty tree: got %v, want zero counts", got)
	}
}
