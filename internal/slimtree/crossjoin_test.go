package slimtree

import (
	"fmt"
	"math/rand"
	"testing"

	"mccatch/internal/metric"
)

// bruteFirstsDist is the brute-force oracle for the cross join under any
// metric: for every query, the index of the first radius at or above the
// distance to its nearest indexed element, or len(radii) when even the
// largest radius falls short. Comparisons happen on plain distances, the
// domain every slim-tree query path uses.
func bruteFirstsDist[T any](dist metric.Distance[T], in, queries []T, radii []float64) []int {
	firsts := make([]int, len(queries))
	for i, q := range queries {
		e := len(radii)
		for _, p := range in {
			d := dist(q, p)
			b := 0
			for b < e && d > radii[b] {
				b++
			}
			if b < e {
				e = b
			}
		}
		firsts[i] = e
	}
	return firsts
}

var crossWorkerCounts = []int{1, 2, 8}

func assertBridgeFirstsMatch[T any](t *testing.T, label string, tr *Tree[T], dist metric.Distance[T], in, queries []T, radii []float64) {
	t.Helper()
	want := bruteFirstsDist(dist, in, queries, radii)
	for _, workers := range crossWorkerCounts {
		got := tr.BridgeFirsts(queries, radii, workers)
		if len(got) != len(want) {
			t.Fatalf("%s (workers=%d): %d results, want %d", label, workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s (workers=%d): firsts[%d] = %d, want %d",
					label, workers, i, got[i], want[i])
			}
		}
	}
}

func TestBridgeFirstsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
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
		// Small capacities force deep trees.
		tr := New(metric.Euclidean, []int{0, 4, 8}[rng.Intn(3)], in)
		assertBridgeFirstsMatch(t, fmt.Sprintf("trial%d", trial), tr, metric.Euclidean, in, queries, randRadii(rng, 150))
	}
}

func TestBridgeFirstsStrings(t *testing.T) {
	// The nondimensional path: edit distance over words, queries far from
	// and near to the indexed stems.
	rng := rand.New(rand.NewSource(68))
	var in, queries []string
	for i := 0; i < 150; i++ {
		stem := []byte("microclustering")
		for j := rng.Intn(4); j > 0; j-- {
			stem[rng.Intn(len(stem))] = byte('a' + rng.Intn(26))
		}
		in = append(in, string(stem[:8+rng.Intn(7)]))
	}
	for i := 0; i < 25; i++ {
		stem := []byte("microclustering")
		for j := rng.Intn(6); j > 0; j-- {
			stem[rng.Intn(len(stem))] = byte('a' + rng.Intn(26))
		}
		queries = append(queries, string(stem[:6+rng.Intn(9)]))
	}
	for i := 0; i < 8; i++ { // far-off digit words
		w := make([]byte, 18+rng.Intn(8))
		for j := range w {
			w[j] = byte('0' + rng.Intn(10))
		}
		queries = append(queries, string(w))
	}
	tr := New(metric.Levenshtein, 0, in)
	assertBridgeFirstsMatch(t, "strings", tr, metric.Levenshtein, in, queries,
		[]float64{0.5, 1, 2, 3, 5, 8, 13, 21})
}

func TestBridgeFirstsEdges(t *testing.T) {
	in := [][]float64{{0, 0}, {1, 0}}
	tr := New(metric.Euclidean, 0, in)
	if got := tr.BridgeFirsts(nil, []float64{1, 2}, 1); len(got) != 0 {
		t.Errorf("no queries: got %v, want empty", got)
	}
	if got := tr.BridgeFirsts([][]float64{{5, 5}}, nil, 1); len(got) != 1 || got[0] != 0 {
		t.Errorf("empty radii: got %v, want [0]", got)
	}
	empty := New(metric.Euclidean, 0, nil)
	if got := empty.BridgeFirsts([][]float64{{1, 1}}, []float64{1, 2}, 1); len(got) != 1 || got[0] != 2 {
		t.Errorf("empty tree: got %v, want [len(radii)]", got)
	}
	one := New(metric.Euclidean, 0, [][]float64{{0, 0}})
	got := one.BridgeFirsts([][]float64{{100, 0}, {0.5, 0}, {0, 0}}, []float64{1, 2, 4}, 1)
	if got[0] != 3 || got[1] != 0 || got[2] != 0 {
		t.Errorf("single indexed element: got %v, want [3 0 0]", got)
	}
}

// TestBridgeFirstsRepeatable guards accumulator reuse: repeated calls on
// the same tree must agree with each other at every worker count.
func TestBridgeFirstsRepeatable(t *testing.T) {
	rng := rand.New(rand.NewSource(69))
	in := randPoints(rng, 300, 2)
	queries := randPoints(rng, 60, 2)
	tr := New(metric.Euclidean, 0, in)
	radii := randRadii(rng, 150)
	first := tr.BridgeFirsts(queries, radii, 1)
	second := tr.BridgeFirsts(queries, radii, 4)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("second call differs at %d: %d vs %d", i, first[i], second[i])
		}
	}
}
