package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mccatch/internal/index"
	"mccatch/internal/join"
	"mccatch/internal/kdtree"
	"mccatch/internal/metric"
	"mccatch/internal/rtree"
	"mccatch/internal/slimtree"
)

// The Step IV contract is that join.BridgeRadii's dual-tree path
// (index.CrossMultiCounter) returns exactly the firsts the per-point
// reference produces — for every backend, every element type, and every
// worker count. These property tests drive it through the join layer —
// native dispatch and all — on the random vector/string/point-set shapes
// the parallel-equivalence suite uses, splitting each dataset into
// "inliers" (indexed) and "outliers" (queries) the way core.scoreMCs
// does. Run under -race they also prove the cross-join's pooled
// accumulators are race-free. A second suite pins the end-to-end promise:
// hiding the cross-join capability from the pipeline must not change a
// single byte of the Result, so the throwaway outlier-side tree can
// never perturb scores, radii, or plateaus.

var bridgeWorkerCounts = []int{1, 2, 8}

// assertBridgeEquiv splits items deterministically into inliers and
// outliers (about the outlierEvery-th element each), indexes the inliers
// and compares the dual and per-point bridge searches on the pipeline's
// own radius schedule.
func assertBridgeEquiv[T any](t *testing.T, label string, items []T, build func([]T) index.Index[T], outlierEvery int) {
	t.Helper()
	var in, out []T
	for i, it := range items {
		if i%outlierEvery == 0 {
			out = append(out, it)
		} else {
			in = append(in, it)
		}
	}
	tr := build(in)
	if _, ok := tr.(index.CrossMultiCounter[T]); !ok {
		t.Fatalf("%s: backend does not implement index.CrossMultiCounter", label)
	}
	l := tr.DiameterEstimate()
	if l <= 0 {
		l = 1
	}
	radii := MakeRadii(l, DefaultNumRadii)
	want := join.BridgeRadiiPerPoint(tr, out, radii, 1)
	for _, workers := range bridgeWorkerCounts {
		got := join.BridgeRadii(tr, out, radii, workers)
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s (workers=%d): firsts[%d] = %d, want %d",
						label, workers, i, got[i], want[i])
				}
			}
			t.Fatalf("%s (workers=%d): dual and per-point results differ in shape", label, workers)
		}
	}
}

func TestBridgeRadiiEquivalenceVectorsAllBackends(t *testing.T) {
	backends := map[string]func(pts [][]float64) index.Index[[]float64]{
		"slimtree-bulk": func(pts [][]float64) index.Index[[]float64] {
			return slimtree.New(metric.Euclidean, 0, pts)
		},
		"kdtree": func(pts [][]float64) index.Index[[]float64] {
			return kdtree.New(pts)
		},
		"rtree": func(pts [][]float64) index.Index[[]float64] {
			return rtree.New(pts, 0)
		},
	}
	trials := 3
	if testing.Short() {
		trials = 1
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(3000 + trial)))
		pts := randomVectorDataset(rng)
		for name, build := range backends {
			assertBridgeEquiv(t, fmt.Sprintf("vectors/%s/trial%d", name, trial),
				pts, build, 7)
		}
	}
}

func TestBridgeRadiiEquivalenceStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	words := make([]string, 0, 240)
	for i := 0; i < 220; i++ {
		stem := []byte("microclustering")
		for j := rng.Intn(4); j > 0; j-- {
			stem[rng.Intn(len(stem))] = byte('a' + rng.Intn(26))
		}
		words = append(words, string(stem[:8+rng.Intn(7)]))
	}
	for i := 0; i < 12; i++ {
		w := make([]byte, 20+rng.Intn(10))
		for j := range w {
			w[j] = byte('0' + rng.Intn(10))
		}
		words = append(words, string(w))
	}
	assertBridgeEquiv(t, "strings/slimtree", words, func(in []string) index.Index[string] {
		return slimtree.New(metric.Levenshtein, 0, in)
	}, 9)
}

func TestBridgeRadiiEquivalencePointSets(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sets := make([]metric.PointSet, 0, 140)
	for i := 0; i < 130; i++ {
		cx, cy := rng.Float64()*10, rng.Float64()*10
		s := make(metric.PointSet, 3+rng.Intn(5))
		for j := range s {
			s[j] = []float64{cx + rng.NormFloat64()*0.3, cy + rng.NormFloat64()*0.3}
		}
		sets = append(sets, s)
	}
	for i := 0; i < 6; i++ {
		s := make(metric.PointSet, 3+rng.Intn(5))
		for j := range s {
			s[j] = []float64{100 + rng.Float64(), 100 + rng.Float64()}
		}
		sets = append(sets, s)
	}
	assertBridgeEquiv(t, "pointsets/slimtree", sets, func(in []metric.PointSet) index.Index[metric.PointSet] {
		return slimtree.New(metric.Hausdorff, 0, in)
	}, 9)
}

// hideCross wraps an index, forwarding every capability EXCEPT the
// cross-join, so a pipeline run over it exercises the per-point bridge
// fallback on an otherwise identical tree.
type hideCross[T any] struct{ inner index.Index[T] }

func (h hideCross[T]) RangeCount(q T, r float64) int   { return h.inner.RangeCount(q, r) }
func (h hideCross[T]) RangeQuery(q T, r float64) []int { return h.inner.RangeQuery(q, r) }
func (h hideCross[T]) Size() int                       { return h.inner.Size() }
func (h hideCross[T]) DiameterEstimate() float64       { return h.inner.DiameterEstimate() }
func (h hideCross[T]) RangeCountMulti(q T, radii []float64) []int {
	return index.RangeCountMulti(h.inner, q, radii)
}
func (h hideCross[T]) CountAllMulti(radii []float64, workers int) [][]int {
	return h.inner.(index.SelfMultiCounter).CountAllMulti(radii, workers)
}

// TestBridgeDualDoesNotPerturbResult is the end-to-end guarantee: the
// pipeline Result with the native cross-join must deep-equal the Result
// with the capability hidden (per-point fallback), on every backend and
// on a nondimensional dataset. The throwaway tree over the outliers is
// invisible in the output.
func TestBridgeDualDoesNotPerturbResult(t *testing.T) {
	rng := rand.New(rand.NewSource(4100))
	pts := randomVectorDataset(rng)
	backends := map[string]index.Builder[[]float64]{
		"slimtree": func(sub [][]float64) index.Index[[]float64] {
			return slimtree.New(metric.Euclidean, 0, sub)
		},
		"kdtree": func(sub [][]float64) index.Index[[]float64] { return kdtree.New(sub) },
		"rtree":  func(sub [][]float64) index.Index[[]float64] { return rtree.New(sub, 0) },
	}
	for name, builder := range backends {
		builder := builder
		hidden := func(sub [][]float64) index.Index[[]float64] {
			return hideCross[[]float64]{inner: builder(sub)}
		}
		native, err := RunWithIndex(pts, metric.Euclidean, builder, Params{Workers: 1})
		if err != nil {
			t.Fatalf("%s: native run failed: %v", name, err)
		}
		fallback, err := RunWithIndex(pts, metric.Euclidean, hidden, Params{Workers: 1})
		if err != nil {
			t.Fatalf("%s: fallback run failed: %v", name, err)
		}
		if !reflect.DeepEqual(native, fallback) {
			t.Errorf("%s: dual-bridge Result differs from per-point Result\nnative:   %s\nfallback: %s",
				name, summarize(native), summarize(fallback))
		}
	}

	rngW := rand.New(rand.NewSource(4200))
	words := make([]string, 0, 160)
	for i := 0; i < 150; i++ {
		stem := []byte("equivalence")
		for j := rngW.Intn(3); j > 0; j-- {
			stem[rngW.Intn(len(stem))] = byte('a' + rngW.Intn(26))
		}
		words = append(words, string(stem[:6+rngW.Intn(5)]))
	}
	for i := 0; i < 8; i++ {
		w := make([]byte, 19+rngW.Intn(9))
		for j := range w {
			w[j] = byte('0' + rngW.Intn(10))
		}
		words = append(words, string(w))
	}
	slimBuild := func(sub []string) index.Index[string] {
		return slimtree.New(metric.Levenshtein, 0, sub)
	}
	hidden := func(sub []string) index.Index[string] {
		return hideCross[string]{inner: slimBuild(sub)}
	}
	native, err := RunWithIndex(words, metric.Levenshtein, slimBuild, Params{Workers: 1})
	if err != nil {
		t.Fatalf("strings: native run failed: %v", err)
	}
	fallback, err := RunWithIndex(words, metric.Levenshtein, hidden, Params{Workers: 1})
	if err != nil {
		t.Fatalf("strings: fallback run failed: %v", err)
	}
	if !reflect.DeepEqual(native, fallback) {
		t.Errorf("strings: dual-bridge Result differs from per-point Result\nnative:   %s\nfallback: %s",
			summarize(native), summarize(fallback))
	}
}
