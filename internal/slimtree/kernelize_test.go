package slimtree

import (
	"math/rand"
	"reflect"
	"testing"

	"mccatch/internal/metric"
)

// TestKernelizeDetection pins which configurations get the kernel
// coordinate column: exactly []float64 elements under metric.Euclidean
// itself — clones and other metrics keep the generic path.
func TestKernelizeDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randPoints(rng, 300, 3)
	eu := New(metric.Euclidean, 8, pts)
	if eu.kc == nil || eu.kdim != 3 {
		t.Fatalf("Euclidean []float64 tree should kernelize, kc=%v kdim=%d", eu.kc != nil, eu.kdim)
	}
	if len(eu.kc) != len(eu.ePivot)*3 {
		t.Fatalf("kc has %d coords for %d entries", len(eu.kc), len(eu.ePivot))
	}
	for k, p := range eu.ePivot {
		if !reflect.DeepEqual(eu.pcoords(int32(k)), p) {
			t.Fatalf("kc entry %d diverges from its pivot", k)
		}
	}
	if man := New(metric.Manhattan, 8, pts); man.kc != nil {
		t.Fatal("Manhattan tree must keep the generic path")
	}
	clone := func(a, b []float64) float64 { return metric.Euclidean(a, b) }
	if cl := New(clone, 8, pts); cl.kc != nil {
		t.Fatal("a Euclidean clone must keep the generic path")
	}
	ints := make([]int, 50)
	for i := range ints {
		ints[i] = i
	}
	intDist := func(a, b int) float64 {
		d := float64(a - b)
		if d < 0 {
			return -d
		}
		return d
	}
	if it := New(intDist, 8, ints); it.kc != nil {
		t.Fatal("non-vector elements must keep the generic path")
	}
}

// TestKernelPathEquivalence runs every query and join of a kernelized
// tree against the SAME frozen tree with the kernel column stripped
// (forcing the generic per-entry loops) and demands bit-identical
// results AND identical DistCalls totals — the contract that lets the
// kernel path replace the generic one silently.
func TestKernelPathEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dim := range []int{2, 3, 8} {
		pts := randPoints(rng, 600, dim)
		kt := New(metric.Euclidean, 8, pts)
		if kt.kc == nil {
			t.Fatalf("dim %d: tree did not kernelize", dim)
		}
		gt := New(metric.Euclidean, 8, pts)
		gt.kc, gt.kdim = nil, 0 // same frozen arena, generic path

		radii := []float64{0.05, 0.1, 0.2, 0.4, 0.8, 1.6}
		queries := randPoints(rng, 40, dim)
		run := func(tr *Tree[[]float64], q []float64, r float64) (int, []int, []int, []int, []float64) {
			c := tr.RangeCount(q, r)
			ids := tr.RangeQuery(q, r)
			multi := tr.RangeCountMulti(q, radii)
			kids, kd := tr.KNN(q, 7)
			return c, ids, multi, kids, kd
		}
		kt.ResetDistCalls()
		gt.ResetDistCalls()
		for qi, q := range queries {
			r := radii[qi%len(radii)]
			kc1, kids1, km1, kn1, kd1 := run(kt, q, r)
			gc1, gids1, gm1, gn1, gd1 := run(gt, q, r)
			if kc1 != gc1 || !reflect.DeepEqual(kids1, gids1) || !reflect.DeepEqual(km1, gm1) ||
				!reflect.DeepEqual(kn1, gn1) || !reflect.DeepEqual(kd1, gd1) {
				t.Fatalf("dim %d query %d: kernel path diverges from generic", dim, qi)
			}
		}
		if k, g := kt.DistCalls(), gt.DistCalls(); k != g {
			t.Fatalf("dim %d: kernel queries made %d metric calls, generic %d", dim, k, g)
		}

		for _, workers := range []int{1, 3} {
			kt.ResetDistCalls()
			gt.ResetDistCalls()
			if !reflect.DeepEqual(kt.CountAllMulti(radii, workers), gt.CountAllMulti(radii, workers)) {
				t.Fatalf("dim %d workers %d: CountAllMulti diverges", dim, workers)
			}
			if k, g := kt.DistCalls(), gt.DistCalls(); k != g {
				t.Fatalf("dim %d workers %d: self-join calls %d vs %d", dim, workers, k, g)
			}
			if !reflect.DeepEqual(kt.BridgeFirsts(queries, radii, workers), gt.BridgeFirsts(queries, radii, workers)) {
				t.Fatalf("dim %d workers %d: BridgeFirsts diverges", dim, workers)
			}
		}
	}
}
