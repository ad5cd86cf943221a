package slimtree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"mccatch/internal/diameter"
	"mccatch/internal/metric"
)

// assertQueryEquivalent pins the bulk-load contract against brute force
// over items under dist: the tree must answer every query —
// RangeCount, RangeCountMulti, RangeQuery, KNN, CountAllMulti,
// DiameterEstimate — exactly as a scan of the items does. Only the
// tree's internal arrangement is free.
func assertQueryEquivalent[T any](t *testing.T, label string, tr *Tree[T], dist metric.Distance[T], items []T, radii []float64) {
	t.Helper()
	if tr.Size() != len(items) {
		t.Fatalf("%s: size %d, want %d", label, tr.Size(), len(items))
	}
	if got, want := tr.DiameterEstimate(), diameter.Estimate(items, dist); got != want {
		t.Fatalf("%s: DiameterEstimate = %v, want %v", label, got, want)
	}
	// brute[e][i] counts the items within radii[e] of items[i].
	brute := make([][]int, len(radii))
	for e := range brute {
		brute[e] = make([]int, len(items))
	}
	type cand struct {
		d  float64
		id int
	}
	all := make([]cand, len(items))
	for qi, q := range items {
		for j, x := range items {
			all[j] = cand{dist(q, x), j}
			for e, r := range radii {
				if all[j].d <= r {
					brute[e][qi]++
				}
			}
		}
		if qi%7 != 0 { // every 7th element keeps the per-query checks fast
			continue
		}
		for e, r := range radii {
			if c := tr.RangeCount(q, r); c != brute[e][qi] {
				t.Fatalf("%s: RangeCount(q%d, %v) = %d, brute %d", label, qi, r, c, brute[e][qi])
			}
		}
		multi := tr.RangeCountMulti(q, radii)
		for e := range radii {
			if multi[e] != brute[e][qi] {
				t.Fatalf("%s: RangeCountMulti(q%d)[%d] = %d, brute %d", label, qi, e, multi[e], brute[e][qi])
			}
		}
		mid := radii[len(radii)/2]
		var wantIDs []int
		for _, c := range all {
			if c.d <= mid {
				wantIDs = append(wantIDs, c.id)
			}
		}
		gotIDs := tr.RangeQuery(q, mid)
		sort.Ints(gotIDs)
		if fmt.Sprint(gotIDs) != fmt.Sprint(wantIDs) {
			t.Fatalf("%s: RangeQuery(q%d) ids %v, brute %v", label, qi, gotIDs, wantIDs)
		}
		// KNN's documented tie rule: the first k by (distance, id).
		sort.Slice(all, func(a, b int) bool {
			if all[a].d != all[b].d {
				return all[a].d < all[b].d
			}
			return all[a].id < all[b].id
		})
		k := min(5, len(all))
		wantK, wantD := make([]int, k), make([]float64, k)
		for i := range wantK {
			wantK[i], wantD[i] = all[i].id, all[i].d
		}
		gotK, gotD := tr.KNN(q, 5)
		if fmt.Sprint(gotK) != fmt.Sprint(wantK) || fmt.Sprint(gotD) != fmt.Sprint(wantD) {
			t.Fatalf("%s: KNN(q%d) = %v/%v, brute %v/%v", label, qi, gotK, gotD, wantK, wantD)
		}
	}
	for _, workers := range []int{1, 3} {
		counts := tr.CountAllMulti(radii, workers)
		for e := range brute {
			for i := range brute[e] {
				if counts[e][i] != brute[e][i] {
					t.Fatalf("%s: CountAllMulti(workers=%d)[%d][%d] = %d, brute %d", label, workers, e, i, counts[e][i], brute[e][i])
				}
			}
		}
	}
}

func TestNewBulkQueryEquivalentVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	trials := 12
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		n := 20 + rng.Intn(1500)
		dim := 1 + rng.Intn(4)
		pts := randPoints(rng, n, dim)
		for i := rng.Intn(30); i > 0; i-- { // duplicates stress zero distances
			pts = append(pts, append([]float64(nil), pts[rng.Intn(len(pts))]...))
		}
		capacity := []int{0, 4, 8}[trial%3]
		tr := New(metric.Euclidean, capacity, pts)
		assertQueryEquivalent(t, fmt.Sprintf("vectors/trial%d", trial), tr, metric.Euclidean, pts, randRadii(rng, 150))
	}
}

func TestNewBulkQueryEquivalentStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	words := make([]string, 0, 260)
	for i := 0; i < 260; i++ {
		stem := []byte("bulkloadedslimtree")
		for j := rng.Intn(6); j > 0; j-- {
			stem[rng.Intn(len(stem))] = byte('a' + rng.Intn(26))
		}
		words = append(words, string(stem[:4+rng.Intn(13)]))
	}
	tr := New(metric.Levenshtein, 8, words)
	assertQueryEquivalent(t, "strings", tr, metric.Levenshtein, words, []float64{0, 1, 2, 3, 5, 8, 13})
}

// TestNewBulkWorkerInvariant: the bulk-built tree must be identical for
// every worker count — proven by comparing probe-by-probe metric work
// (DistCalls on identical query sequences) and query results.
func TestNewBulkWorkerInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	pts := randPoints(rng, 3000, 2)
	radii := randRadii(rng, 150)
	serial := NewWithWorkers(metric.Euclidean, 0, pts, 1)
	buildCalls := serial.DistCalls()
	if buildCalls == 0 {
		t.Fatal("serial bulk build performed no metric evaluations")
	}
	for _, workers := range []int{2, 8} {
		par := NewWithWorkers(metric.Euclidean, 0, pts, workers)
		if p := par.DistCalls(); p != buildCalls {
			t.Fatalf("workers=%d: build dist calls differ (%d vs %d): trees are not identical", workers, buildCalls, p)
		}
		serial.ResetDistCalls()
		par.ResetDistCalls()
		for qi := 0; qi < 200; qi++ {
			q := pts[rng.Intn(len(pts))]
			cs := serial.RangeCountMulti(q, radii)
			cp := par.RangeCountMulti(q, radii)
			for e := range radii {
				if cs[e] != cp[e] {
					t.Fatalf("workers=%d: counts differ at q%d radius %d", workers, qi, e)
				}
			}
		}
		if s, p := serial.DistCalls(), par.DistCalls(); s != p {
			t.Fatalf("workers=%d: query dist calls differ (%d vs %d): tree shapes diverged", workers, s, p)
		}
	}
}

// TestNewBulkBalancedHeight: the bulk build must hit the balanced minimum
// height ⌈log_cap(n)⌉.
func TestNewBulkBalancedHeight(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, n := range []int{1, 30, 33, 1000, 5000} {
		pts := randPoints(rng, n, 2)
		blk := New(metric.Euclidean, 32, pts)
		want := 1
		for span := 32; span < n; span *= 32 {
			want++
		}
		if got := blk.Height(); got != want {
			t.Errorf("n=%d: bulk height %d, want balanced %d", n, got, want)
		}
		if err := blk.MaxCoverError(); err != 0 {
			t.Errorf("n=%d: covering invariant violated by %v", n, err)
		}
	}
}

// TestDiameterEstimateNonMonotoneVectorMetric guards the bbox shortcut's
// self-validation: for a valid (pseudo-)metric over vectors that is NOT
// monotone in the box corners, the corner distance collapses to 0 and the
// estimate must fall through to the exact branch-and-bound instead of
// silently underestimating the radii schedule.
func TestDiameterEstimateNonMonotoneVectorMetric(t *testing.T) {
	// Projection pseudo-metric: distance of the points' projections onto
	// the (1,-1) axis. Symmetric, zero on identical args, triangular —
	// but d(boxLo, boxHi) = 0 while the true diameter is √2.
	proj := func(a, b []float64) float64 {
		return math.Abs((a[0]-a[1])-(b[0]-b[1])) / math.Sqrt2
	}
	pts := [][]float64{{0, 1}, {1, 0}, {0.5, 0.5}, {0.2, 0.8}, {0.9, 0.1}, {0, 0}, {1, 1}}
	if got := New(proj, 4, pts).DiameterEstimate(); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Errorf("diameter = %v, want √2 via the exact path", got)
	}
}

func TestNewBulkEdges(t *testing.T) {
	empty := New(metric.Euclidean, 0, nil)
	if empty.Size() != 0 || empty.RangeCount([]float64{0}, 10) != 0 {
		t.Error("empty bulk tree misbehaves")
	}
	one := New(metric.Euclidean, 0, [][]float64{{1, 2}})
	if one.Size() != 1 || one.RangeCount([]float64{1, 2}, 0) != 1 {
		t.Error("singleton bulk tree misbehaves")
	}
	dups := make([][]float64, 200)
	for i := range dups {
		dups[i] = []float64{7, 7}
	}
	dup := New(metric.Euclidean, 4, dups)
	if got := dup.RangeCount([]float64{7, 7}, 0); got != 200 {
		t.Errorf("all-duplicates bulk tree counts %d at r=0, want 200", got)
	}
	if dup.MaxCoverError() != 0 {
		t.Error("all-duplicates bulk tree violates covering invariant")
	}
}
