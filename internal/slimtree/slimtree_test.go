package slimtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"mccatch/internal/metric"
)

func randPoints(rng *rand.Rand, n, dim int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.Float64() * 100
		}
		pts[i] = p
	}
	return pts
}

func bruteRange(pts [][]float64, q []float64, r float64) []int {
	var ids []int
	for i, p := range pts {
		if metric.Euclidean(q, p) <= r {
			ids = append(ids, i)
		}
	}
	return ids
}

func TestEmptyAndTinyTrees(t *testing.T) {
	tr := New(metric.Euclidean, 0, nil)
	if tr.Size() != 0 || tr.RangeCount([]float64{0}, 10) != 0 {
		t.Error("empty tree should return 0 everywhere")
	}
	if tr.DiameterEstimate() != 0 {
		t.Error("empty tree diameter should be 0")
	}
	ids, _ := tr.KNN([]float64{0}, 3)
	if len(ids) != 0 {
		t.Error("empty tree KNN should be empty")
	}

	tr = New(metric.Euclidean, 0, [][]float64{{1, 2}})
	if tr.Size() != 1 || tr.RangeCount([]float64{1, 2}, 0) != 1 {
		t.Error("singleton tree broken")
	}
	if tr.DiameterEstimate() != 0 {
		t.Error("singleton diameter should be 0")
	}
}

func TestRangeQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 50 + rng.Intn(400)
		dim := 1 + rng.Intn(4)
		pts := randPoints(rng, n, dim)
		tr := New(metric.Euclidean, 8, pts) // small capacity → deep tree, more splits
		for q := 0; q < 10; q++ {
			query := pts[rng.Intn(n)]
			r := rng.Float64() * 60
			got := tr.RangeQuery(query, r)
			want := bruteRange(pts, query, r)
			sort.Ints(got)
			if len(got) != len(want) {
				t.Fatalf("trial %d: RangeQuery len=%d, brute len=%d (r=%v)", trial, len(got), len(want), r)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: RangeQuery ids mismatch", trial)
				}
			}
			if c := tr.RangeCount(query, r); c != len(want) {
				t.Fatalf("trial %d: RangeCount=%d, want %d", trial, c, len(want))
			}
		}
	}
}

func TestRangeQueryWithDuplicates(t *testing.T) {
	// Many identical points force degenerate splits.
	pts := make([][]float64, 200)
	for i := range pts {
		pts[i] = []float64{1, 1}
	}
	pts = append(pts, []float64{50, 50})
	tr := New(metric.Euclidean, 6, pts)
	if got := tr.RangeCount([]float64{1, 1}, 0); got != 200 {
		t.Errorf("duplicate RangeCount = %d, want 200", got)
	}
	if got := tr.RangeCount([]float64{50, 50}, 1); got != 1 {
		t.Errorf("outlier RangeCount = %d, want 1", got)
	}
	if got := tr.RangeCount([]float64{0, 0}, 1000); got != 201 {
		t.Errorf("full RangeCount = %d, want 201", got)
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 15; trial++ {
		n := 30 + rng.Intn(300)
		pts := randPoints(rng, n, 2)
		tr := New(metric.Euclidean, 8, pts)
		for q := 0; q < 5; q++ {
			query := randPoints(rng, 1, 2)[0]
			k := 1 + rng.Intn(10)
			ids, dists := tr.KNN(query, k)
			// Brute-force kNN distances.
			all := make([]float64, n)
			for i, p := range pts {
				all[i] = metric.Euclidean(query, p)
			}
			sort.Float64s(all)
			wantK := k
			if wantK > n {
				wantK = n
			}
			if len(ids) != wantK {
				t.Fatalf("KNN returned %d ids, want %d", len(ids), wantK)
			}
			for i := 0; i < wantK; i++ {
				if math.Abs(dists[i]-all[i]) > 1e-9 {
					t.Fatalf("trial %d: kNN dist[%d]=%v, brute=%v", trial, i, dists[i], all[i])
				}
			}
			// Ascending order.
			for i := 1; i < len(dists); i++ {
				if dists[i] < dists[i-1] {
					t.Fatal("KNN distances not ascending")
				}
			}
		}
	}
}

func TestKNNMoreThanN(t *testing.T) {
	pts := [][]float64{{0}, {1}, {2}}
	tr := New(metric.Euclidean, 0, pts)
	ids, _ := tr.KNN([]float64{0}, 10)
	if len(ids) != 3 {
		t.Errorf("KNN k>n returned %d, want 3", len(ids))
	}
}

func TestDiameterEstimateReasonable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := 100 + rng.Intn(400)
		pts := randPoints(rng, n, 3)
		tr := New(metric.Euclidean, 16, pts)
		true_ := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if d := metric.Euclidean(pts[i], pts[j]); d > true_ {
					true_ = d
				}
			}
		}
		est := tr.DiameterEstimate()
		if est < 0.5*true_ || est > 3*true_ {
			t.Errorf("trial %d: diameter estimate %v not within [0.5, 3]× true %v", trial, est, true_)
		}
	}
}

func TestNondimensionalStringsTree(t *testing.T) {
	words := []string{"smith", "smyth", "smithe", "johnson", "jonson", "garcia", "garzia", "xylophone"}
	tr := New(metric.Levenshtein, 4, words)
	// All words within edit distance 1 of "smith".
	got := tr.RangeQuery("smith", 1)
	sort.Ints(got)
	want := []int{0, 1, 2} // smith, smyth, smithe
	if len(got) != len(want) {
		t.Fatalf("string RangeQuery = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("string RangeQuery = %v, want %v", got, want)
		}
	}
}

func TestTreeHeightGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	small := New(metric.Euclidean, 8, randPoints(rng, 8, 2))
	big := New(metric.Euclidean, 8, randPoints(rng, 500, 2))
	if small.Height() != 1 {
		t.Errorf("8 points in capacity-8 tree should be height 1, got %d", small.Height())
	}
	if big.Height() < 2 {
		t.Errorf("500 points should split, height=%d", big.Height())
	}
}

func TestDistCallsSubquadratic(t *testing.T) {
	// A range query over clustered data should touch far fewer than n
	// distance evaluations per query on average once the tree is built.
	rng := rand.New(rand.NewSource(5))
	n := 2000
	pts := randPoints(rng, n, 2)
	tr := New(metric.Euclidean, 32, pts)
	tr.ResetDistCalls()
	queries := 100
	for q := 0; q < queries; q++ {
		tr.RangeCount(pts[rng.Intn(n)], 2.0) // small radius
	}
	perQuery := float64(tr.DistCalls()) / float64(queries)
	if perQuery > float64(n)/2 {
		t.Errorf("small-radius range queries average %.0f distance calls on n=%d; pruning is not working", perQuery, n)
	}
}

// TestDiameterEstimateUniformDistanceLinear is the carried-bug regression
// through the tree path: near-uniform pairwise distances degenerated the
// old exact branch-and-bound toward n²/2 metric evaluations; the shared
// estimator must answer in O(k·n).
func TestDiameterEstimateUniformDistanceLinear(t *testing.T) {
	n := 2000
	elems := make([]int, n)
	for i := range elems {
		elems[i] = i
	}
	uniform := func(a, b int) float64 {
		if a == b {
			return 0
		}
		return 1
	}
	tr := New(uniform, 0, elems)
	tr.ResetDistCalls()
	if got := tr.DiameterEstimate(); got != 1 {
		t.Fatalf("uniform-distance diameter = %v, want 1", got)
	}
	if calls, budget := tr.DistCalls(), int64(12*n); calls > budget {
		t.Fatalf("DiameterEstimate took %d metric evaluations on uniform-distance data, budget %d (O(k·n))", calls, budget)
	}
}
