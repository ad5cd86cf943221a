package kernel

import (
	"math"
	"math/rand"
	"testing"

	"mccatch/internal/metric"
)

// testDims covers every specialized width plus generic odd/even widths on
// both sides of each specialization.
var testDims = []int{1, 2, 3, 4, 5, 7, 8, 9, 12}

func randPts(rng *rand.Rand, n, dim int) []float64 {
	pts := make([]float64, n*dim)
	for i := range pts {
		pts[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
	}
	return pts
}

// TestSqDistMatchesOracle pins bit-identity of the dispatched scalar
// kernel against metric.SquaredEuclidean on arbitrary (non-dyadic)
// inputs: the specializations must accumulate in exactly the oracle's
// order.
func TestSqDistMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dim := range testDims {
		for trial := 0; trial < 200; trial++ {
			q := randPts(rng, 1, dim)
			p := randPts(rng, 1, dim)
			got := SqDist(q, p)
			want := metric.SquaredEuclidean(q, p)
			if got != want {
				t.Fatalf("dim %d: SqDist = %v, oracle = %v (diff %g)", dim, got, want, got-want)
			}
		}
	}
}

// TestRangeBlockMatchesOracle checks that the block kernels produce
// bit-identical distances for every slot of arbitrary [first, last)
// ranges — chunked by RangeBlock, and in one Dists call over the whole
// range as the dual joins' leaf scans make it — and that a pruned chunk
// only ever hides distances beyond the threshold.
func TestRangeBlockMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dim := range testDims {
		for trial := 0; trial < 40; trial++ {
			n := 1 + rng.Intn(60)
			pts := randPts(rng, n, dim)
			q := randPts(rng, 1, dim)
			var s *Summary
			if trial%2 == 0 {
				s = NewSummary(pts, dim, n)
			}
			first := rng.Intn(n)
			last := first + rng.Intn(n-first) + 1
			threshold := rng.Float64() * float64(dim) * 10
			var d2 [Block]float64
			for at := first; at < last; {
				n, pruned := RangeBlock(&d2, s, q, pts, at, last, threshold)
				for i := 0; i < n; i++ {
					want := metric.SquaredEuclidean(q, pts[(at+i)*dim:(at+i+1)*dim])
					if pruned {
						if want <= threshold {
							t.Fatalf("dim %d: pruned chunk hides slot %d with d2 %v <= threshold %v", dim, at+i, want, threshold)
						}
					} else if d2[i] != want {
						t.Fatalf("dim %d slot %d: chunk d2 = %v, oracle = %v", dim, at+i, d2[i], want)
					}
				}
				at += n
			}
			dists := make([]float64, last-first)
			Dists(dists, q, pts, first, last)
			for i, got := range dists {
				if want := metric.SquaredEuclidean(q, pts[(first+i)*dim:(first+i+1)*dim]); got != want {
					t.Fatalf("dim %d [%d,%d) slot %d: Dists = %v, oracle = %v", dim, first, last, first+i, got, want)
				}
			}
		}
	}
}

// TestCountRangeBrute compares CountRange — with and without a summary —
// against the brute-force per-point count, including thresholds equal to
// exact pair distances so the inclusive boundary is exercised.
func TestCountRangeBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dim := range testDims {
		for trial := 0; trial < 40; trial++ {
			n := 1 + rng.Intn(80)
			pts := randPts(rng, n, dim)
			q := randPts(rng, 1, dim)
			s := NewSummary(pts, dim, n)
			first := rng.Intn(n)
			last := first + rng.Intn(n-first) + 1
			r2 := rng.Float64() * float64(dim) * 4
			if trial%3 == 0 {
				// Boundary case: the threshold IS an indexed distance.
				r2 = metric.SquaredEuclidean(q, pts[rng.Intn(n)*dim:][:dim])
			}
			want := 0
			for i := first; i < last; i++ {
				if metric.SquaredEuclidean(q, pts[i*dim:(i+1)*dim]) <= r2 {
					want++
				}
			}
			if got := CountRange(s, q, pts, first, last, r2); got != want {
				t.Fatalf("dim %d [%d,%d) r2 %v: CountRange(summary) = %d, brute = %d", dim, first, last, r2, got, want)
			}
			if got := CountRange(nil, q, pts, first, last, r2); got != want {
				t.Fatalf("dim %d [%d,%d) r2 %v: CountRange(nil) = %d, brute = %d", dim, first, last, r2, got, want)
			}
		}
	}
}

// TestSummaryConservative verifies the freeze-time guarantee directly:
// for every block and many queries, blockBounds brackets the exact
// kernel distance of every point in the block.
func TestSummaryConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, dim := range testDims {
		for trial := 0; trial < 20; trial++ {
			n := Block + 1 + rng.Intn(100)
			pts := randPts(rng, n, dim)
			s := NewSummary(pts, dim, n)
			if s == nil {
				t.Fatalf("dim %d n %d: NewSummary = nil above the size floor", dim, n)
			}
			for probe := 0; probe < 20; probe++ {
				q := randPts(rng, 1, dim)
				for b := 0; b < s.blocks; b++ {
					smin, smax := s.blockBounds(b, q)
					last := (b + 1) * Block
					if last > n {
						last = n
					}
					for i := b * Block; i < last; i++ {
						d2 := SqDist(q, pts[i*dim:(i+1)*dim])
						if smin > d2 || smax < d2 {
							t.Fatalf("dim %d block %d slot %d: bounds [%v, %v] miss d2 %v", dim, b, i, smin, smax, d2)
						}
					}
				}
			}
		}
	}
}

// TestSummaryDegenerate covers the edge inputs the quantizer must
// survive: all-identical points (zero spread), single-axis spread, huge
// magnitudes, and inputs at or below the size floor.
func TestSummaryDegenerate(t *testing.T) {
	if s := NewSummary(nil, 2, 0); s != nil {
		t.Error("empty input: want nil summary")
	}
	if s := NewSummary(make([]float64, Block*2), 2, Block); s != nil {
		t.Error("input at the size floor: want nil summary")
	}
	if s := NewSummary(make([]float64, 10), 0, 10); s != nil {
		t.Error("dim 0: want nil summary")
	}

	n := 3 * Block
	same := make([]float64, n*2)
	for i := range same {
		same[i] = 42.5
	}
	s := NewSummary(same, 2, n)
	q := []float64{42.5, 42.5}
	if got := CountRange(s, q, same, 0, n, 0); got != n {
		t.Errorf("identical points, r2 0: count = %d, want %d", got, n)
	}

	huge := make([]float64, n*2)
	for i := range huge {
		huge[i] = float64(i%7-3) * 1e300
	}
	s = NewSummary(huge, 2, n)
	for b := 0; b < s.blocks; b++ {
		smin, smax := s.blockBounds(b, []float64{1e300, -1e300})
		last := (b + 1) * Block
		if last > n {
			last = n
		}
		for i := b * Block; i < last; i++ {
			d2 := SqDist([]float64{1e300, -1e300}, huge[i*2:i*2+2])
			if smin > d2 || !(smax >= d2) {
				t.Fatalf("huge coords block %d slot %d: bounds [%v, %v] miss d2 %v", b, i, smin, smax, d2)
			}
		}
	}
}

// TestBoxKernels spot-checks the moved box-bound kernels (the dualjoin
// wrappers' own tests cover them too; these pin the kernel package's
// copies directly).
func TestBoxKernels(t *testing.T) {
	smin, smax := SqMinMaxPointBox([]float64{0, 0}, []float64{1, -1}, []float64{2, 1})
	if smin != 1 || smax != 5 {
		t.Errorf("SqMinMaxPointBox = (%v, %v), want (1, 5)", smin, smax)
	}
	smin, smax = SqMinMaxBoxBox([]float64{0}, []float64{1}, []float64{3}, []float64{7})
	if smin != 4 || smax != 49 {
		t.Errorf("SqMinMaxBoxBox = (%v, %v), want (4, 49)", smin, smax)
	}
	if d := SqBoxDiag([]float64{0, 0}, []float64{3, 4}); d != 25 {
		t.Errorf("SqBoxDiag = %v, want 25", d)
	}
}
