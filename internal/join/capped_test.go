package join

import (
	"fmt"
	"math/rand"
	"testing"

	"mccatch/internal/index"
	"mccatch/internal/kdtree"
	"mccatch/internal/kernel"
	"mccatch/internal/metric"
	"mccatch/internal/rtree"
	"mccatch/internal/slimtree"
)

// bruteCount is the number of pts within squared distance r*r of q, by
// the kernel's own squared distance: the count every backend must
// reproduce below a limit.
func bruteCount(pts [][]float64, q []float64, r float64) int {
	c := 0
	for _, p := range pts {
		if kernel.SqDist(q, p) <= r*r {
			c++
		}
	}
	return c
}

// checkCapped holds every backend's capped counters, and the generic
// fallbacks, to min(brute-force count, limit) at every radius. The
// limits run from 0 to above n, and many sit at the true count or one
// above it, where a bound that credits one point too many, or a count
// that stops one short, gives a wrong answer.
func checkCapped(t *testing.T, label string, pts [][]float64, radii []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(pts))))
	trees := map[string]index.Index[[]float64]{
		"kdtree":   kdtree.New(pts),
		"rtree":    rtree.New(pts, 4),
		"slimtree": slimtree.New(metric.Euclidean, 0, pts),
	}
	for _, r := range radii {
		limits := make([]int, len(pts))
		want := make([]int, len(pts))
		for i, p := range pts {
			c := bruteCount(pts, p, r)
			switch i % 5 {
			case 0:
				limits[i] = 0
			case 1:
				limits[i] = 1 + rng.Intn(len(pts)+2)
			case 2:
				limits[i] = c
			default:
				limits[i] = c + 1
			}
			want[i] = -1 // untouched slot
			if limits[i] > 0 {
				want[i] = min(c, limits[i])
			}
		}
		for name, tr := range trees {
			for _, workers := range []int{1, 3} {
				for _, via := range []string{"native", "fallback"} {
					var idx index.Index[[]float64] = tr
					if via == "fallback" {
						idx = noCross{tr}
					}
					got := make([]int, len(pts))
					for i := range got {
						got[i] = -1
					}
					CountAllCapped(idx, pts, r, limits, got, workers)
					for i := range pts {
						if got[i] != want[i] {
							t.Fatalf("%s %s (%s, workers=%d) r=%v: point %d limit %d: CountAllCapped %d, want %d",
								label, name, via, workers, r, i, limits[i], got[i], want[i])
						}
					}
				}
			}
			for i, p := range pts {
				for _, limit := range []int{0, 1, limits[i], limits[i] + 1, len(pts)} {
					w := min(bruteCount(pts, p, r), limit)
					if got := index.RangeCountCapped(tr, p, r, limit); got != w {
						t.Fatalf("%s %s r=%v: point %d limit %d: RangeCountCapped %d, want %d", label, name, r, i, limit, got, w)
					}
				}
			}
		}
	}
}

// TestCappedCountersMatchBruteForce covers the capped counters on
// clustered data, far from the origin, and on a grid where many pairs,
// and so many leaf-box corners, lie exactly r apart.
func TestCappedCountersMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, dim := range []int{2, 3, 5} {
		pts := clusteredPoints(rng, 300, dim)
		checkCapped(t, fmt.Sprintf("clustered %dd", dim), pts, halvingRadii(100*float64(dim), 9))
		// A 10⁶ offset leaves the coordinates' low bits to rounding, so
		// the box bounds are computed with errors the bound must absorb.
		far := make([][]float64, len(pts))
		for i, p := range pts {
			q := make([]float64, dim)
			for j, v := range p {
				q[j] = 1e6 + v*(1+1e-3*float64(j))
			}
			far[i] = q
		}
		checkCapped(t, fmt.Sprintf("offset %dd", dim), far, halvingRadii(100*float64(dim), 9))
	}
	// An integer grid holds 3-4-5 and 6-8-10 triangles, so at r = 5 and
	// r = 10 pairs lie exactly r apart, from leaf corners too; the 10⁶
	// offset keeps every coordinate and distance exact.
	var grid [][]float64
	for x := 0; x < 17; x++ {
		for y := 0; y < 13; y++ {
			grid = append(grid, []float64{1e6 + float64(x), 1e6 + float64(y)})
		}
	}
	checkCapped(t, "grid", grid, []float64{1, 5, 10, 15})
}
