// Package diameter provides the shared, data-only diameter estimator the
// index layers derive their radii schedules from (paper Alg. 1 L2's l).
//
// The estimate is a function of the DATA ALONE — the elements in id order
// and the metric — never of any index structure: every branch below
// switches on the element count or on computed distances, so slim-trees
// of any capacity, the coordinate trees, shard partitions and any
// memtable/segment arrangement of the incremental layer all report the
// same value over the same live set. That invariant is what makes the
// pipeline output identical across backends (pinned by core's shard and
// incremental equivalence tests); an estimator that walked an index and
// aborted on a budget would break it.
package diameter

// ExactThreshold is the element count at or below which Estimate returns
// the EXACT diameter by an all-pairs scan (at most n·(n-1)/2 ≈ 33k metric
// evaluations at the threshold — cheaper than one tree build). The switch
// depends only on n, keeping the value structure-independent.
const ExactThreshold = 256

// MaxSweeps bounds the farthest-point iteration above the threshold,
// capping the estimator at O(MaxSweeps·n) metric evaluations on ANY data.
// The former exact branch-and-bound had no such cap: near-uniform pairwise
// distances defeat covering-radius pruning entirely and degenerated it
// toward n²/2 evaluations.
const MaxSweeps = 8

// Estimate estimates the diameter of elems under the metric d.
//
// Vector elements get the bounding-box corner distance d(lo, hi): an upper
// bound on every pairwise distance for any coordinate-monotone metric (all
// Lp norms), computed in O(n·dim), and — under the Euclidean metric — the
// exact value the kd-tree and R-tree backends report from their root
// boxes, so all access methods share one radii schedule on vector data.
// The shortcut validates itself against a double farthest-point sweep
// (2n metric evaluations, within 2× of the true diameter by the triangle
// inequality): a corner distance below the sweep's lower bound proves the
// metric is NOT coordinate-monotone, and the estimate falls through to the
// generic paths below.
//
// Every other element type gets the exact diameter while n is small
// (ExactThreshold) and an iterated farthest-point estimate beyond it: the
// sweep keeps jumping to the farthest point found until a full sweep stops
// improving or MaxSweeps sweeps have run. The result is a lower bound
// within 2× of the true diameter — one slot of the halving radii schedule,
// slack the pipeline already absorbs: joins never rely on the last radius
// truly covering every pair (join.SelfMultiRadiusCounts pins that row to n
// explicitly).
func Estimate[T any](elems []T, d func(a, b T) float64) float64 {
	n := len(elems)
	if n < 2 {
		return 0
	}
	farthest := func(from int) (int, float64) {
		best, bestD := from, -1.0
		for i := range elems {
			if dist := d(elems[from], elems[i]); dist > bestD {
				best, bestD = i, dist
			}
		}
		return best, bestD
	}
	x, _ := farthest(0)
	y, best := farthest(x)
	if pts, ok := any(elems).([][]float64); ok {
		lo := append([]float64(nil), pts[0]...)
		hi := append([]float64(nil), pts[0]...)
		for _, p := range pts {
			for j, v := range p {
				if v < lo[j] {
					lo[j] = v
				}
				if v > hi[j] {
					hi[j] = v
				}
			}
		}
		if corner := d(any(lo).(T), any(hi).(T)); corner >= best {
			return corner
		}
		// corner < the sweep's lower bound: the metric is not
		// coordinate-monotone, so the box says nothing — fall through.
	}
	if n <= ExactThreshold {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if dist := d(elems[i], elems[j]); dist > best {
					best = dist
				}
			}
		}
		return best
	}
	// Iterated farthest-point refinement: best currently holds d(x, y);
	// keep sweeping from the newest endpoint while the sweeps improve.
	// Two sweeps are already spent above.
	at := y
	for s := 2; s < MaxSweeps; s++ {
		next, dist := farthest(at)
		if dist <= best {
			break
		}
		best, at = dist, next
	}
	return best
}
