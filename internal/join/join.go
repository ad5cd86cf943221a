// Package join provides the spatial-join primitives MCCATCH runs on top of
// its metric tree: count-only self-joins (Alg. 2 L2), count-only joins
// between two sets (Alg. 4 L5), and a pair-producing self-join used to gel
// microclusters (Alg. 3 L12). It implements the paper's Sec. IV-G speed-up
// principles: count-only (never materialize pairs unless asked),
// using-index (every probe goes through the tree), sparse-focused (at radii
// beyond the first, only points still below the microcluster-cardinality
// cap are probed), and small-radii-only (the largest radius equals the
// dataset diameter, so its counts are known to be n without any probing).
//
// The multi-radius joins consume the index layer's batched counter
// (index.RangeCountMulti): because the radius schedule is nested, one tree
// traversal classifies every subtree for the whole schedule at once, so a
// point pays a single traversal where it used to pay one per radius. The
// sparse-focused gating happens around the batched probes: each point
// walks the schedule in adaptive chunks — one traversal per chunk over
// the still-relevant radius suffix — and stops once its count exceeds the
// cap. When the query set is the indexed set itself and the index can
// join itself (index.SelfMultiCounter), Step II's counts instead come
// from dual-tree joins in stages (SelfMultiRadiusCounts): one traversal
// of the index against itself over the radii up to a split radius read
// off a sample, then one cross-set count join (index.CrossCounter) per
// later radius for only the points not yet excused, so the
// sparse-focused principle holds for the dual joins too. When the query
// set is a second, disjoint set and the index can join it
// (index.CrossMultiCounter), the Step IV bridge search comes from ONE
// dual-tree traversal against a throwaway tree over the queries.
//
// Probes are read-only on the tree, so each join fans out across the
// caller's worker budget (internal/parallel; ≤ 0 means all cores, 1 means
// serial). Every worker writes into its own preallocated slot, so results
// are identical for every worker count.
package join

import (
	"sort"
	"sync"

	"mccatch/internal/index"
	"mccatch/internal/parallel"
)

// SelfCounts returns, for every item, the number of indexed elements within
// distance r (each point counts itself, so the minimum is 1 when items are
// the indexed set).
func SelfCounts[T any](t index.Index[T], items []T, r float64, workers int) []int {
	counts := make([]int, len(items))
	parallel.For(workers, len(items), func(i int) {
		counts[i] = t.RangeCount(items[i], r)
	})
	return counts
}

// CrossCounts returns, for every query, the number of elements of the
// indexed set (the tree) within distance r. Queries that are not in the
// tree are not counted as their own neighbors.
func CrossCounts[T any](t index.Index[T], queries []T, r float64, workers int) []int {
	return SelfCounts(t, queries, r, workers)
}

// queryScratch pools the transient id buffers of pair-producing probes, so
// each worker recycles one allocation across all of its probes.
var queryScratch = sync.Pool{
	New: func() any { s := make([]int, 0, 64); return &s },
}

// SelfPairs returns all unordered pairs (i, j), i < j, of items within
// distance r of each other, using one tree probe per item. The result is
// sorted lexicographically, so it is deterministic.
func SelfPairs[T any](t index.Index[T], items []T, r float64, workers int) [][2]int {
	perItem := make([][]int, len(items))
	parallel.For(workers, len(items), func(i int) {
		buf := queryScratch.Get().(*[]int)
		ids := index.RangeQueryAppend(t, items[i], r, (*buf)[:0])
		var keep []int
		for _, j := range ids {
			if j > i {
				keep = append(keep, j)
			}
		}
		perItem[i] = keep
		*buf = ids[:0] // keep any growth for the next probe
		queryScratch.Put(buf)
	})
	var pairs [][2]int
	for i, ids := range perItem {
		for _, j := range ids {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	sortPairs(pairs)
	return pairs
}

// sortPairsInsertionMax is the largest pair count sorted by insertion sort.
// The pair lists MCCATCH gels are usually tiny (|A| ≪ n), where insertion
// sort beats sort.Slice's overhead; beyond it, sort.Slice keeps
// adversarially dense gelling radii O(k log k) instead of O(k²).
const sortPairsInsertionMax = 32

func sortPairs(pairs [][2]int) {
	if len(pairs) > sortPairsInsertionMax {
		sort.Slice(pairs, func(a, b int) bool { return lessPair(pairs[a], pairs[b]) })
		return
	}
	for a := 1; a < len(pairs); a++ {
		for b := a; b > 0 && lessPair(pairs[b], pairs[b-1]); b-- {
			pairs[b], pairs[b-1] = pairs[b-1], pairs[b]
		}
	}
}

func lessPair(x, y [2]int) bool {
	if x[0] != y[0] {
		return x[0] < y[0]
	}
	return x[1] < y[1]
}

// chunkLen picks how many of the remaining radii the next batched probe
// should cover for an item whose current count is prev: the headroom below
// the excusal cap, discounted by a conservative 8× count growth per radius
// (counts grow ~2^dim per doubled radius; 8 covers intrinsic dimensions up
// to 3 and over-batching merely wastes part of one probe, never changes
// the counts). Far below the cap, probes are path-dominated and batching
// several radii amortizes the root-to-shell walk; near the cap, probes are
// shell-dominated and the chunk shrinks to one radius so the gating stops
// exactly where the radius-by-radius gating did.
func chunkLen(prev, cap int) int {
	if prev < 1 {
		prev = 1
	}
	c := 0
	for h := cap / prev; h >= 8; h /= 8 {
		c++
	}
	if c < 1 {
		c = 1
	}
	return c
}

// MultiRadiusCounts computes the neighbor counts q[e][i] of every item i at
// every radius radii[e], applying the sparse-focused principle with the
// index layer's batched counter: each item walks the radius schedule in
// adaptive chunks, paying ONE tree traversal per chunk
// (index.RangeCountMulti on the still-relevant radius suffix) instead of
// one per radius, and stops as soon as its count exceeds cap. Counts are
// monotone in the radius and plateaus higher than cap are excused (paper
// Sec. IV-G), so an excused item's count is carried forward to all later
// radii — also inside a chunk that overshot the excusal point — which
// keeps it above cap and therefore excused: exactly the counts the
// radius-by-radius gating produced, in a fraction of the traversals.
//
// When lastIsDiameter is true and there are at least two radii, the final
// radius is known to cover the whole dataset (small-radii-only principle),
// so its counts are set to t.Size() without probing and the chunks cover
// only the radii before it.
func MultiRadiusCounts[T any](t index.Index[T], items []T, radii []float64, cap int, lastIsDiameter bool, workers int) [][]int {
	a := len(radii)
	q := make([][]int, a)
	if a == 0 {
		return q
	}
	for e := range q {
		q[e] = make([]int, len(items))
	}
	probeHi := probedRadii(a, lastIsDiameter) // radii[:probeHi] need probing
	if probeHi < a {
		n := t.Size()
		for i := range q[a-1] {
			q[a-1][i] = n
		}
	}
	// rowScratch pools the per-item count rows plus the batched-probe
	// buffer: each worker recycles one allocation across all of its
	// items, so steady-state probing allocates zero bytes.
	type scratch struct{ row, buf []int }
	var rowScratch = sync.Pool{New: func() any { return &scratch{row: make([]int, probeHi)} }}
	parallel.For(workers, len(items), func(i int) {
		sc := rowScratch.Get().(*scratch)
		row := sc.row
		row[0] = t.RangeCount(items[i], radii[0])
		e := 1
		for e < probeHi && row[e-1] <= cap {
			hi := e + chunkLen(row[e-1], cap)
			if hi > probeHi {
				hi = probeHi
			}
			if hi == e+1 {
				// Near the cap the chunk degenerates to one radius; a
				// plain probe skips the batch bookkeeping.
				row[e] = t.RangeCount(items[i], radii[e])
				e = hi
				continue
			}
			sub := index.RangeCountMultiAppend(t, items[i], radii[e:hi], sc.buf[:0])
			sc.buf = sub[:0] // keep any growth for the next probe
			for k, c := range sub {
				if prev := row[e+k-1]; prev > cap {
					c = prev // overshot the excusal point: carry instead
				}
				row[e+k] = c
			}
			e = hi
		}
		for ; e < probeHi; e++ {
			row[e] = row[e-1] // excused: carried forward, stays excused
		}
		for e, c := range row {
			q[e][i] = c
		}
		rowScratch.Put(sc)
	})
	return q
}

// SelfMultiRadiusCounts is MultiRadiusCounts for the tree's OWN elements:
// items must be exactly the indexed elements in insertion order. It
// returns the matrix that one CountAllMulti over the whole schedule
// followed by GateCounts returns, computed the cheapest way the index
// allows. An index that is not an index.SelfMultiCounter falls back to
// the gated per-item batched probes.
//
// Under the sparse-focused principle a count above cap excuses its item:
// its counts at larger radii are never used (GateCounts carries the
// excusing count forward instead). Most items are excused well before
// the last probed radius — on the HTTP scene at 22,202 points, 77%
// exceed the cap at r₉ and all but 124 by r₁₀, while the dual join
// spends over half of its time on r₁₀ and beyond. So when the index is
// also an index.CrossCounter the counts come in stages: CountAllMulti
// over radii[:k], then for each later probed radius one cross join of
// the items still at or below the cap (the survivors) against the
// index. The split index k is the radius after the first one at which
// at least half of an evenly strided sample exceeds the cap, decided
// with single-radius probes of the sample: the second-to-last probed
// radius first, and a binary search below it only when half the sample
// exceeds the cap there. When k would reach the last probed radius, or
// the index has no CrossCounter, CountAllMulti runs over the whole
// schedule as one traversal.
func SelfMultiRadiusCounts[T any](t index.Index[T], items []T, radii []float64, cap int, lastIsDiameter bool, workers int) [][]int {
	if _, ok := t.(index.SelfMultiCounter); !ok || t.Size() != len(items) {
		return MultiRadiusCounts(t, items, radii, cap, lastIsDiameter, workers)
	}
	k := splitIndex(t, items, radii, cap, lastIsDiameter, workers)
	return stagedCounts(t, items, radii, cap, lastIsDiameter, workers, k)
}

// splitSample is how many evenly strided points the split decision of
// SelfMultiRadiusCounts counts.
const splitSample = 32

// probedRadii is how many leading radii of an a-radius schedule the
// gated counts probe: all of them, or all but the last when it is the
// diameter (GateCounts pins that row to n).
func probedRadii(a int, lastIsDiameter bool) int {
	if lastIsDiameter && a >= 2 {
		return a - 1
	}
	return a
}

// splitIndex is SelfMultiRadiusCounts' choice of k; it returns
// probedRadii(...) to mean one traversal, without staging.
func splitIndex[T any](t index.Index[T], items []T, radii []float64, cap int, lastIsDiameter bool, workers int) int {
	probeHi := probedRadii(len(radii), lastIsDiameter)
	if _, ok := t.(index.CrossCounter[T]); !ok || probeHi < 3 {
		return probeHi // staging needs a CrossCounter and 1 ≤ k < probeHi-1
	}
	m := min(splitSample, len(items))
	above := make([]bool, m)
	// halfAbove reports whether at least half the sample counts more
	// than cap neighbors within radii[e].
	halfAbove := func(e int) bool {
		parallel.For(workers, m, func(j int) {
			above[j] = t.RangeCount(items[j*len(items)/m], radii[e]) > cap
		})
		hits := 0
		for _, b := range above {
			if b {
				hits++
			}
		}
		return 2*hits >= m
	}
	hi := probeHi - 2
	if !halfAbove(hi) {
		return probeHi
	}
	lo := 0
	for lo < hi {
		if mid := (lo + hi) / 2; halfAbove(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if k := hi + 1; k < probeHi-1 {
		return k
	}
	return probeHi
}

// stagedCounts is SelfMultiRadiusCounts at a given split index k ≥ 1
// over an index that is a SelfMultiCounter; k at or beyond the probed
// radii runs CountAllMulti over the whole schedule, and k below them
// needs an index.CrossCounter too.
func stagedCounts[T any](t index.Index[T], items []T, radii []float64, cap int, lastIsDiameter bool, workers int, k int) [][]int {
	n := len(items)
	probeHi := probedRadii(len(radii), lastIsDiameter)
	smc := t.(index.SelfMultiCounter)
	if k >= probeHi {
		q := smc.CountAllMulti(radii, workers)
		GateCounts(q, n, cap, lastIsDiameter, workers)
		return q
	}
	q := smc.CountAllMulti(radii[:k], workers)
	for range radii[k:] {
		q = append(q, make([]int, n))
	}
	var survivors []int
	for i, c := range q[k-1] {
		if c <= cap {
			survivors = append(survivors, i)
		}
	}
	// Rows from k on hold the survivors' true counts; everyone else's
	// stay 0 until GateCounts carries their excusing count into them.
	cc := t.(index.CrossCounter[T])
	sub := make([]T, 0, len(survivors))
	for e := k; e < probeHi && len(survivors) > 0; e++ {
		sub = sub[:0]
		for _, i := range survivors {
			sub = append(sub, items[i])
		}
		row := q[e]
		for j, c := range cc.CountCrossMulti(sub, radii[e:e+1], workers)[0] {
			row[survivors[j]] = c
		}
		kept := survivors[:0]
		for _, i := range survivors {
			if row[i] <= cap {
				kept = append(kept, i)
			}
		}
		survivors = kept
	}
	GateCounts(q, n, cap, lastIsDiameter, workers)
	return q
}

// GateCounts rewrites a matrix of TRUE counts q[e][i] in place into the
// gated counts the per-point probing path produces: when lastIsDiameter
// is true (and there are at least two radii) the final row is pinned to
// n without consulting the true counts — the gated path never probes the
// diameter radius, and pinning keeps the paths in agreement even when
// the diameter ESTIMATE falls marginally short of covering every pair —
// and a count that exceeds cap is carried forward to every later probed
// radius (the sparse-focused excusal). It is the one definition of the
// gating rule for every producer of true counts: the staged
// SelfMultiRadiusCounts applies it to the matrix its stages assemble,
// where a row holds true counts for every item not yet excused before
// it, which is all the rule reads.
func GateCounts(q [][]int, n, cap int, lastIsDiameter bool, workers int) {
	a := len(q)
	if a == 0 {
		return
	}
	probeHi := probedRadii(a, lastIsDiameter)
	if probeHi < a {
		for i := range q[a-1] {
			q[a-1][i] = n
		}
	}
	parallel.For(workers, len(q[0]), func(i int) {
		for e := 1; e < probeHi; e++ {
			if prev := q[e-1][i]; prev > cap {
				q[e][i] = prev
			}
		}
	})
}

// CrossMultiRadiusCounts returns counts[e][i] = the number of indexed
// elements within radii[e] (inclusive) of queries[i] — TRUE counts, no
// gating. When the index can count-join a second set (index.CrossCounter
// — every bundled backend), the whole matrix comes from ONE dual
// traversal of the index against a throwaway tree over the queries;
// other backends fall back to one batched probe per query. Both paths
// return identical results at every worker count. It is the counting
// sibling of BridgeRadii.
func CrossMultiRadiusCounts[T any](t index.Index[T], queries []T, radii []float64, workers int) [][]int {
	if cc, ok := t.(index.CrossCounter[T]); ok {
		return cc.CountCrossMulti(queries, radii, workers)
	}
	a := len(radii)
	q := make([][]int, a)
	for e := range q {
		q[e] = make([]int, len(queries))
	}
	if a == 0 || len(queries) == 0 || t.Size() == 0 {
		return q
	}
	var bufScratch = sync.Pool{New: func() any { s := make([]int, 0, a); return &s }}
	parallel.For(workers, len(queries), func(i int) {
		bufp := bufScratch.Get().(*[]int)
		counts := index.RangeCountMultiAppend(t, queries[i], radii, (*bufp)[:0])
		for e, c := range counts {
			q[e][i] = c
		}
		*bufp = counts[:0]
		bufScratch.Put(bufp)
	})
	return q
}

// BridgeRadii finds, for every outlier, the index e of the smallest radius
// at which it has at least one inlier neighbor (paper Alg. 4 L4-12): the
// bridge length is then radii[e-1]. Outliers that never meet an inlier get
// len(radii) (callers treat the bridge as the largest radius). When the
// inlier index can join a second set (index.CrossMultiCounter — every
// bundled backend), the whole answer comes from ONE dual traversal of the
// inlier tree against a throwaway tree over the outliers; other backends
// fall back to the batched per-point probes of BridgeRadiiPerPoint. Both
// paths return bit-identical results at every worker count: the dual join
// resolves each outlier's true first index exactly (bounds only ever
// defer ambiguous pairs, never approximate them), which is the quantity
// the per-point probing stops at.
func BridgeRadii[T any](inliers index.Index[T], outliers []T, radii []float64, workers int) []int {
	if cmc, ok := inliers.(index.CrossMultiCounter[T]); ok {
		return cmc.BridgeFirsts(outliers, radii, workers)
	}
	return BridgeRadiiPerPoint(inliers, outliers, radii, workers)
}

// BridgeRadiiPerPoint is the generic bridge search: each outlier probes
// the inlier tree in doubling chunks of the radius schedule — one batched
// traversal per chunk (index.RangeCountMulti) — and stops at the first
// radius with a nonzero count (counts are monotone in the radius, so this
// matches probing radius by radius and stopping at the first hit). It is
// the fallback for indexes without a native cross-join, and the reference
// the equivalence tests and benchmarks hold BridgeRadii's dual path to.
func BridgeRadiiPerPoint[T any](inliers index.Index[T], outliers []T, radii []float64, workers int) []int {
	a := len(radii)
	first := make([]int, len(outliers))
	var bufScratch = sync.Pool{New: func() any { s := make([]int, 0, a+1); return &s }}
	parallel.For(workers, len(outliers), func(i int) {
		bufp := bufScratch.Get().(*[]int)
		defer bufScratch.Put(bufp)
		e, chunk := 0, 4
		for e < a {
			hi := e + chunk
			if hi > a {
				hi = a
			}
			counts := index.RangeCountMultiAppend(inliers, outliers[i], radii[e:hi], (*bufp)[:0])
			*bufp = counts[:0] // keep any growth for the next probe
			for k, c := range counts {
				if c > 0 {
					first[i] = e + k
					return
				}
			}
			e = hi
			chunk *= 2
		}
		first[i] = a
	})
	return first
}
