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
// join itself (index.SelfMultiCounter), Step II's counts instead come in
// stages (SelfClippedCounts): one dual-tree traversal of the index
// against itself over the radii up to a split radius read off a sample,
// then, per later radius, one capped count (index.CappedCounter) of only
// the points not yet excused, each stopping at its own limit. Step II
// reads a count above the cap only through "above the cap" and one
// slope test, so that count is clipped (ClipCounts) without changing a
// plateau, and the capped counts need only reach the clip. The stages
// fall back to per-item capped probes, so staging needs no capability
// beyond the self-join. When the query
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
	"math"
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
// followed by GateCounts returns: SelfClippedCounts with no clip.
func SelfMultiRadiusCounts[T any](t index.Index[T], items []T, radii []float64, cap int, lastIsDiameter bool, workers int) [][]int {
	return SelfClippedCounts(t, items, radii, cap, math.Inf(1), lastIsDiameter, workers)
}

// SelfClippedCounts is Step II's count matrix for the tree's OWN
// elements (items must be exactly the indexed elements in insertion
// order), for plateau slope b: the matrix one CountAllMulti over the
// whole schedule followed by GateCounts and then ClipCounts returns,
// computed the cheapest way the index allows. An index that is not an
// index.SelfMultiCounter falls back to the gated per-item batched
// probes, then the clip.
//
// Under the sparse-focused principle a count above cap excuses its item,
// and the plateaus read that first excusing count only through "> cap"
// and one slope test, so it may be clipped (ClipCounts). Most items are
// excused well before the last probed radius — on the HTTP scene at
// 22,202 points, 77% exceed the cap at r₉ and all but 124 by r₁₀, while
// the dual join spends most of its time on its top radius. So the
// counts come in stages: CountAllMulti over radii[:k], then for each
// later probed radius one capped count (index.CappedCounter) of the
// items still at or below the cap (the survivors), each clipped at its
// own limit. The split index k is read off an evenly strided sample
// with single-radius probes (splitIndex); when fewer than two probed
// radii would be staged, CountAllMulti runs over the whole schedule as
// one traversal.
func SelfClippedCounts[T any](t index.Index[T], items []T, radii []float64, cap int, b float64, lastIsDiameter bool, workers int) [][]int {
	if _, ok := t.(index.SelfMultiCounter); !ok || t.Size() != len(items) {
		q := MultiRadiusCounts(t, items, radii, cap, lastIsDiameter, workers)
		ClipCounts(q, cap, b, lastIsDiameter, workers)
		return q
	}
	k := splitIndex(t, items, radii, cap, b, lastIsDiameter, workers)
	return stagedCounts(t, items, radii, cap, b, lastIsDiameter, workers, k)
}

// splitSample is how many evenly strided points the split decision of
// SelfClippedCounts counts.
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

// splitIndex is SelfClippedCounts' choice of k; it returns
// probedRadii(...) to mean one traversal, without staging. Let e* be
// the first probed radius at which at least an eighth of the sample
// exceeds cap, found by a binary search over single-radius probes of
// the sample. The stages start at e* when the sample's clipped count
// mass there — what the survivors would count, each up to its clip
// limit — is at most half its full mass, what the self-join would
// count for the whole sample; otherwise they start one radius later.
// Fewer than two staged radii never pay for the stage, so then the
// self-join runs over the whole schedule.
func splitIndex[T any](t index.Index[T], items []T, radii []float64, cap int, b float64, lastIsDiameter bool, workers int) int {
	probeHi := probedRadii(len(radii), lastIsDiameter)
	if probeHi < 2 || len(items) == 0 {
		return probeHi
	}
	m := min(splitSample, len(items))
	sample := func(j int) T { return items[j*len(items)/m] }
	above := make([]bool, m)
	// eighthAbove reports whether at least an eighth of the sample counts
	// more than cap neighbors within radii[e].
	eighthAbove := func(e int) bool {
		parallel.For(workers, m, func(j int) {
			above[j] = t.RangeCount(sample(j), radii[e]) > cap
		})
		hits := 0
		for _, a := range above {
			if a {
				hits++
			}
		}
		return 8*hits >= m
	}
	hi := probeHi - 2
	if !eighthAbove(hi) {
		return probeHi
	}
	lo := 0
	for lo < hi {
		if mid := (lo + hi) / 2; eighthAbove(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	k := hi + 1
	if clippedHalf(t, sample, m, radii, hi, cap, b) {
		k = hi
	}
	if probeHi-k < 2 {
		return probeHi
	}
	return k
}

// clippedHalf reports whether the sample's clipped count mass at
// radii[e] is at most half its full mass: the full mass sums every
// sample point's count there, the clipped mass only the points still
// at or below cap before e, each clipped at its limit.
func clippedHalf[T any](t index.Index[T], sample func(int) T, m int, radii []float64, e, cap int, b float64) bool {
	factor := clipFactor(b)
	from := max(e-1, 0)
	var buf []int
	full, clipped := 0, 0
	for j := 0; j < m; j++ {
		buf = index.RangeCountMultiAppend(t, sample(j), radii[from:e+1], buf[:0])
		c, prev := buf[len(buf)-1], 0
		if e > 0 {
			prev = buf[0]
		}
		full += c
		if prev <= cap {
			clipped += min(c, clipLimit(prev, cap, factor))
		}
	}
	return 2*clipped <= full
}

// stagedCounts is SelfClippedCounts at a given split index k ≥ 0 over
// an index that is a SelfMultiCounter; k at or beyond the probed radii
// runs CountAllMulti over the whole schedule.
func stagedCounts[T any](t index.Index[T], items []T, radii []float64, cap int, b float64, lastIsDiameter bool, workers int, k int) [][]int {
	n := len(items)
	probeHi := probedRadii(len(radii), lastIsDiameter)
	smc := t.(index.SelfMultiCounter)
	if k >= probeHi {
		q := smc.CountAllMulti(radii, workers)
		GateCounts(q, n, cap, lastIsDiameter, workers)
		ClipCounts(q, cap, b, lastIsDiameter, workers)
		return q
	}
	var q [][]int
	if k > 0 {
		q = smc.CountAllMulti(radii[:k], workers)
	}
	for range radii[k:] {
		q = append(q, make([]int, n))
	}
	// Each staged row holds the survivors' counts, each clipped at its
	// limit, and carries every excused item's count forward: a count
	// below its limit is exact, and one that reaches it is above cap,
	// so the row is exactly the gated and clipped one.
	factor := clipFactor(b)
	limits := make([]int, n)
	for e := k; e < probeHi; e++ {
		row, open := q[e], false
		for i := range limits {
			prev := 0
			if e > 0 {
				prev = q[e-1][i]
			}
			if prev > cap {
				row[i], limits[i] = prev, 0
				continue
			}
			limits[i], open = clipLimit(prev, cap, factor), true
		}
		if open {
			CountAllCapped(t, items, radii[e], limits, row, workers)
		}
	}
	GateCounts(q, n, cap, lastIsDiameter, workers)
	ClipCounts(q, cap, b, lastIsDiameter, workers)
	return q
}

// CountAllCapped is index.CappedCounter's CountAllCapped for any index
// over items, the indexed elements in id order: native where the index
// has it, per-item capped probes otherwise.
func CountAllCapped[T any](t index.Index[T], items []T, r float64, limits, dst []int, workers int) {
	if cc, ok := t.(index.CappedCounter[T]); ok {
		cc.CountAllCapped(r, limits, dst, workers)
		return
	}
	parallel.For(workers, len(items), func(i int) {
		if limits[i] > 0 {
			dst[i] = index.RangeCountCapped(t, items[i], r, limits[i])
		}
	})
}

// clipDelta is the margin δ of the clip limit: far above math.Log2's
// rounding error, so a clipped count's slope test needs no monotonicity
// of the floating-point logarithm to come out the same.
const clipDelta = 1e-6

// clipFactor is 2^(b+δ), the growth a count must exceed to break a
// plateau of slope b with margin δ.
func clipFactor(b float64) float64 { return math.Exp2(b + clipDelta) }

// clipLimit is the limit U = max(cap+1, ⌈prev·factor⌉) of a count that
// follows a count prev ≤ cap (prev = 0 at the first radius), for
// factor = clipFactor(b); math.MaxInt when U would not fit, which never
// clips, and always for an infinite b, which clips nothing. Clipping a
// count above cap at U keeps it above cap, and keeps its slope test
// against prev failing (U ≥ prev·2^(b+δ)) exactly when the unclipped
// count's did.
func clipLimit(prev, cap int, factor float64) int {
	if math.IsInf(factor, 1) {
		return math.MaxInt
	}
	u := cap + 1
	if prev > 0 {
		f := math.Ceil(float64(prev) * factor)
		if !(f < 1<<53) {
			return math.MaxInt
		}
		u = max(u, int(f))
	}
	return u
}

// ClipCounts rewrites a gated count matrix (GateCounts' output) in
// place into the clipped one: each item's first count above cap at a
// probed radius e, and the copies GateCounts carried forward from it,
// are clipped to U = max(cap+1, ⌈q[e−1]·2^(b+δ)⌉) (U = cap+1 when e is
// the first radius). The plateaus (Def. 1) read that count only through
// "> cap" and the slope test against q[e−1], both of which U keeps, so
// OracleX and OracleY are unchanged (Defs. 2 and 3 read no plateau
// higher than cap, and the pinned diameter row only ever follows one).
// It is the one definition of the clip for every producer of Step II's
// counts; b = +Inf clips nothing.
func ClipCounts(q [][]int, cap int, b float64, lastIsDiameter bool, workers int) {
	if len(q) == 0 {
		return
	}
	probeHi := probedRadii(len(q), lastIsDiameter)
	factor := clipFactor(b)
	parallel.For(workers, len(q[0]), func(i int) {
		for e := 0; e < probeHi; e++ {
			c := q[e][i]
			if c <= cap {
				continue
			}
			prev := 0
			if e > 0 {
				prev = q[e-1][i]
			}
			if u := clipLimit(prev, cap, factor); c > u {
				for f := e; f < probeHi; f++ {
					q[f][i] = u
				}
			}
			return
		}
	})
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
