// Package index defines the access-method interface MCCATCH's joins run
// on. The paper's footnote 4 prescribes metric trees (Slim-tree, M-tree)
// for nondimensional data and kd-trees for main-memory vector data; both
// of this repository's trees satisfy Index, so the pipeline can swap them
// (and the benchmarks can ablate the choice).
//
// Beyond the base Index contract, backends may implement several optional
// extensions that the joins detect dynamically:
//
//   - MultiCounter batches the neighbor counts at several nested radii
//     into one tree traversal. MCCATCH's Step II probes every point at up
//     to a radii, and the radii are nested, so each traversal can classify
//     a subtree once for the whole radius schedule instead of re-deriving
//     the same pruning decisions per radius. All three bundled trees
//     implement it natively; RangeCountMulti falls back to one RangeCount
//     per radius for any other backend.
//   - SelfMultiCounter answers the Step II self-join — every indexed
//     element's counts at every radius — from ONE dual traversal of the
//     index against itself. All three bundled trees implement it natively
//     (the slim-tree with covering-ball bounds, the kd-tree and R-tree
//     with min/max box-distance bounds); join.SelfMultiRadiusCounts falls
//     back to gated per-point probes for any other backend. Step II
//     (join.SelfClippedCounts) runs the self-join only up to a split
//     radius and counts the rest for the points not yet excused, with a
//     CappedCounter where the index has one.
//   - CappedCounter counts only up to a limit: min(true count, limit),
//     per query or for every indexed element at once with a limit each.
//     Step II reads a count above the microcluster cap only through "is
//     it above the cap" and one slope test, so past the split radius the
//     staged join.SelfClippedCounts asks each point not yet excused for
//     its count clipped to a limit instead of its full count. The kd-tree
//     and R-tree answer the batched form one leaf of their own tree at a
//     time; the slim-tree answers it per element. Each backend's
//     per-query form is its RangeCount traversal stopping at the limit;
//     index.RangeCountCapped falls back to min(RangeCount, limit) for any
//     other backend.
//   - CrossMultiCounter answers the Step IV bridge search — for every
//     outlier, the first radius with an inlier neighbor — from ONE dual
//     traversal of the inlier index against a throwaway tree over the
//     outliers. All three bundled trees implement it natively;
//     join.BridgeRadii falls back to batched per-point probes for any
//     other backend.
//   - QueryAppender lets callers pass a reusable scratch buffer to range
//     queries, cutting per-probe garbage on the hot paths.
//   - KNNer exposes k-nearest-neighbor search where a backend has one.
//
// A sharded index (core.BuildIndex under Params.Shards > 1) is an Index
// over the disjoint union of several trees, one per part: it sums their
// counts, maps their ids back to global ones, and implements
// MultiCountAppender, SelfMultiCounter and CappedCounter on top of the
// parts' own.
//
// internal/segment's Mutable, the LSM-style incremental layer, is not an
// Index: it implements only MultiCountAppender, merging each count probe
// across a mutable memtable and one or more frozen arena segments (counts
// add, tombstones are subtracted at merge). A full detection over a
// dataset under inserts and deletes bulk-builds one fresh index over the
// live set instead.
package index

// Index answers range queries over an indexed dataset of element type T.
type Index[T any] interface {
	// RangeCount returns how many indexed elements lie within distance r
	// of q (inclusive).
	RangeCount(q T, r float64) int
	// RangeQuery returns the ids (insertion positions) of elements within
	// distance r of q.
	RangeQuery(q T, r float64) []int
	// Size returns the number of indexed elements.
	Size() int
	// DiameterEstimate estimates the diameter of the indexed set.
	DiameterEstimate() float64
}

// MultiCounter is the optional batched-counting extension: one traversal
// answers the neighbor count at every radius of an ascending schedule.
type MultiCounter[T any] interface {
	// RangeCountMulti returns, for each radius of radii (which MUST be
	// sorted ascending), how many indexed elements lie within that radius
	// of q (inclusive). The result is element-wise identical to calling
	// RangeCount once per radius; native implementations produce it from a
	// single root-to-leaf traversal.
	RangeCountMulti(q T, radii []float64) []int
}

// SelfMultiCounter is the optional self-join extension: the neighbor
// counts of every INDEXED element at every radius of an ascending
// schedule, from one dual traversal of the index against itself. Where
// MultiCounter amortizes one query's traversals across radii, this
// amortizes across query points too: subtree-against-subtree bounds
// classify whole blocks of element pairs at once. It is keyed by element
// id rather than by query value, so it applies only when the query set is
// exactly the indexed set. All three bundled trees implement it.
type SelfMultiCounter interface {
	// CountAllMulti returns counts[e][id] = the number of indexed
	// elements within radii[e] of element id (inclusive, so ≥ 1). radii
	// must be sorted ascending. Results are identical for every worker
	// count (≤ 0 means all cores, 1 means serial).
	CountAllMulti(radii []float64, workers int) [][]int
}

// CrossMultiCounter is the optional cross-set dual-join extension, serving
// Step IV's bridge searches (paper Alg. 4 L4-12): given a batch of query
// elements DISJOINT from the indexed set (the outliers, probing the inlier
// tree), one subtree-vs-subtree traversal finds for every query the first
// radius of an ascending schedule at which it has at least one indexed
// neighbor. Where MultiCounter amortizes one query's traversal across
// radii, this amortizes across the query set too: the implementation
// bulk-builds a throwaway tree over the queries and classifies query
// subtrees against index subtrees with min/max-distance windows, so whole
// blocks of query×element pairs settle at once. All three bundled trees
// implement it; join.BridgeRadii falls back to batched per-query probes
// for any other backend, and both paths return identical results.
type CrossMultiCounter[T any] interface {
	// BridgeFirsts returns, for each query, the index e of the first
	// radius with at least one indexed element within radii[e]
	// (inclusive), or len(radii) when even the largest radius finds
	// none. radii must be sorted ascending. The result is identical to
	// probing each query radius by radius and identical for every
	// worker count (≤ 0 means all cores, 1 means serial).
	BridgeFirsts(queries []T, radii []float64, workers int) []int
}

// CrossCounter is the optional cross-set COUNTING dual-join extension:
// where CrossMultiCounter resolves only each query's FIRST nonempty
// radius (all Step IV needs), this returns each query's full neighbor
// count at every radius of an ascending schedule — the quantity a
// sharded index sums across its parts to count a part's elements
// against the other parts, and what join.CrossMultiRadiusCounts
// returns. Implementations bulk-build a throwaway tree over the queries
// and classify query subtrees against index subtrees wholesale, exactly
// like the self-join but crediting one-directionally. All three bundled
// trees implement it; join.CrossMultiRadiusCounts falls back to batched
// per-query probes for any other backend, and both paths return
// identical results.
type CrossCounter[T any] interface {
	// CountCrossMulti returns counts[e][i] = the number of indexed
	// elements within radii[e] (inclusive) of queries[i]. radii must be
	// sorted ascending. Counts are exact (no gating) and identical for
	// every worker count (≤ 0 means all cores, 1 means serial).
	CountCrossMulti(queries []T, radii []float64, workers int) [][]int
}

// CappedCounter is the optional clipped-counting extension behind the
// staged Step II (join.SelfClippedCounts): counts that stop at a limit.
// A count below its limit is the exact count, so a caller that only
// needs to know whether a count reaches a limit, or its value when it
// does not, can let the traversal stop once it gets there.
type CappedCounter[T any] interface {
	// RangeCountCapped returns min(RangeCount(q, r), limit); a limit ≤ 0
	// gives 0 without a traversal.
	RangeCountCapped(q T, r float64, limit int) int
	// CountAllCapped sets dst[id] = min(the number of indexed elements
	// within r of element id (inclusive, so ≥ 1), limits[id]) for every
	// indexed element id whose limit is positive, and leaves the other
	// slots of dst as they are. limits and dst have one slot per indexed
	// element, in id order. Results are identical for every worker
	// count (≤ 0 means all cores, 1 means serial).
	CountAllCapped(r float64, limits, dst []int, workers int)
}

// KNNer is the optional k-nearest-neighbor extension. The slim-tree and
// kd-tree answer it natively (best-first traversals with ties settled by
// insertion id); callers that need it on another backend must tolerate
// its absence.
type KNNer[T any] interface {
	// KNN returns the ids of the k indexed elements nearest to q together
	// with their distances, sorted ascending by (distance, id); fewer than
	// k when the index holds fewer elements.
	KNN(q T, k int) (ids []int, dists []float64)
}

// QueryAppender is the optional allocation-saving extension: range queries
// that append into a caller-provided buffer instead of allocating one.
type QueryAppender[T any] interface {
	// RangeQueryAppend appends the ids of elements within distance r of q
	// (inclusive) to dst — reusing dst's capacity — and returns the
	// extended slice.
	RangeQueryAppend(q T, r float64, dst []int) []int
}

// MultiCountAppender is the allocation-free form of MultiCounter: the
// batched counts are appended into a caller-provided buffer, so a hot
// loop recycling one scratch slice per worker pays ZERO allocations per
// probe in steady state (all three bundled arena trees also keep their
// internal traversal scratch in pooled per-worker slices). All three
// bundled trees implement it.
type MultiCountAppender[T any] interface {
	// RangeCountMultiAppend appends RangeCountMulti(q, radii)'s counts to
	// dst — reusing dst's capacity — and returns the extended slice.
	RangeCountMultiAppend(q T, radii []float64, dst []int) []int
}

// RangeCountMulti dispatches to the index's native batched counter when it
// has one, and otherwise falls back to one RangeCount probe per radius.
// radii must be sorted ascending.
func RangeCountMulti[T any](t Index[T], q T, radii []float64) []int {
	if mc, ok := t.(MultiCounter[T]); ok {
		return mc.RangeCountMulti(q, radii)
	}
	counts := make([]int, len(radii))
	for e, r := range radii {
		counts[e] = t.RangeCount(q, r)
	}
	return counts
}

// RangeCountMultiAppend dispatches to the index's buffer-reusing batched
// counter when it has one, and otherwise appends the result of
// RangeCountMulti (which itself falls back to per-radius probes on
// backends without a native batched counter). radii must be sorted
// ascending.
func RangeCountMultiAppend[T any](t Index[T], q T, radii []float64, dst []int) []int {
	if mc, ok := t.(MultiCountAppender[T]); ok {
		return mc.RangeCountMultiAppend(q, radii, dst)
	}
	return append(dst, RangeCountMulti(t, q, radii)...)
}

// RangeCountCapped dispatches to the index's native capped counter when
// it has one, and otherwise returns min(RangeCount(q, r), limit). A
// limit ≤ 0 gives 0 without probing.
func RangeCountCapped[T any](t Index[T], q T, r float64, limit int) int {
	if limit <= 0 {
		return 0
	}
	if cc, ok := t.(CappedCounter[T]); ok {
		return cc.RangeCountCapped(q, r, limit)
	}
	return min(t.RangeCount(q, r), limit)
}

// RangeQueryAppend dispatches to the index's buffer-reusing range query
// when it has one, and otherwise appends the result of a plain RangeQuery.
func RangeQueryAppend[T any](t Index[T], q T, r float64, dst []int) []int {
	if qa, ok := t.(QueryAppender[T]); ok {
		return qa.RangeQueryAppend(q, r, dst)
	}
	return append(dst, t.RangeQuery(q, r)...)
}

// Builder constructs an Index over a dataset; MCCATCH builds several trees
// per run (full set, group candidates, inliers).
type Builder[T any] func(items []T) Index[T]
