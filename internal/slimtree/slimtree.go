// Package slimtree implements a main-memory Slim-tree (Traina Jr. et al.,
// IEEE TKDE 2002): a balanced metric access method in the M-tree family that
// indexes data using only a distance function, never coordinates. MCCATCH
// builds one tree per input set and runs all of its neighbor-counting joins
// through it (paper Alg. 1 L1, Alg. 3 L9, Alg. 4 L2-3).
//
// The tree supports any element type via generics. It is bulk-loaded
// top-down from the whole dataset (bulkload.go); queries use
// triangle-inequality pruning on covering radii and stored parent distances,
// so a range query touches O(n^(1-1/u)) nodes on data of intrinsic
// (correlation fractal) dimension u — the bound MCCATCH's Lemma 1 builds on.
//
// The bulk load builds linked nodes, and freeze flattens them into an
// arena before any query runs: nodes are laid out level by level with
// their entries as one contiguous range [entFirst, entLast) of
// struct-of-arrays entry slices (pivot, the interleaved radius/dPar
// block, count, id, child), and the element ids under every subtree as
// the contiguous range [elemFirst, elemLast) of a packed leafIDs block.
// Traversals therefore stream radius/dPar/count values linearly instead
// of chasing per-node entry slices, and the dual joins credit whole
// subtrees as flat position ranges. The linked nodes are garbage once
// freeze returns; a finished tree is never modified.
package slimtree

import (
	"math"
	"sync/atomic"

	"mccatch/internal/arena"
	"mccatch/internal/diameter"
	"mccatch/internal/dualjoin"
	"mccatch/internal/kernel"
	"mccatch/internal/metric"
)

// DefaultCapacity is the default maximum number of entries per node. 32
// keeps the per-node pivot assignment cheap (every element is compared
// with every pivot of its node) while keeping the tree shallow.
const DefaultCapacity = 32

type entry[T any] struct {
	pivot  T
	id     int      // element index for leaf entries, -1 for internal
	radius float64  // covering radius; 0 for leaf entries
	dPar   float64  // distance from pivot to the parent entry's pivot
	child  *node[T] // nil for leaf entries
	count  int      // elements under this entry (1 for leaf entries)
}

type node[T any] struct {
	leaf    bool
	entries []entry[T]
}

// noEntry marks an absent arena link (no child node, no element id).
const noEntry = -1

// Tree is a Slim-tree over elements of type T. It lives in the flat
// arena fields (see the package comment).
type Tree[T any] struct {
	dist     metric.Distance[T]
	capacity int
	size     int

	// Frozen arena. Nodes are slots assigned level by level (root = 0);
	// entries are slots into the SoA slices below.
	leaf                []bool
	entFirst, entLast   []int32 // node → its entries [first, last)
	elemFirst, elemLast []int32 // node → its element positions [first, last)
	parent              []int32 // node → parent node (noEntry at the root)
	ePivot              []T
	// eRD interleaves the two hottest entry columns — eRD[2k] = covering
	// radius, eRD[2k+1] = parent distance — because every triangle
	// prefilter in the query and join hot loops consults both for the
	// same entry back to back: one block keeps the pair on one cache
	// line where two parallel columns paid two loads a stride apart
	// (ROADMAP j: the ~8% constant overhead vs the old pointer joins on
	// cheap metrics).
	eRD     []float64
	eCount  []int32
	eID     []int32 // leaf entries: element id; internal: noEntry
	eChild  []int32 // internal entries: child node; leaf: noEntry
	ePos    []int32 // leaf entries: packed element position; internal: noEntry
	leafIDs []int32 // packed element ids, depth-first order

	// Kernel coordinate column (kernelize.go): the entry pivots'
	// coordinates, entry-major, built at freeze time when the element
	// type is []float64 and the metric is metric.Euclidean itself; nil
	// otherwise, and every scan keeps the generic per-entry path.
	kc   []float64
	kdim int
	// Levenshtein pivot column (kernelize.go): ePivot itself, typed
	// []string, when the metric is metric.Levenshtein itself; nil
	// otherwise. The probes and the dual self-join then evaluate through
	// prepared metric.LevenshteinPatterns.
	lp []string

	// distCalls counts metric evaluations (atomically, so concurrent
	// read-only queries may share a tree); experiments use it to verify the
	// subquadratic query behavior that Lemma 1 predicts.
	distCalls atomic.Int64

	// src is the backing index file when the tree was produced by
	// OpenVec/OpenStr (the arena columns are views into its mapping); nil
	// for trees built in memory.
	src *arena.File
	// diam holds the persisted diameter estimate of a file-backed tree
	// (diamValid true): the estimator is deterministic over the same data
	// and metric, so returning the stored value keeps the radii schedule —
	// and the whole pipeline — byte-identical while skipping the O(k·n)
	// metric evaluations a cold re-estimate would cost.
	diam      float64
	diamValid bool
}

// DistCalls returns the number of metric evaluations performed so far.
func (t *Tree[T]) DistCalls() int64 { return t.distCalls.Load() }

// ResetDistCalls zeroes the metric-evaluation counter.
func (t *Tree[T]) ResetDistCalls() { t.distCalls.Store(0) }

// Size returns the number of indexed elements.
func (t *Tree[T]) Size() int { return t.size }

func (t *Tree[T]) d(a, b T) float64 {
	t.distCalls.Add(1)
	return t.dist(a, b)
}

// freeze flattens the linked tree under root into the arena. A
// breadth-first walk assigns node slots level by level — each node's
// entries land in one contiguous SoA range, in entry order — and a
// depth-first pass packs the element ids under every subtree into one
// contiguous leafIDs range (the bulk loader makes a leaf of any group
// that fits one node, so leaves need not all sit at the same depth, and
// the element order is the depth-first one rather than the last
// level's). No metric is ever evaluated here.
func (t *Tree[T]) freeze(root *node[T]) {
	// Pre-count nodes and entries so every arena slice is allocated
	// exactly once (append-grown slices would copy log-many times and
	// strand up to half their capacity).
	nNodes, nEntries := 0, 0
	var count func(n *node[T])
	count = func(n *node[T]) {
		nNodes++
		nEntries += len(n.entries)
		for i := range n.entries {
			if n.entries[i].child != nil {
				count(n.entries[i].child)
			}
		}
	}
	count(root)
	t.leaf = make([]bool, 0, nNodes)
	t.entFirst = make([]int32, 0, nNodes)
	t.entLast = make([]int32, 0, nNodes)
	t.parent = make([]int32, 0, nNodes)
	t.ePivot = make([]T, 0, nEntries)
	t.eRD = make([]float64, 0, 2*nEntries)
	t.eCount = make([]int32, 0, nEntries)
	t.eID = make([]int32, 0, nEntries)
	t.eChild = make([]int32, 0, nEntries)
	t.ePos = make([]int32, 0, nEntries)
	t.leafIDs = make([]int32, 0, t.size)
	type item struct {
		n   *node[T]
		par int32
	}
	queue := make([]item, 0, nNodes)
	queue = append(queue, item{root, noEntry})
	for at := 0; at < len(queue); at++ {
		n := queue[at].n
		t.leaf = append(t.leaf, n.leaf)
		t.parent = append(t.parent, queue[at].par)
		t.entFirst = append(t.entFirst, int32(len(t.eID)))
		for i := range n.entries {
			e := &n.entries[i]
			t.ePivot = append(t.ePivot, e.pivot)
			t.eRD = append(t.eRD, e.radius, e.dPar)
			t.eCount = append(t.eCount, int32(e.count))
			t.eID = append(t.eID, int32(e.id))
			t.ePos = append(t.ePos, noEntry)
			if e.child != nil {
				t.eChild = append(t.eChild, int32(len(queue)))
				queue = append(queue, item{e.child, int32(at)})
			} else {
				t.eChild = append(t.eChild, noEntry)
			}
		}
		t.entLast = append(t.entLast, int32(len(t.eID)))
	}
	t.elemFirst = make([]int32, len(t.leaf))
	t.elemLast = make([]int32, len(t.leaf))
	t.assignElems(0)
	t.kernelize()
}

// assignElems packs the element ids under node n depth-first, recording
// the node's contiguous position range and each leaf entry's position.
func (t *Tree[T]) assignElems(n int32) {
	t.elemFirst[n] = int32(len(t.leafIDs))
	for k := t.entFirst[n]; k < t.entLast[n]; k++ {
		if c := t.eChild[k]; c >= 0 {
			t.assignElems(c)
			continue
		}
		t.ePos[k] = int32(len(t.leafIDs))
		t.leafIDs = append(t.leafIDs, t.eID[k])
	}
	t.elemLast[n] = int32(len(t.leafIDs))
}

// RangeCount returns the number of indexed elements within distance r of q
// (inclusive).
func (t *Tree[T]) RangeCount(q T, r float64) int {
	return t.rangeCount(q, r, math.MaxInt)
}

// RangeCountCapped returns min(RangeCount(q, r), limit): the same
// traversal, stopping once the count reaches the limit.
func (t *Tree[T]) RangeCountCapped(q T, r float64, limit int) int {
	return min(t.rangeCount(q, r, limit), limit)
}

// rangeCount counts the elements within r of q, stopping once the count
// reaches limit, so a result below limit is exact.
func (t *Tree[T]) rangeCount(q T, r float64, limit int) int {
	if t.size == 0 || limit <= 0 {
		return 0
	}
	v := visitState[T]{t: t, qc: t.queryCoords(q)}
	if t.lp != nil {
		var pat metric.LevenshteinPattern
		pat.Reset(any(q).(string))
		v.pat = &pat
	}
	count := v.rangeVisit(0, q, r, math.NaN(), limit, nil)
	t.distCalls.Add(v.calls)
	return count
}

// RangeQuery returns the ids of elements within distance r of q (inclusive),
// in no particular order.
func (t *Tree[T]) RangeQuery(q T, r float64) []int {
	return t.RangeQueryAppend(q, r, nil)
}

// RangeQueryAppend appends the ids of elements within distance r of q
// (inclusive) to dst, reusing dst's capacity, and returns the extended
// slice. It lets hot loops recycle one scratch buffer across probes.
func (t *Tree[T]) RangeQueryAppend(q T, r float64, dst []int) []int {
	if t.size == 0 {
		return dst
	}
	v := visitState[T]{t: t, qc: t.queryCoords(q)}
	if t.lp != nil {
		var pat metric.LevenshteinPattern
		pat.Reset(any(q).(string))
		v.pat = &pat
	}
	v.rangeVisit(0, q, r, math.NaN(), math.MaxInt, &dst)
	t.distCalls.Add(v.calls)
	return dst
}

// visitState carries one query's traversal context: the metric evaluations
// are counted locally and flushed to the tree's atomic counter once per
// query, keeping an atomic read-modify-write (and its cache-line
// contention under concurrent probes) out of the innermost loop.
type visitState[T any] struct {
	t     *Tree[T]
	calls int64
	qc    []float64 // q's coordinates when the kernel path is active (kernelize.go)
	// pat holds q prepared on a Levenshtein tree (t.lp non-nil); the
	// dual self-join reuses it for the entry it holds fixed.
	pat *metric.LevenshteinPattern
}

func (v *visitState[T]) d(a, b T) float64 {
	v.calls++
	return v.t.dist(a, b)
}

// qDist returns d(q, pivot of entry k) for the probe's query q, through
// the prepared pattern on a Levenshtein tree. Either way it counts one
// metric evaluation.
func (v *visitState[T]) qDist(q T, k int32) float64 {
	if v.pat != nil {
		v.calls++
		return v.pat.Dist(v.t.lp[k])
	}
	return v.d(q, v.t.ePivot[k])
}

// RangeCountMulti returns the neighbor count at every radius of the
// ascending schedule radii from ONE tree traversal; see
// RangeCountMultiAppend for the allocation-free form.
func (t *Tree[T]) RangeCountMulti(q T, radii []float64) []int {
	return t.RangeCountMultiAppend(q, radii, nil)
}

// RangeCountMultiAppend appends the neighbor count at every radius of the
// ascending schedule radii — computed in ONE tree traversal — to dst,
// reusing dst's capacity, and returns the extended slice. The traversal
// keeps, per subtree, the window [lo, hi) of radii still unresolved: an
// entry whose covering ball lies inside radii[e] is credited (via its
// stored element count) to every radius ≥ e without being descended, and
// radii the entry's ball cannot reach are dropped from the window, so
// each node-pruning decision is derived once for the whole schedule
// instead of once per radius. With a warm dst the probe allocates zero
// bytes. The result is element-wise identical to calling RangeCount per
// radius: every classification reuses the exact comparison expressions
// of rangeVisit on the same computed distances.
func (t *Tree[T]) RangeCountMultiAppend(q T, radii []float64, dst []int) []int {
	return dualjoin.AppendMultiCounts(radii, dst, false, func(sched []float64, diff []int) {
		if t.size == 0 {
			return
		}
		v := visitState[T]{t: t, qc: t.queryCoords(q)}
		if t.lp != nil {
			var pat metric.LevenshteinPattern
			pat.Reset(any(q).(string))
			v.pat = &pat
		}
		v.multiVisit(0, q, sched, math.NaN(), 0, len(sched), diff)
		t.distCalls.Add(v.calls)
	})
}

// multiVisit resolves the radius window [lo, hi) for the subtree at node
// n: radii below lo are already known to exclude the whole subtree, radii
// at and above hi have already been credited with it by an ancestor. dq
// is the distance from q to n's parent pivot (NaN at the root). All
// radius thresholds are scanned linearly: the schedule is tiny (a ≤ ~15)
// and the predicates are monotone in the radius, so the scans stop early.
func (v *visitState[T]) multiVisit(n int32, q T, radii []float64, dq float64, lo, hi int, diff []int) {
	t := v.t
	isLeaf := t.leaf[n]
	if isLeaf && v.qc != nil {
		v.scanMultiLeaf(n, radii, dq, lo, hi, diff)
		return
	}
	for k := t.entFirst[n]; k < t.entLast[n]; k++ {
		rad := t.eRD[2*k]
		// Triangle prefilter, per radius: the smallest radius the entry
		// can touch is the first with |d(q,parent) - d(pivot,parent)| ≤
		// radii[b] + radius (the same test rangeVisit applies per probe).
		b := lo
		if !math.IsNaN(dq) {
			for b < hi && math.Abs(dq-t.eRD[2*k+1]) > radii[b]+rad {
				b++
			}
			if b == hi {
				continue // outside every unresolved radius
			}
		}
		d := v.qDist(q, k)
		if isLeaf {
			// Element at distance d: credit radii [b', hi) where b' is the
			// first unfiltered radius with d ≤ radii[b'].
			for b < hi && d > radii[b] {
				b++
			}
			if b < hi {
				diff[b]++
				diff[hi]--
			}
			continue
		}
		// Internal entry: radii below newLo cannot reach the covering ball
		// (rangeVisit's descend test d ≤ r + radius fails); radii at and
		// above newHi contain it entirely (rangeVisit's count-only test
		// d + radius ≤ r holds), so its stored count settles them at once.
		newLo := b
		for newLo < hi && d > radii[newLo]+rad {
			newLo++
		}
		newHi := newLo
		for newHi < hi && d+rad > radii[newHi] {
			newHi++
		}
		if newHi < hi {
			diff[newHi] += int(t.eCount[k])
			diff[hi] -= int(t.eCount[k])
		}
		if newLo < newHi {
			v.multiVisit(t.eChild[k], q, radii, d, newLo, newHi, diff)
		}
	}
}

// rangeVisit counts (and optionally collects) elements within r of q in the
// subtree at node n. dq is the distance from q to n's parent pivot (NaN at
// the root), used with stored parent distances to skip metric evaluations.
//
// When only counting (ids == nil), a subtree whose covering ball lies
// entirely within the query ball contributes its stored element count
// without being descended — the paper's count-only principle, which makes
// large-radius counting cost proportional to the ball boundary rather than
// the ball volume.
//
// The visit stops taking entries once the count reaches limit, so a
// count below limit is exact; collecting callers pass math.MaxInt.
func (v *visitState[T]) rangeVisit(n int32, q T, r float64, dq float64, limit int, ids *[]int) int {
	t := v.t
	isLeaf := t.leaf[n]
	if isLeaf && v.qc != nil {
		return v.scanRangeLeaf(n, r, dq, ids)
	}
	count := 0
	for k := t.entFirst[n]; k < t.entLast[n] && count < limit; k++ {
		rad := t.eRD[2*k]
		// Triangle prefilter: |d(q,parent) - d(pivot,parent)| ≤ d(q,pivot).
		if !math.IsNaN(dq) && math.Abs(dq-t.eRD[2*k+1]) > r+rad {
			continue
		}
		d := v.qDist(q, k)
		if isLeaf {
			if d <= r {
				count++
				if ids != nil {
					*ids = append(*ids, int(t.eID[k]))
				}
			}
			continue
		}
		if ids == nil && d+rad <= r {
			count += int(t.eCount[k]) // subtree fully inside the query ball
			continue
		}
		if d <= r+rad {
			count += v.rangeVisit(t.eChild[k], q, r, d, limit-count, ids)
		}
	}
	return count
}

// kCand is a max-heap entry for KNN.
type kCand struct {
	id int
	d  float64
}

// KNN returns the ids and distances of the k nearest elements to q, closest
// first. Ties break toward the smaller element id. If the tree has fewer
// than k elements all of them are returned.
func (t *Tree[T]) KNN(q T, k int) (ids []int, dists []float64) {
	if t.size == 0 || k <= 0 {
		return nil, nil
	}
	heap := make([]kCand, 0, k+1)   // max-heap on (d, id)
	less := func(a, b kCand) bool { // a has lower priority than b for removal
		if a.d != b.d {
			return a.d < b.d
		}
		return a.id < b.id
	}
	push := func(c kCand) {
		heap = append(heap, c)
		i := len(heap) - 1
		for i > 0 {
			p := (i - 1) / 2
			if less(heap[p], heap[i]) {
				heap[i], heap[p] = heap[p], heap[i]
				i = p
			} else {
				break
			}
		}
	}
	pop := func() {
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		i := 0
		for {
			l, rr := 2*i+1, 2*i+2
			big := i
			if l < len(heap) && less(heap[big], heap[l]) {
				big = l
			}
			if rr < len(heap) && less(heap[big], heap[rr]) {
				big = rr
			}
			if big == i {
				break
			}
			heap[i], heap[big] = heap[big], heap[i]
			i = big
		}
	}
	bound := func() float64 {
		if len(heap) < k {
			return math.Inf(1)
		}
		return heap[0].d
	}
	qc := t.queryCoords(q)
	var kcalls int64
	var visit func(n int32, dq float64)
	visit = func(n int32, dq float64) {
		isLeaf := t.leaf[n]
		if isLeaf && qc != nil {
			// Kernel path (kernelize.go): block kernels produce the leaf's
			// squared distances; the prefilter, the admission test and the
			// call accounting run per entry in entry order exactly as the
			// loop below would, so the heap — and with it every tie at the
			// k-th distance — evolves identically.
			var d2 [kernel.Block]float64
			for at, last := int(t.entFirst[n]), int(t.entLast[n]); at < last; {
				bn, _ := kernel.RangeBlock(&d2, nil, qc, t.kc, at, last, 0)
				for i := 0; i < bn; i++ {
					e := at + i
					if !math.IsNaN(dq) && math.Abs(dq-t.eRD[2*e+1]) > bound()+t.eRD[2*e] {
						continue
					}
					d := math.Sqrt(d2[i])
					kcalls++
					id := int(t.eID[e])
					if len(heap) < k || d < heap[0].d || (d == heap[0].d && id < heap[0].id) {
						push(kCand{id: id, d: d})
						if len(heap) > k {
							pop()
						}
					}
				}
				at += bn
			}
			return
		}
		for e := t.entFirst[n]; e < t.entLast[n]; e++ {
			if !math.IsNaN(dq) && math.Abs(dq-t.eRD[2*e+1]) > bound()+t.eRD[2*e] {
				continue
			}
			d := t.d(q, t.ePivot[e])
			if isLeaf {
				// Admit while below capacity, and past it whenever (d, id)
				// beats the current worst — the id comparison keeps ties at
				// the k-th distance settled by element id alone, never by
				// traversal order, so any tree arrangement over the same
				// elements (any capacity) returns the same k ids.
				id := int(t.eID[e])
				if len(heap) < k || d < heap[0].d || (d == heap[0].d && id < heap[0].id) {
					push(kCand{id: id, d: d})
					if len(heap) > k {
						pop()
					}
				}
				continue
			}
			if d-t.eRD[2*e] <= bound() {
				visit(t.eChild[e], d)
			}
		}
	}
	visit(0, math.NaN())
	if kcalls > 0 {
		t.distCalls.Add(kcalls)
	}
	// Extract sorted ascending.
	out := make([]kCand, len(heap))
	copy(out, heap)
	for a := 1; a < len(out); a++ {
		for b := a; b > 0 && less(out[b], out[b-1]); b-- {
			out[b], out[b-1] = out[b-1], out[b]
		}
	}
	ids = make([]int, len(out))
	dists = make([]float64, len(out))
	for i, c := range out {
		ids[i], dists[i] = c.id, c.d
	}
	return ids, dists
}

// DiameterEstimate estimates the diameter of the indexed set (paper
// Alg. 1 L2's l) via the shared data-only estimator (internal/diameter):
// the value depends only on the indexed DATA, never on the tree's
// arrangement, so trees of any capacity over the same elements report
// the same value, and the radii schedule derived from it — and with it
// the whole pipeline output — does not depend on the tree's shape.
// Vector data gets the sweep-validated bounding-box corner
// distance (the same value the kd/R-trees report); other element types
// get the exact diameter while small and a capped iterated
// farthest-point estimate beyond diameter.ExactThreshold — O(k·n) metric
// evaluations on any data, where the former exact branch-and-bound
// degenerated toward n²/2 on near-uniform pairwise distances.
func (t *Tree[T]) DiameterEstimate() float64 {
	if t.size < 2 || len(t.leaf) == 0 {
		return 0
	}
	if t.diamValid {
		return t.diam
	}
	elems := make([]T, t.size)
	for k, id := range t.eID {
		if id >= 0 {
			elems[id] = t.ePivot[k]
		}
	}
	return diameter.Estimate(elems, t.d)
}

// Height returns the tree height (0 for an empty tree, 1 for a leaf root).
func (t *Tree[T]) Height() int {
	if len(t.leaf) == 0 {
		return 0
	}
	h := 0
	n := int32(0)
	for {
		h++
		if t.leaf[n] || t.entFirst[n] == t.entLast[n] {
			break
		}
		n = t.eChild[t.entFirst[n]]
	}
	return h
}
