// Package kdtree implements a main-memory kd-tree for vector data. The
// paper's footnote 4 recommends kd-trees for main-memory-based vector
// datasets (and metric trees for everything else); this package exists so
// the benchmark harness can ablate the index choice. The query interface
// mirrors internal/slimtree.
//
// The tree is stored as a flat arena rather than linked nodes: one slot
// per point, laid out in PREORDER, so the slots of a subtree are the
// contiguous range [p, p+count[p]). Coordinates live in ONE contiguous
// []float64 block (pts), the per-slot bounding boxes in two more (lo,
// hi), and the links (left/right/parent) are int32 indices — traversals
// do index arithmetic over a handful of flat slices instead of chasing
// heap-scattered node pointers, the boxes stream linearly through the
// cache, and building n points costs a constant number of allocations
// instead of 3n. The child positions are implied by the preorder layout
// (left = p+1, right = p+1+count[p]/2); the explicit link slices exist
// because loading an int32 is cheaper than recomputing and bounds the
// invariant tests.
package kdtree

import (
	"math"
	"sort"

	"mccatch/internal/arena"
	"mccatch/internal/dualjoin"
	"mccatch/internal/kernel"
	"mccatch/internal/metric"
	"mccatch/internal/parallel"
)

// noChild marks an absent left/right/parent link.
const noChild = -1

// scanCutoff is the subtree size at and below which the query traversals
// stop recursing per slot and hand the subtree's contiguous preorder
// range to internal/kernel's block kernels: below it the per-node box
// tests prune too few points to beat streaming the coordinates. The
// quantized block summaries keep doing the box tests' job inside the
// scan, 8 points at a time.
const scanCutoff = 32

// pairScanCutoff is the subtree-PAIR analogue for the dual joins: when
// both sides of an ambiguous subtree pair are this small, the visit
// resolves the up-to pairScanCutoff² point pairs by block kernels
// instead of decomposing further. Smaller than scanCutoff because the
// work is quadratic in the cutoff.
const pairScanCutoff = 16

// sqMinMaxDistToBox is the shared point-vs-box bound kernel: the query
// paths compare the squared distances against squared radii, saving two
// math.Sqrt per node.
func sqMinMaxDistToBox(q, lo, hi []float64) (smin, smax float64) {
	return kernel.SqMinMaxPointBox(q, lo, hi)
}

// Tree is a kd-tree over d-dimensional points under the Euclidean metric,
// flattened into a preorder arena: slot p's subtree occupies slots
// [p, p+count[p]), its point sits at pts[p*dim:(p+1)*dim], and its
// bounding box at the same offsets of lo and hi.
type Tree struct {
	size                int
	dim                 int
	pts                 []float64 // all coordinates, slot-major
	ids                 []int32   // slot → original point index
	axis                []int32   // split axis per slot
	count               []int32   // subtree size per slot (including the slot's point)
	left, right, parent []int32
	lo, hi              []float64 // subtree bounding boxes, slot-major
	// sum is the quantized block prefilter over pts (one uint8-coded box
	// per 8 slots), built once at construction; nil for tiny trees. The
	// leaf-range scans consult it to skip or settle whole blocks before
	// touching coordinates.
	sum *kernel.Summary
	// src is the backing index file when the tree was produced by
	// Open/FromFile (the columns above are views into its mapping); nil
	// for trees built in memory.
	src *arena.File
}

// New builds a balanced kd-tree by recursive median splits. Item i is
// reported by queries as id i. All points must share the same dimension.
func New(points [][]float64) *Tree {
	return NewWithWorkers(points, 1)
}

// parallelBuildMin is the subtree size below which a build recursion stays
// on the current goroutine: splitting smaller ranges costs more in
// scheduling than the sort saves.
const parallelBuildMin = 1024

// NewWithWorkers is New with the recursive median splits fanned out across
// up to workers goroutines (≤ 0 → all cores, 1 → serial). Subtrees above
// a size threshold build concurrently; the resulting arena is identical to
// the serial build because the median choice and the id tiebreaks are
// deterministic, and the preorder slot of every subtree is known up front
// from the subtree sizes, so the branches fill disjoint slot ranges.
func NewWithWorkers(points [][]float64, workers int) *Tree {
	t := &Tree{size: len(points)}
	if len(points) == 0 {
		return t
	}
	n := len(points)
	t.dim = len(points[0])
	t.pts = make([]float64, n*t.dim)
	t.ids = make([]int32, n)
	t.axis = make([]int32, n)
	t.count = make([]int32, n)
	t.left = make([]int32, n)
	t.right = make([]int32, n)
	t.parent = make([]int32, n)
	t.lo = make([]float64, n*t.dim)
	t.hi = make([]float64, n*t.dim)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	t.build(points, idx, 0, noChild, parallel.NewLimiter(workers))
	t.sum = kernel.NewSummary(t.pts, t.dim, n)
	return t
}

// build fills the preorder slot range [slot, slot+len(idx)) with the
// subtree over points[idx], split on the widest-spread axis of the
// subset's bounding box.
func (t *Tree) build(points [][]float64, idx []int, slot int32, par int32, lim *parallel.Limiter) {
	// The subset's bounding box first: it is both the slot's stored box
	// and the source of the split axis. Cycling axes by depth — the
	// textbook rule the first arena build used — degrades past a few
	// dimensions: with a ≈ 2^dim-point fanout per full cycle, an 8d tree
	// over 10k points never completes one cycle, so most splits cut axes
	// the data barely varies on and the boxes stop shrinking. Splitting
	// the widest spread of the actual subset keeps every cut maximally
	// discriminating at any dimensionality; ties break toward the lowest
	// axis so the build stays deterministic.
	base := int(slot) * t.dim
	lo := t.lo[base : base+t.dim]
	hi := t.hi[base : base+t.dim]
	copy(lo, points[idx[0]])
	copy(hi, points[idx[0]])
	for _, i := range idx {
		for j, v := range points[i] {
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	axis := 0
	for j := 1; j < t.dim; j++ {
		if hi[j]-lo[j] > hi[axis]-lo[axis] {
			axis = j
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := points[idx[a]], points[idx[b]]
		if pa[axis] != pb[axis] {
			return pa[axis] < pb[axis]
		}
		return idx[a] < idx[b] // deterministic tiebreak
	})
	mid := len(idx) / 2
	copy(t.pts[base:base+t.dim], points[idx[mid]])
	t.ids[slot] = int32(idx[mid])
	t.axis[slot] = int32(axis)
	t.count[slot] = int32(len(idx))
	t.parent[slot] = par
	leftIdx, rightIdx := idx[:mid], idx[mid+1:]
	t.left[slot], t.right[slot] = noChild, noChild
	lslot := slot + 1
	rslot := slot + 1 + int32(mid)
	if len(leftIdx) > 0 {
		t.left[slot] = lslot
	}
	if len(rightIdx) > 0 {
		t.right[slot] = rslot
	}
	if len(idx) >= parallelBuildMin && len(leftIdx) > 0 {
		wait := lim.Go(func() { t.build(points, leftIdx, lslot, slot, lim) })
		if len(rightIdx) > 0 {
			t.build(points, rightIdx, rslot, slot, lim)
		}
		wait()
		return
	}
	if len(leftIdx) > 0 {
		t.build(points, leftIdx, lslot, slot, lim)
	}
	if len(rightIdx) > 0 {
		t.build(points, rightIdx, rslot, slot, lim)
	}
}

// Size returns the number of indexed points.
func (t *Tree) Size() int { return t.size }

// point returns slot p's coordinates (a view into the arena block).
func (t *Tree) point(p int32) []float64 {
	base := int(p) * t.dim
	return t.pts[base : base+t.dim]
}

// box returns slot p's bounding box (views into the arena blocks).
func (t *Tree) box(p int32) (lo, hi []float64) {
	base := int(p) * t.dim
	return t.lo[base : base+t.dim], t.hi[base : base+t.dim]
}

// RangeCount returns the number of points within Euclidean distance r of q
// (inclusive). Subtrees whose bounding boxes lie entirely inside (or
// outside) the query ball contribute their stored sizes (or nothing)
// without being descended — the count-only principle that keeps large-
// radius counting cheap. All comparisons are on squared distances, so the
// traversal never takes a square root.
func (t *Tree) RangeCount(q []float64, r float64) int {
	if t.size == 0 {
		return 0
	}
	return t.rangeCount(0, q, r*r, math.MaxInt)
}

// RangeCountCapped returns min(RangeCount(q, r), limit): the same
// traversal, stopping once the count reaches the limit.
func (t *Tree) RangeCountCapped(q []float64, r float64, limit int) int {
	if t.size == 0 || limit <= 0 {
		return 0
	}
	return min(t.rangeCount(0, q, r*r, limit), limit)
}

// rangeCount counts the points within √r2 of q under slot p; it may stop
// descending once the count reaches limit, so a result below limit is
// exact.
func (t *Tree) rangeCount(p int32, q []float64, r2 float64, limit int) int {
	lo, hi := t.box(p)
	smin, smax := sqMinMaxDistToBox(q, lo, hi)
	if smin > r2 {
		return 0
	}
	if smax <= r2 {
		return int(t.count[p])
	}
	if cnt := int(t.count[p]); cnt <= scanCutoff {
		// Ambiguous small subtree: stream its contiguous preorder range
		// through the block kernels instead of recursing per slot.
		return kernel.CountRange(t.sum, q, t.pts, int(p), int(p)+cnt, r2)
	}
	count := 0
	if kernel.SqDist(q, t.point(p)) <= r2 {
		count++
	}
	if l := t.left[p]; l >= 0 && count < limit {
		count += t.rangeCount(l, q, r2, limit-count)
	}
	if r := t.right[p]; r >= 0 && count < limit {
		count += t.rangeCount(r, q, r2, limit-count)
	}
	return count
}

// RangeCountMulti returns the neighbor count at every radius of the
// ascending schedule radii from ONE tree traversal; see
// RangeCountMultiAppend for the allocation-free form.
func (t *Tree) RangeCountMulti(q []float64, radii []float64) []int {
	return t.RangeCountMultiAppend(q, radii, nil)
}

// RangeCountMultiAppend appends the neighbor count at every radius of the
// ascending schedule radii — computed in ONE tree traversal — to dst,
// reusing dst's capacity, and returns the extended slice. Each node keeps
// the window [lo, hi) of radii its box leaves unresolved: radii the box
// cannot reach are dropped, radii that contain the whole box are credited
// with the subtree's stored size via a difference array, and only the
// radii in between descend. Squared distances throughout — no per-node
// math.Sqrt — and the squared schedule lives in a pooled scratch slice,
// so a probe with a warm dst allocates zero bytes. The result is
// element-wise identical to calling RangeCount per radius.
func (t *Tree) RangeCountMultiAppend(q []float64, radii []float64, dst []int) []int {
	return dualjoin.AppendMultiCounts(radii, dst, true, func(r2 []float64, diff []int) {
		if t.size > 0 {
			t.multiCount(0, q, r2, 0, len(r2), diff)
		}
	})
}

// multiCount resolves the squared-radius window r2[lo:hi] for the subtree
// at slot p; diff is the difference array crediting element ranges in O(1).
func (t *Tree) multiCount(p int32, q []float64, r2 []float64, lo, hi int, diff []int) {
	blo, bhi := t.box(p)
	smin, smax := sqMinMaxDistToBox(q, blo, bhi)
	for lo < hi && smin > r2[lo] {
		lo++ // box out of reach of the smallest radii
	}
	nh := lo
	for nh < hi && smax > r2[nh] {
		nh++ // box fully inside radii [nh, hi): settle them at once
	}
	if nh < hi {
		diff[nh] += int(t.count[p])
		diff[hi] -= int(t.count[p])
	}
	if lo >= nh {
		return
	}
	if cnt := int(t.count[p]); cnt <= scanCutoff {
		t.scanBuckets(int(p), int(p)+cnt, q, r2, lo, nh, diff)
		return
	}
	if d2 := kernel.SqDist(q, t.point(p)); d2 <= r2[nh-1] {
		b := lo
		for d2 > r2[b] {
			b++
		}
		diff[b]++
		diff[nh]--
	}
	if l := t.left[p]; l >= 0 {
		t.multiCount(l, q, r2, lo, nh, diff)
	}
	if r := t.right[p]; r >= 0 {
		t.multiCount(r, q, r2, lo, nh, diff)
	}
}

// scanBuckets resolves the ambiguous radius window [lo, nh) for the
// points of slots [first, last) by block kernels: each surviving point's
// squared distance is bucketed into the difference array exactly as the
// per-slot recursion would. No quantized prefilter: the threshold is
// the ambiguous window's UPPER edge, which this subtree's own box
// already straddles, so per-block bounds almost never prune and only
// add cost (they regressed the batched-probe benchmarks before the
// bypass).
func (t *Tree) scanBuckets(first, last int, q []float64, r2 []float64, lo, nh int, diff []int) {
	// Callers bound the range by scanCutoff, so one kernel call fills
	// every distance of the subtree into a stack buffer.
	var d2 [scanCutoff]float64
	n := last - first
	kernel.Dists(d2[:n], q, t.pts, first, last)
	thr := r2[nh-1]
	for i := 0; i < n; i++ {
		if v := d2[i]; v <= thr {
			b := lo
			for v > r2[b] {
				b++
			}
			diff[b]++
			diff[nh]--
		}
	}
}

// RangeQuery returns the ids of points within distance r of q (inclusive).
func (t *Tree) RangeQuery(q []float64, r float64) []int {
	return t.RangeQueryAppend(q, r, nil)
}

// RangeQueryAppend appends the ids of points within distance r of q
// (inclusive) to dst, reusing dst's capacity, and returns the extended
// slice. It lets hot loops recycle one scratch buffer across probes.
func (t *Tree) RangeQueryAppend(q []float64, r float64, dst []int) []int {
	if t.size == 0 {
		return dst
	}
	return t.rangeQuery(0, q, r, r*r, dst)
}

func (t *Tree) rangeQuery(p int32, q []float64, r, r2 float64, dst []int) []int {
	if cnt := int(t.count[p]); cnt <= scanCutoff {
		// The preorder layout visits slots in exactly the recursion's
		// order (slot, left subtree, right subtree), so a linear block
		// scan appends the same ids in the same order.
		var d2 [kernel.Block]float64
		for at, last := int(p), int(p)+cnt; at < last; {
			n, pruned := kernel.RangeBlock(&d2, t.sum, q, t.pts, at, last, r2)
			if !pruned {
				for i := 0; i < n; i++ {
					if d2[i] <= r2 {
						dst = append(dst, int(t.ids[at+i]))
					}
				}
			}
			at += n
		}
		return dst
	}
	if kernel.SqDist(q, t.point(p)) <= r2 {
		dst = append(dst, int(t.ids[p]))
	}
	diff := q[t.axis[p]] - t.pts[int(p)*t.dim+int(t.axis[p])]
	if l := t.left[p]; l >= 0 && diff <= r {
		dst = t.rangeQuery(l, q, r, r2, dst)
	}
	if rt := t.right[p]; rt >= 0 && diff >= -r {
		dst = t.rangeQuery(rt, q, r, r2, dst)
	}
	return dst
}

// KNN returns ids and distances of the k nearest points to q, closest
// first; ties break by id.
func (t *Tree) KNN(q []float64, k int) ([]int, []float64) {
	if t.size == 0 || k <= 0 {
		return nil, nil
	}
	type cand struct {
		id int
		d  float64
	}
	var best []cand // kept sorted ascending, max length k
	worse := func(a, b cand) bool {
		if a.d != b.d {
			return a.d > b.d
		}
		return a.id > b.id
	}
	bound := func() float64 {
		if len(best) < k {
			return math.Inf(1)
		}
		return best[len(best)-1].d
	}
	insert := func(c cand) {
		pos := len(best)
		best = append(best, c)
		for pos > 0 && worse(best[pos-1], best[pos]) {
			best[pos-1], best[pos] = best[pos], best[pos-1]
			pos--
		}
		if len(best) > k {
			best = best[:k]
		}
	}
	var visit func(p int32)
	visit = func(p int32) {
		// Same value metric.Euclidean returns (the kernel accumulates in
		// the oracle's order), dispatched through the width-specialized
		// kernel. The traversal itself stays per-slot: KNN's tie handling
		// depends on visit order, which a block scan would reorder.
		d := math.Sqrt(kernel.SqDist(q, t.point(p)))
		if d < bound() || (d == bound() && len(best) < k) {
			insert(cand{id: int(t.ids[p]), d: d})
		}
		diff := q[t.axis[p]] - t.pts[int(p)*t.dim+int(t.axis[p])]
		near, far := t.left[p], t.right[p]
		if diff > 0 {
			near, far = t.right[p], t.left[p]
		}
		if near >= 0 {
			visit(near)
		}
		if far >= 0 && math.Abs(diff) <= bound() {
			visit(far)
		}
	}
	visit(0)
	ids := make([]int, len(best))
	dists := make([]float64, len(best))
	for i, c := range best {
		ids[i], dists[i] = c.id, c.d
	}
	return ids, dists
}

// DiameterEstimate estimates the diameter of the point set as the diagonal
// of its bounding box (an upper bound within √d of the true diameter). The
// root slot's box already covers every point, so this is one lookup.
func (t *Tree) DiameterEstimate() float64 {
	if t.size == 0 {
		return 0
	}
	lo, hi := t.box(0)
	return metric.Euclidean(lo, hi)
}
