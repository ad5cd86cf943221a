// Package rtree implements an R-tree over vector data, bulk-loaded with
// the Sort-Tile-Recursive (STR) algorithm. It is the third access method
// the paper names for MCCATCH's tree T (Alg. 1 L1: "Like a Slim-tree,
// M-tree, or R-tree" — R-trees being the disk-oriented choice for vector
// data). The query interface satisfies internal/index.Index, so the
// pipeline and the benchmarks can ablate it against the slim-tree and the
// kd-tree. RangeCount applies the count-only principle: a node whose
// bounding box lies entirely inside the query ball contributes its stored
// element count without being descended.
//
// The tree is stored as a flat arena rather than linked nodes: nodes are
// laid out LEVEL BY LEVEL in build order (the root at slot 0), each
// internal node's children as the contiguous slot range
// [childFirst, childLast), and every leaf's points packed — coordinates
// in one shared []float64 block, ids beside them — in leaf order, so a
// node's whole subtree owns the contiguous element range
// [elemFirst, elemLast). Traversals do index arithmetic over flat
// slices instead of chasing node pointers, leaf scans stream linearly,
// and the dual joins credit whole subtrees as flat position ranges.
package rtree

import (
	"math"
	"sort"

	"mccatch/internal/arena"
	"mccatch/internal/dualjoin"
	"mccatch/internal/kernel"
	"mccatch/internal/metric"
	"mccatch/internal/parallel"
)

// DefaultFanout is the default number of children per node.
const DefaultFanout = 16

// leafScanChunk is the stack-buffer granularity of the single-query
// no-prefilter leaf scan (scanBuckets): kernel.Dists fills up to this
// many squared distances per call, amortizing the dimension dispatch
// over whole (fanout-sized) leaves while keeping the scratch on the
// stack for any runtime fanout. The dual joins' leaf scans size theirs
// from the leaf instead (dualjoin's folds).
const leafScanChunk = 64

// buildNode is the transient pointer shape the STR construction works
// on; freeze flattens the finished tree into the arena and drops it.
type buildNode struct {
	leaf     bool
	lo, hi   []float64 // bounding box
	size     int       // elements under this node
	children []*buildNode
	points   [][]float64
	ids      []int // leaf nodes
}

// Tree is an STR bulk-loaded R-tree under the Euclidean metric,
// flattened into a leveled arena (see the package comment).
type Tree struct {
	dim    int
	sizeN  int
	fanout int
	// Node arrays, level by level, root at slot 0 (no nodes when empty).
	leaf                  []bool
	size                  []int32
	parent                []int32
	childFirst, childLast []int32   // internal nodes; leaves hold -1
	elemFirst, elemLast   []int32   // packed element range under the subtree
	lo, hi                []float64 // boxes, slot-major
	// Packed leaf elements, in leaf order.
	pts []float64 // coordinates, position-major
	ids []int32   // position → original point index
	// sum is the quantized block prefilter over pts (one uint8-coded box
	// per 8 positions), built at freeze; nil for tiny trees. Leaf scans
	// consult it to skip or settle whole blocks before touching
	// coordinates.
	sum *kernel.Summary
	// src is the backing index file when the tree was produced by
	// Open/FromFile (the columns above are views into its mapping); nil
	// for trees built in memory.
	src *arena.File
}

// New bulk-loads an R-tree with the given fanout (DefaultFanout if < 2).
// Point i is reported by queries as id i.
func New(points [][]float64, fanout int) *Tree {
	return NewWithWorkers(points, fanout, 1)
}

// parallelTileMin is the tile size below which the STR recursion stays on
// the current goroutine.
const parallelTileMin = 1024

// NewWithWorkers is New with the STR tiling recursion fanned out across up
// to workers goroutines (≤ 0 → all cores, 1 → serial). Sibling tiles sort
// disjoint index ranges and return their leaves in tile order, so the
// packed arena is identical to the serial build for every worker count.
func NewWithWorkers(points [][]float64, fanout, workers int) *Tree {
	if fanout < 2 {
		fanout = DefaultFanout
	}
	t := &Tree{sizeN: len(points), fanout: fanout}
	if len(points) == 0 {
		return t
	}
	t.dim = len(points[0])
	ids := make([]int, len(points))
	for i := range ids {
		ids[i] = i
	}
	leaves := t.buildLeaves(points, ids, parallel.NewLimiter(workers))
	t.freeze(t.pack(leaves))
	return t
}

// buildLeaves tiles the points into leaf nodes with the STR recursion:
// sort by the first axis, slice into vertical runs, recurse on the next
// axis within each run, and emit capacity-sized leaves. Each call returns
// its leaves in tile order; large runs recurse on other goroutines (their
// index ranges are disjoint) and are stitched back in order.
func (t *Tree) buildLeaves(points [][]float64, ids []int, lim *parallel.Limiter) []*buildNode {
	var tile func(idx []int, axis int) []*buildNode
	tile = func(idx []int, axis int) []*buildNode {
		if len(idx) <= t.fanout {
			leaf := &buildNode{leaf: true, size: len(idx)}
			for _, i := range idx {
				leaf.points = append(leaf.points, points[i])
				leaf.ids = append(leaf.ids, i)
			}
			leaf.computeBox(nil)
			return []*buildNode{leaf}
		}
		sort.Slice(idx, func(a, b int) bool {
			pa, pb := points[idx[a]], points[idx[b]]
			if pa[axis] != pb[axis] {
				return pa[axis] < pb[axis]
			}
			return idx[a] < idx[b]
		})
		// Number of vertical slices: ceil(sqrt(#leaves needed)).
		nLeaves := (len(idx) + t.fanout - 1) / t.fanout
		slices := int(math.Ceil(math.Sqrt(float64(nLeaves))))
		per := (len(idx) + slices - 1) / slices
		next := (axis + 1) % t.dim
		nRuns := (len(idx) + per - 1) / per
		runs := make([][]*buildNode, nRuns)
		var waits []func()
		for k := 0; k < nRuns; k++ {
			s := k * per
			e := s + per
			if e > len(idx) {
				e = len(idx)
			}
			k, sub := k, idx[s:e]
			// Fan all runs but the last out to spare workers; the last one
			// keeps the current goroutine busy instead of idling in waits.
			if len(idx) >= parallelTileMin && k < nRuns-1 {
				waits = append(waits, lim.Go(func() { runs[k] = tile(sub, next) }))
			} else {
				runs[k] = tile(sub, next)
			}
		}
		for _, wait := range waits {
			wait()
		}
		var leaves []*buildNode
		for _, r := range runs {
			leaves = append(leaves, r...)
		}
		return leaves
	}
	return tile(ids, 0)
}

// pack groups nodes into parents level by level until one root remains.
func (t *Tree) pack(nodes []*buildNode) *buildNode {
	for len(nodes) > 1 {
		// Sort by box center on alternating axes for locality.
		sort.Slice(nodes, func(a, b int) bool {
			return nodes[a].lo[0]+nodes[a].hi[0] < nodes[b].lo[0]+nodes[b].hi[0]
		})
		var parents []*buildNode
		for s := 0; s < len(nodes); s += t.fanout {
			e := s + t.fanout
			if e > len(nodes) {
				e = len(nodes)
			}
			p := &buildNode{children: append([]*buildNode(nil), nodes[s:e]...)}
			for _, c := range p.children {
				p.size += c.size
			}
			p.computeBox(p.children)
			parents = append(parents, p)
		}
		nodes = parents
	}
	return nodes[0]
}

// freeze flattens the finished pointer tree into the arena: a BFS walk
// assigns node slots level by level — each parent's children land in one
// contiguous slot run — and packs leaf points/ids in leaf order (STR
// trees are perfectly leveled, so leaf BFS order IS the depth-first
// element order and every subtree owns a contiguous element range). The
// element ranges of internal slots are stitched bottom-up; the pointer
// nodes are garbage once this returns.
func (t *Tree) freeze(root *buildNode) {
	// Pre-count nodes so every arena slice is allocated exactly once.
	nNodes := 0
	var count func(n *buildNode)
	count = func(n *buildNode) {
		nNodes++
		for _, c := range n.children {
			count(c)
		}
	}
	count(root)
	t.leaf = make([]bool, 0, nNodes)
	t.size = make([]int32, 0, nNodes)
	t.parent = make([]int32, 0, nNodes)
	t.childFirst = make([]int32, 0, nNodes)
	t.childLast = make([]int32, 0, nNodes)
	t.elemFirst = make([]int32, 0, nNodes)
	t.elemLast = make([]int32, 0, nNodes)
	t.lo = make([]float64, 0, nNodes*t.dim)
	t.hi = make([]float64, 0, nNodes*t.dim)
	t.pts = make([]float64, 0, t.sizeN*t.dim)
	t.ids = make([]int32, 0, t.sizeN)
	queue := make([]*buildNode, 0, nNodes)
	queue = append(queue, root)
	parents := make([]int32, 0, nNodes)
	parents = append(parents, -1)
	pos := int32(0)
	for at := 0; at < len(queue); at++ {
		n := queue[at]
		t.leaf = append(t.leaf, n.leaf)
		t.size = append(t.size, int32(n.size))
		t.parent = append(t.parent, parents[at])
		t.lo = append(t.lo, n.lo...)
		t.hi = append(t.hi, n.hi...)
		if n.leaf {
			t.childFirst = append(t.childFirst, -1)
			t.childLast = append(t.childLast, -1)
			t.elemFirst = append(t.elemFirst, pos)
			for k, p := range n.points {
				t.pts = append(t.pts, p...)
				t.ids = append(t.ids, int32(n.ids[k]))
				pos++
			}
			t.elemLast = append(t.elemLast, pos)
			continue
		}
		t.childFirst = append(t.childFirst, int32(len(queue)))
		t.childLast = append(t.childLast, int32(len(queue)+len(n.children)))
		t.elemFirst = append(t.elemFirst, 0) // stitched below
		t.elemLast = append(t.elemLast, 0)
		for _, c := range n.children {
			queue = append(queue, c)
			parents = append(parents, int32(at))
		}
	}
	for s := len(queue) - 1; s >= 0; s-- {
		if !t.leaf[s] {
			t.elemFirst[s] = t.elemFirst[t.childFirst[s]]
			t.elemLast[s] = t.elemLast[t.childLast[s]-1]
		}
	}
	t.sum = kernel.NewSummary(t.pts, t.dim, t.sizeN)
}

// computeBox fills the node's bounding box from its points or children.
func (n *buildNode) computeBox(children []*buildNode) {
	if n.leaf {
		n.lo = append([]float64(nil), n.points[0]...)
		n.hi = append([]float64(nil), n.points[0]...)
		for _, p := range n.points {
			for j, v := range p {
				if v < n.lo[j] {
					n.lo[j] = v
				}
				if v > n.hi[j] {
					n.hi[j] = v
				}
			}
		}
		return
	}
	n.lo = append([]float64(nil), children[0].lo...)
	n.hi = append([]float64(nil), children[0].hi...)
	for _, c := range children {
		for j := range n.lo {
			if c.lo[j] < n.lo[j] {
				n.lo[j] = c.lo[j]
			}
			if c.hi[j] > n.hi[j] {
				n.hi[j] = c.hi[j]
			}
		}
	}
}

// box returns slot s's bounding box (views into the arena blocks).
func (t *Tree) box(s int32) (lo, hi []float64) {
	base := int(s) * t.dim
	return t.lo[base : base+t.dim], t.hi[base : base+t.dim]
}

// point returns the coordinates at packed position pos.
func (t *Tree) point(pos int32) []float64 {
	base := int(pos) * t.dim
	return t.pts[base : base+t.dim]
}

// sqMinMaxDist returns the smallest and largest SQUARED distances from q
// to slot s's box (the shared point-vs-box kernel); query paths compare
// them against squared radii, saving two math.Sqrt per node.
func (t *Tree) sqMinMaxDist(s int32, q []float64) (smin, smax float64) {
	lo, hi := t.box(s)
	return kernel.SqMinMaxPointBox(q, lo, hi)
}

// Size returns the number of indexed points.
func (t *Tree) Size() int { return t.sizeN }

// RangeCount returns how many points lie within distance r of q. All
// comparisons are on squared distances — no per-node math.Sqrt.
func (t *Tree) RangeCount(q []float64, r float64) int {
	if t.sizeN == 0 {
		return 0
	}
	return t.rangeCount(0, q, r*r, math.MaxInt)
}

// RangeCountCapped returns min(RangeCount(q, r), limit): the same
// traversal, stopping once the count reaches the limit.
func (t *Tree) RangeCountCapped(q []float64, r float64, limit int) int {
	if t.sizeN == 0 || limit <= 0 {
		return 0
	}
	return min(t.rangeCount(0, q, r*r, limit), limit)
}

// rangeCount counts the points within √r2 of q under node s; it may stop
// descending once the count reaches limit, so a result below limit is
// exact.
func (t *Tree) rangeCount(s int32, q []float64, r2 float64, limit int) int {
	smin, smax := t.sqMinMaxDist(s, q)
	if smin > r2 {
		return 0
	}
	if smax <= r2 {
		return int(t.size[s])
	}
	if t.leaf[s] {
		// Ambiguous leaf: stream its packed element range through the
		// block kernels instead of testing per point.
		return kernel.CountRange(t.sum, q, t.pts, int(t.elemFirst[s]), int(t.elemLast[s]), r2)
	}
	count := 0
	for c := t.childFirst[s]; c < t.childLast[s] && count < limit; c++ {
		count += t.rangeCount(c, q, r2, limit-count)
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
// the window [lo, hi) of radii its MBR leaves unresolved: radii the box
// cannot reach are dropped, radii that contain the whole box are credited
// with the subtree's stored size via a difference array, and only the
// radii in between descend. The squared schedule lives in a pooled
// scratch slice, so a probe with a warm dst allocates zero bytes. The
// result is element-wise identical to calling RangeCount per radius.
func (t *Tree) RangeCountMultiAppend(q []float64, radii []float64, dst []int) []int {
	return dualjoin.AppendMultiCounts(radii, dst, true, func(r2 []float64, diff []int) {
		if t.sizeN > 0 {
			t.multiCount(0, q, r2, 0, len(r2), diff)
		}
	})
}

// multiCount resolves the squared-radius window r2[lo:hi] for the subtree
// at slot s; diff is the difference array crediting element ranges in O(1).
func (t *Tree) multiCount(s int32, q []float64, r2 []float64, lo, hi int, diff []int) {
	smin, smax := t.sqMinMaxDist(s, q)
	for lo < hi && smin > r2[lo] {
		lo++ // box out of reach of the smallest radii
	}
	nh := lo
	for nh < hi && smax > r2[nh] {
		nh++ // box fully inside radii [nh, hi): settle them at once
	}
	if nh < hi {
		diff[nh] += int(t.size[s])
		diff[hi] -= int(t.size[s])
	}
	if lo >= nh {
		return
	}
	if t.leaf[s] {
		t.scanBuckets(int(t.elemFirst[s]), int(t.elemLast[s]), q, r2, lo, nh, diff)
		return
	}
	for c := t.childFirst[s]; c < t.childLast[s]; c++ {
		t.multiCount(c, q, r2, lo, nh, diff)
	}
}

// scanBuckets resolves the ambiguous radius window [lo, nh) for the
// packed positions [first, last) by block kernels: each surviving
// point's squared distance is bucketed into the difference array exactly
// as the per-point loop would. No quantized prefilter: the threshold is
// the ambiguous window's UPPER edge, which this node's own box already
// straddles, so per-block bounds almost never prune and only add cost
// (they regressed the batched-probe benchmarks ~20% before the bypass).
func (t *Tree) scanBuckets(first, last int, q []float64, r2 []float64, lo, nh int, diff []int) {
	// Leaves are fanout-sized (runtime-configurable), so the scan chunks
	// the range through a fixed stack buffer — one kernel call per chunk
	// instead of per 8-point block.
	var d2 [leafScanChunk]float64
	thr := r2[nh-1]
	for at := first; at < last; at += leafScanChunk {
		n := last - at
		if n > leafScanChunk {
			n = leafScanChunk
		}
		kernel.Dists(d2[:n], q, t.pts, at, at+n)
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
}

// RangeQuery returns the ids of points within distance r of q.
func (t *Tree) RangeQuery(q []float64, r float64) []int {
	return t.RangeQueryAppend(q, r, nil)
}

// RangeQueryAppend appends the ids of points within distance r of q
// (inclusive) to dst, reusing dst's capacity, and returns the extended
// slice. It lets hot loops recycle one scratch buffer across probes.
func (t *Tree) RangeQueryAppend(q []float64, r float64, dst []int) []int {
	if t.sizeN == 0 {
		return dst
	}
	return t.rangeQuery(0, q, r*r, dst)
}

func (t *Tree) rangeQuery(s int32, q []float64, r2 float64, dst []int) []int {
	smin, _ := t.sqMinMaxDist(s, q)
	if smin > r2 {
		return dst
	}
	if t.leaf[s] {
		var d2 [kernel.Block]float64
		for at, last := int(t.elemFirst[s]), int(t.elemLast[s]); at < last; {
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
	for c := t.childFirst[s]; c < t.childLast[s]; c++ {
		dst = t.rangeQuery(c, q, r2, dst)
	}
	return dst
}

// DiameterEstimate returns the root bounding box diagonal, an upper bound
// on the true diameter within a factor of √d.
func (t *Tree) DiameterEstimate() float64 {
	if t.sizeN == 0 {
		return 0
	}
	lo, hi := t.box(0)
	return metric.Euclidean(lo, hi)
}

// Height returns the tree height (0 when empty).
func (t *Tree) Height() int {
	if t.sizeN == 0 {
		return 0
	}
	h := 1
	for s := int32(0); !t.leaf[s]; s = t.childFirst[s] {
		h++
	}
	return h
}
