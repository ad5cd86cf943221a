package dualjoin

import "mccatch/internal/kernel"

// This file holds the leaf-batched capped count of the kd-tree and
// R-tree (index.CappedCounter's CountAllCapped): every indexed point's
// count within r, clipped at its own limit. The tree is cut into
// groups of its own points — the R-tree's leaves, the kd-tree's small
// subtrees plus the single points of its upper slots — and each group
// first runs one traversal of the tree for a lower bound that holds for
// every point of the group at once: the number of points y that lie
// within r of the group's whole box.
//
//   - A node whose box-box maximum against the group's box is within r
//     lies within r of every point of the group: its size is credited
//     at once.
//   - A node whose points all reach farther than r past some corner of
//     the group's box (kernel.SqFarBoxBox) can credit nothing, and is
//     dropped.
//   - In a leaf left ambiguous, each point y whose point-vs-box maximum
//     (kernel.SqMinMaxPointBox against the group's box) is within r is
//     credited.
//   - The traversal stops once the bound reaches the group's largest
//     limit.
//
// A point whose limit the bound reaches gets its limit; any other
// point is counted by its own capped probe. The credits use only box
// corners, with the arithmetic of the dual joins' wholesale credits:
// rounding is monotone, so a point inside a box never computes a
// squared distance above the box's bound, and the bound never exceeds
// a true count. Each group writes only its own points' slots, so no
// accumulator, buffer or lock is shared between workers.

// Capped is one worker's state for the lower bound of one group.
type Capped struct {
	pts    []float64 // the tree's packed coordinates
	dim    int
	r2     float64
	lo, hi []float64 // the group's box
	lb     int       // the bound so far
	need   int       // the group's largest limit
}

// NewCapped starts the bound of a group with box [lo, hi], whose
// largest limit is need, for squared radius r2 over a tree's packed
// coordinates pts.
func NewCapped(pts []float64, dim int, r2 float64, lo, hi []float64, need int) Capped {
	return Capped{pts: pts, dim: dim, r2: r2, lo: lo, hi: hi, need: need}
}

// Bound is the lower bound on every group point's count found so far.
func (c *Capped) Bound() int { return c.lb }

// Settled reports whether the bound reaches every limit of the group,
// so the traversal may stop.
func (c *Capped) Settled() bool { return c.lb >= c.need }

// Node classifies a tree node with box [lo, hi] holding size points
// against the group's box: it credits the node when all of it lies
// within r of the whole group, and reports whether the caller must
// descend (or scan) it.
func (c *Capped) Node(lo, hi []float64, size int) bool {
	if kernel.SqFarBoxBox(c.lo, c.hi, lo, hi) > c.r2 {
		return false
	}
	if _, smax := kernel.SqMinMaxBoxBox(c.lo, c.hi, lo, hi); smax > c.r2 {
		return true
	}
	c.lb += size
	return false
}

// Scan credits the points at packed positions [first, last) that lie
// within r of the whole group's box.
func (c *Capped) Scan(first, last int) {
	for at := first; at < last; at++ {
		y := c.pts[at*c.dim : (at+1)*c.dim]
		if _, far := kernel.SqMinMaxPointBox(y, c.lo, c.hi); far <= c.r2 {
			c.lb++
		}
	}
}
