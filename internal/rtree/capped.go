package rtree

import (
	"mccatch/internal/dualjoin"
	"mccatch/internal/parallel"
)

// This file holds the batched form of index.CappedCounter for the
// R-tree (RangeCountCapped, the per-query form, is RangeCount's
// traversal with a limit). CountAllCapped takes each leaf
// of the tree itself as a group: one traversal against the leaf's box
// finds a lower bound shared by its points (internal/dualjoin's
// Capped), and only the points it leaves below their limits are probed
// one by one.

// CountAllCapped sets dst[id] = min(the number of indexed points within
// r of point id, limits[id]) for every point with a positive limit,
// leaf by leaf; each leaf writes only its own points' slots.
func (t *Tree) CountAllCapped(r float64, limits, dst []int, workers int) {
	if t.sizeN == 0 {
		return
	}
	r2 := r * r
	parallel.For(workers, len(t.leaf), func(s int) {
		if !t.leaf[s] {
			return
		}
		first, last := int(t.elemFirst[s]), int(t.elemLast[s])
		need := 0
		for pos := first; pos < last; pos++ {
			need = max(need, limits[t.ids[pos]])
		}
		if need <= 0 {
			return
		}
		lo, hi := t.box(int32(s))
		c := dualjoin.NewCapped(t.pts, t.dim, r2, lo, hi, need)
		if rlo, rhi := t.box(0); c.Node(rlo, rhi, t.sizeN) {
			t.cappedVisit(&c, 0)
		}
		for pos := first; pos < last; pos++ {
			switch id := t.ids[pos]; {
			case limits[id] <= 0:
			case limits[id] <= c.Bound():
				dst[id] = limits[id]
			default:
				dst[id] = min(t.rangeCount(0, t.point(int32(pos)), r2, limits[id]), limits[id])
			}
		}
	})
}

// cappedVisit descends slot s, which Node left ambiguous against the
// group of c: a leaf is scanned point by point, and an internal node's
// children are classified and descended until the group is settled.
func (t *Tree) cappedVisit(c *dualjoin.Capped, s int32) {
	if t.leaf[s] {
		c.Scan(int(t.elemFirst[s]), int(t.elemLast[s]))
		return
	}
	for ch := t.childFirst[s]; ch < t.childLast[s] && !c.Settled(); ch++ {
		lo, hi := t.box(ch)
		if c.Node(lo, hi, int(t.size[ch])) {
			t.cappedVisit(c, ch)
		}
	}
}
