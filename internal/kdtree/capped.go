package kdtree

import (
	"mccatch/internal/dualjoin"
	"mccatch/internal/parallel"
)

// This file holds the batched form of index.CappedCounter for the
// kd-tree (RangeCountCapped, the per-query form, is RangeCount's
// traversal with a limit). CountAllCapped cuts the tree
// into groups of its own points — the maximal subtrees of at most
// scanCutoff slots, whose ranges the queries already scan as leaves,
// and the single point of each slot above them — and each group runs
// one traversal against its box for a lower bound shared by its points
// (internal/dualjoin's Capped); only the points it leaves below their
// limits are probed one by one.

// CountAllCapped sets dst[id] = min(the number of indexed points within
// r of point id, limits[id]) for every point with a positive limit,
// group by group; each group writes only its own points' slots.
func (t *Tree) CountAllCapped(r float64, limits, dst []int, workers int) {
	if t.size == 0 {
		return
	}
	r2 := r * r
	parallel.For(workers, t.size, func(i int) {
		p := int32(i)
		lo, hi := t.box(p)
		first, last := i, i+int(t.count[p])
		if last-first > scanCutoff {
			// An upper slot: its own point is a group, boxed by itself.
			lo, hi = t.point(p), t.point(p)
			last = first + 1
		} else if par := t.parent[p]; par >= 0 && t.count[par] <= scanCutoff {
			return // inside the group of an ancestor
		}
		need := 0
		for pos := first; pos < last; pos++ {
			need = max(need, limits[t.ids[pos]])
		}
		if need <= 0 {
			return
		}
		c := dualjoin.NewCapped(t.pts, t.dim, r2, lo, hi, need)
		if rlo, rhi := t.box(0); c.Node(rlo, rhi, t.size) {
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

// cappedVisit descends slot p, which Node left ambiguous against the
// group of c: a small subtree is scanned point by point; otherwise the
// slot's own point is, and the children are classified and descended
// until the group is settled.
func (t *Tree) cappedVisit(c *dualjoin.Capped, p int32) {
	if cnt := int(t.count[p]); cnt <= scanCutoff {
		c.Scan(int(p), int(p)+cnt)
		return
	}
	c.Scan(int(p), int(p)+1)
	for _, ch := range [2]int32{t.left[p], t.right[p]} {
		if ch < 0 || c.Settled() {
			continue
		}
		if lo, hi := t.box(ch); c.Node(lo, hi, int(t.count[ch])) {
			t.cappedVisit(c, ch)
		}
	}
}
