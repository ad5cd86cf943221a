package rtree

import (
	"mccatch/internal/dualjoin"
	"mccatch/internal/kernel"
)

// This file implements the dual-tree multi-radius self-join for the
// R-tree (index.SelfMultiCounter): the neighbor counts of EVERY indexed
// point at EVERY radius of a nested schedule, from one traversal of the
// tree against itself. The min/max squared distances between two MBRs
// bracket every point pair under them, so whole blocks of pairs are
// credited (or discarded) wholesale; only pairs straddling some radius
// descend, bottoming out in leaf-vs-leaf scans over the packed point
// block. The join is symmetric, so unordered node pairs are visited once
// and their wholesale credits go both ways; a leaf scan tallies its
// close pairs per point and radius bucket and credits each point of
// both leaves once per non-empty bucket (dualjoin.Acc.FoldPairs /
// FoldSelf). All comparisons are on squared distances — no math.Sqrt
// anywhere. Credits are flat: point credits address the packed element
// positions, and a wholesale subtree credit is the slot's contiguous
// element range. The accumulator, leaf-scan fold, scheduling and merge
// machinery is internal/dualjoin's.

// boxDiag2 is the squared diagonal of slot s's MBR — the largest squared
// distance any pair of points under s can realize.
func (t *Tree) boxDiag2(s int32) float64 {
	lo, hi := t.box(s)
	return kernel.SqBoxDiag(lo, hi)
}

type dualCtx struct {
	t      *Tree
	radii2 []float64
	acc    *dualjoin.Acc
}

// CountAllMulti returns counts[e][id] = the number of indexed points
// within radii[e] of point id (inclusive, so ≥ 1), for every indexed
// point and every radius of the ascending schedule radii — computed by a
// dual-tree traversal instead of per-point probes. Counts are exact.
// workers ≤ 0 means all cores, 1 means serial; the result is identical
// for every value.
func (t *Tree) CountAllMulti(radii []float64, workers int) [][]int {
	a := len(radii)
	radii2 := make([]float64, a)
	for e, r := range radii {
		radii2[e] = r * r
	}

	// Work units: the unordered pairs of the root's children (self-pairs
	// included) — up to fanout·(fanout+1)/2 of them — or the root itself
	// when it is a single leaf.
	type unit struct{ i, j int32 }
	var units []unit
	if t.sizeN > 0 {
		if t.leaf[0] {
			units = []unit{{-1, -1}}
		} else {
			for i := t.childFirst[0]; i < t.childLast[0]; i++ {
				for j := i; j < t.childLast[0]; j++ {
					units = append(units, unit{i, j})
				}
			}
		}
	}
	return dualjoin.CountMatrix(a, t.sizeN, len(t.leaf), workers, len(units),
		func(u int, acc *dualjoin.Acc) {
			c := dualCtx{t: t, radii2: radii2, acc: acc}
			switch {
			case units[u].i < 0:
				c.selfVisit(0, 0, a)
			case units[u].i == units[u].j:
				c.selfVisit(units[u].i, 0, a)
			default:
				c.symVisit(units[u].i, units[u].j, 0, a)
			}
		},
		func(node int32) (int32, int32) { return t.elemFirst[node], t.elemLast[node] },
		func(pos int32) int { return int(t.ids[pos]) })
}

// selfVisit classifies the pair of subtree A with itself for the radius
// window [lo, hi). Self-pairs put the minimum distance at 0, so no radius
// ever drops from the bottom of the window.
func (c *dualCtx) selfVisit(A int32, lo, hi int) {
	t := c.t
	smax := t.boxDiag2(A)
	nh := lo
	for nh < hi && smax > c.radii2[nh] {
		nh++ // radii [nh, hi) contain every pair: settle them at once
	}
	if nh < hi {
		c.acc.CreditNode(A, nh, hi, int(t.size[A]))
	}
	if lo >= nh {
		return
	}
	if t.leaf[A] {
		c.acc.FoldSelf(t.pts, t.dim, int(t.elemFirst[A]), int(t.elemLast[A]), c.radii2, lo, nh)
		return
	}
	for i := t.childFirst[A]; i < t.childLast[A]; i++ {
		c.selfVisit(i, lo, nh)
		for j := i + 1; j < t.childLast[A]; j++ {
			c.symVisit(i, j, lo, nh)
		}
	}
}

// symVisit classifies the unordered pair of DISJOINT subtrees (A, B) for
// the radius window [lo, hi). Every credit reaches both sides — wholesale
// node credits in pairs, leaf scans through the fold — so each
// unordered pair is traversed exactly once.
func (c *dualCtx) symVisit(A, B int32, lo, hi int) {
	t := c.t
	alo, ahi := t.box(A)
	blo, bhi := t.box(B)
	smin, smax := dualjoin.SqMinMaxBoxBox(alo, ahi, blo, bhi)
	for lo < hi && smin > c.radii2[lo] {
		lo++ // the boxes are fully separated at the smallest radii
	}
	nh := lo
	for nh < hi && smax > c.radii2[nh] {
		nh++
	}
	if nh < hi {
		c.acc.CreditNode(A, nh, hi, int(t.size[B]))
		c.acc.CreditNode(B, nh, hi, int(t.size[A]))
	}
	if lo >= nh {
		return
	}
	if t.leaf[A] && t.leaf[B] {
		c.acc.FoldPairs(t.pts, t.dim, int(t.elemFirst[A]), int(t.elemLast[A]),
			int(t.elemFirst[B]), int(t.elemLast[B]), c.radii2, lo, nh)
		return
	}
	// Descend the internal side — the one with the larger box when both
	// are internal (ties split A, keeping the descent deterministic).
	down, other := A, B
	if t.leaf[A] || (!t.leaf[B] && t.boxDiag2(B) > t.boxDiag2(A)) {
		down, other = B, A
	}
	for ch := t.childFirst[down]; ch < t.childLast[down]; ch++ {
		c.symVisit(ch, other, lo, nh)
	}
}
