package kdtree

import (
	"mccatch/internal/dualjoin"
	"mccatch/internal/kernel"
)

// This file implements the dual-tree multi-radius self-join for the
// kd-tree (index.SelfMultiCounter): the neighbor counts of EVERY indexed
// point at EVERY radius of a nested schedule, from one traversal of the
// tree against itself. Where per-point probing re-derives the same
// box-level geometry once per query point, the dual traversal classifies
// PAIRS of subtrees: the min/max squared distances between two bounding
// boxes bracket every point pair under them, so whole blocks of pairs are
// credited (or discarded) wholesale, and only pairs straddling some
// radius descend toward point-level distances. The join is symmetric, so
// unordered subtree pairs are visited once and every credit reaches both
// sides: wholesale credits go in pairs, and the small-range scans tally
// their close pairs per point and radius bucket and credit each point of
// both ranges once per non-empty bucket (dualjoin.Acc.FoldPairs /
// FoldSelf). All comparisons are on squared distances — no math.Sqrt
// anywhere.
//
// The arena layout makes the crediting flat: a kd slot IS both a node
// index and an element position (preorder), so point credits address
// Acc's position rows directly and a subtree credit is the slot's
// contiguous preorder range [p, p+count[p]). A kd slot carries its own
// point besides two subtrees, so the decomposition of an ambiguous pair
// has three shapes: subtree-vs-subtree (symVisit), point-vs-subtree
// (pointVisit) and point-vs-point (inline). The accumulator, leaf-scan
// fold, scheduling and merge machinery is internal/dualjoin's.

// dualCtx is one traversal unit's context: the tree, the squared radius
// schedule and the unit's accumulator.
type dualCtx struct {
	t      *Tree
	radii2 []float64
	acc    *dualjoin.Acc
}

// CountAllMulti returns counts[e][id] = the number of indexed points
// within radii[e] of point id (inclusive, so ≥ 1), for every indexed
// point and every radius of the ascending schedule radii — computed by a
// dual-tree traversal instead of per-point probes. Counts are exact:
// bounds only ever defer ambiguous pairs, never approximate them.
// workers ≤ 0 means all cores, 1 means serial; the result is identical
// for every value.
func (t *Tree) CountAllMulti(radii []float64, workers int) [][]int {
	a := len(radii)
	var units []func(*dualCtx)
	if t.size > 0 {
		units = t.seedUnits()
	}
	radii2 := make([]float64, a)
	for e, r := range radii {
		radii2[e] = r * r
	}
	return dualjoin.CountMatrix(a, t.size, t.size, workers, len(units),
		func(u int, acc *dualjoin.Acc) {
			c := dualCtx{t: t, radii2: radii2, acc: acc}
			units[u](&c)
		},
		func(node int32) (int32, int32) { return node, node + t.count[node] },
		func(pos int32) int { return int(t.ids[pos]) })
}

// seedUnitTarget is how many seeds (subtrees plus loose points) the root
// is expanded into before pairing them up as work units: ~24 seeds give
// ~300 units, plenty of slack for rebalancing across any realistic
// worker count while keeping per-unit accumulator overhead negligible.
const seedUnitTarget = 24

// seedUnits deterministically expands the root into seeds — disjoint
// subtrees plus the points of the expanded internal slots — and returns
// one closure per unordered seed pair (self-pairs included). The unit set
// depends only on the tree, never on the worker count, and together the
// units cover every unordered point pair exactly once.
func (t *Tree) seedUnits() []func(*dualCtx) {
	subs, pts := t.seedSplit()
	var units []func(*dualCtx)
	for i, s := range subs {
		s := s
		units = append(units, func(c *dualCtx) { c.selfVisit(s, 0, len(c.radii2)) })
		for _, o := range subs[i+1:] {
			o := o
			units = append(units, func(c *dualCtx) { c.symVisit(s, o, 0, len(c.radii2)) })
		}
		for _, p := range pts {
			p := p
			units = append(units, func(c *dualCtx) { c.pointVisit(p, s, 0, len(c.radii2)) })
		}
	}
	for i, p := range pts {
		p := p
		// A point with itself: d = 0 lies within every radius.
		units = append(units, func(c *dualCtx) { c.acc.CreditPos(p, 0, len(c.radii2), 1) })
		for _, q := range pts[i+1:] {
			q := q
			units = append(units, func(c *dualCtx) {
				c.acc.FoldPairs(c.t.pts, c.t.dim, int(p), int(p)+1, int(q), int(q)+1,
					c.radii2, 0, len(c.radii2))
			})
		}
	}
	return units
}

// seedSplit deterministically expands the root into ~seedUnitTarget
// seeds: disjoint subtree slots plus the loose points (slots) of the
// expanded internal nodes. Together the seeds cover every point exactly
// once, and the split depends only on the tree — never on the worker
// count — so both the self-join's pair units and the cross-join's
// per-seed units are schedule-independent.
func (t *Tree) seedSplit() (subs, pts []int32) {
	subs = []int32{0}
	for len(subs)+len(pts) < seedUnitTarget {
		// Expand the largest subtree (ties toward the smaller point id,
		// which is unique per slot).
		best := -1
		for i, s := range subs {
			if t.count[s] < 2 {
				continue
			}
			if best < 0 || t.count[s] > t.count[subs[best]] ||
				(t.count[s] == t.count[subs[best]] && t.ids[s] < t.ids[subs[best]]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		s := subs[best]
		subs = append(subs[:best], subs[best+1:]...)
		pts = append(pts, s)
		if l := t.left[s]; l >= 0 {
			subs = append(subs, l)
		}
		if r := t.right[s]; r >= 0 {
			subs = append(subs, r)
		}
	}
	return subs, pts
}

// boxDiag2 is the squared diagonal of slot p's bounding box — the largest
// squared distance any pair of points under p can realize.
func (t *Tree) boxDiag2(p int32) float64 {
	lo, hi := t.box(p)
	return kernel.SqBoxDiag(lo, hi)
}

// selfVisit classifies the pair of subtree A with itself for the radius
// window [lo, hi): radii at and above hi have already been credited with
// the whole subtree by an ancestor pair. Self-pairs put the minimum
// distance at 0, so no radius ever drops from the bottom of the window.
func (c *dualCtx) selfVisit(A int32, lo, hi int) {
	t := c.t
	smax := t.boxDiag2(A)
	nh := lo
	for nh < hi && smax > c.radii2[nh] {
		nh++ // radii [nh, hi) contain every pair: settle them at once
	}
	if nh < hi {
		c.acc.CreditNode(A, nh, hi, int(t.count[A]))
	}
	if lo >= nh {
		return
	}
	if cnt := int(t.count[A]); cnt <= pairScanCutoff {
		// Small ambiguous subtree: resolve every unordered pair within
		// its contiguous preorder range by block kernels — the self-pairs
		// (d = 0) lie within every open radius.
		c.acc.FoldSelf(t.pts, t.dim, int(A), int(A)+cnt, c.radii2, lo, nh)
		return
	}
	// Ambiguous radii [lo, nh): decompose into A's own point against
	// itself (d = 0: within every radius) and against each subtree, the
	// two subtrees against themselves, and against each other.
	c.acc.CreditPos(A, lo, nh, 1)
	l, r := t.left[A], t.right[A]
	if l >= 0 {
		c.pointVisit(A, l, lo, nh)
		c.selfVisit(l, lo, nh)
	}
	if r >= 0 {
		c.pointVisit(A, r, lo, nh)
		c.selfVisit(r, lo, nh)
	}
	if l >= 0 && r >= 0 {
		c.symVisit(l, r, lo, nh)
	}
}

// symVisit classifies the unordered pair of DISJOINT subtrees (A, B) for
// the radius window [lo, hi): radii below lo are already known to
// separate the two boxes, radii at and above hi have been credited by an
// ancestor pair. Every credit reaches both sides, so each unordered pair
// is traversed exactly once.
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
		c.acc.CreditNode(A, nh, hi, int(t.count[B]))
		c.acc.CreditNode(B, nh, hi, int(t.count[A]))
	}
	if lo >= nh {
		return
	}
	if ca, cb := int(t.count[A]), int(t.count[B]); ca <= pairScanCutoff && cb <= pairScanCutoff {
		// Both sides small: resolve the cross pairs of the two contiguous
		// preorder ranges directly.
		c.acc.FoldPairs(t.pts, t.dim, int(A), int(A)+ca, int(B), int(B)+cb, c.radii2, lo, nh)
		return
	}
	// Descend the side with the larger box; ties split A, keeping the
	// descent deterministic.
	down, other := A, B
	if t.boxDiag2(B) > t.boxDiag2(A) {
		down, other = B, A
	}
	c.pointVisit(down, other, lo, nh)
	if l := t.left[down]; l >= 0 {
		c.symVisit(l, other, lo, nh)
	}
	if r := t.right[down]; r >= 0 {
		c.symVisit(r, other, lo, nh)
	}
}

// pointVisit classifies the pair of slot p's single point with subtree B
// for the radius window [lo, hi), crediting both directions: B's points
// into the point's row, and the point into B's rows.
func (c *dualCtx) pointVisit(p, B int32, lo, hi int) {
	t := c.t
	q := t.point(p)
	blo, bhi := t.box(B)
	smin, smax := sqMinMaxDistToBox(q, blo, bhi)
	for lo < hi && smin > c.radii2[lo] {
		lo++
	}
	nh := lo
	for nh < hi && smax > c.radii2[nh] {
		nh++
	}
	if nh < hi {
		c.acc.CreditPos(p, nh, hi, int(t.count[B]))
		c.acc.CreditNode(B, nh, hi, 1)
	}
	if lo >= nh {
		return
	}
	if cnt := int(t.count[B]); cnt <= scanCutoff {
		c.acc.FoldPairs(t.pts, t.dim, int(p), int(p)+1, int(B), int(B)+cnt, c.radii2, lo, nh)
		return
	}
	if d2 := kernel.SqDist(q, t.point(B)); d2 <= c.radii2[nh-1] {
		b := lo
		for d2 > c.radii2[b] {
			b++
		}
		c.acc.CreditPos(p, b, nh, 1)
		c.acc.CreditPos(B, b, nh, 1)
	}
	if l := t.left[B]; l >= 0 {
		c.pointVisit(p, l, lo, nh)
	}
	if r := t.right[B]; r >= 0 {
		c.pointVisit(p, r, lo, nh)
	}
}
