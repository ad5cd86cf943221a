package kdtree

import (
	"mccatch/internal/dualjoin"
	"mccatch/internal/kernel"
)

// This file implements the cross-set dual-tree COUNT join for the
// kd-tree (index.CrossCounter): for every query of a second point set,
// its full neighbor-count row over a nested radius schedule, from one
// traversal of the index tree against a throwaway kd-tree bulk-built
// over the queries. The geometry is the bridge join's (crossjoin.go) —
// min/max squared box distances classify query×point pairs wholesale —
// but the accumulation is the self-join's: additive per-radius count
// differences (dualjoin.Acc), credited one-directionally into the query
// tree's flat rows. Where the bridge join's minima let credited bounds
// clamp later windows from above, counts can never terminate early — a
// settled range [nh, hi) merely telescopes against an ancestor's
// [hi, hi') so each pair's credited ranges tile exactly once. A query
// scanned against a small index subtree is credited once per non-empty
// radius bucket of the scan (dualjoin.Acc.FoldCross), not once per close
// pair. All comparisons are on squared distances — no math.Sqrt
// anywhere.

// crossCountCtx is one traversal unit's context: the index tree, the
// throwaway query tree, the squared radius schedule and the unit's
// accumulator.
type crossCountCtx struct {
	in, out *Tree
	radii2  []float64
	acc     *dualjoin.Acc
}

// CountCrossMulti returns counts[e][i] = the number of indexed points
// within radii[e] (inclusive) of queries[i], for every query and every
// radius of the ascending schedule — computed by a dual-tree traversal
// against a throwaway tree over the queries instead of per-query
// probes. Counts are exact: bounds only ever defer ambiguous pairs,
// never approximate them. workers ≤ 0 means all cores, 1 means serial;
// the result is identical for every value.
func (t *Tree) CountCrossMulti(queries [][]float64, radii []float64, workers int) [][]int {
	a := len(radii)
	var out *Tree
	var subs, pts []int32
	if t.size > 0 && len(queries) > 0 && a > 0 {
		out = NewWithWorkers(queries, workers)
		subs, pts = out.seedSplit()
	}
	radii2 := make([]float64, a)
	for e, r := range radii {
		radii2[e] = r * r
	}
	nodes := 0
	if out != nil {
		nodes = out.size
	}
	return dualjoin.CountMatrix(a, len(queries), nodes, workers, len(subs)+len(pts),
		func(u int, acc *dualjoin.Acc) {
			c := crossCountCtx{in: t, out: out, radii2: radii2, acc: acc}
			if u < len(subs) {
				c.countVisit(subs[u], 0, 0, a)
			} else {
				c.probeCount(pts[u-len(subs)], 0, 0, a)
			}
		},
		func(node int32) (int32, int32) { return node, node + out.count[node] },
		func(pos int32) int { return int(out.ids[pos]) })
}

// countVisit classifies the pair of query subtree O against index
// subtree I for the radius window [lo, hi): radii below lo are already
// known to separate the two boxes, and radii at and above hi were
// settled (credited wholesale) by an ancestor pair, so each query×point
// pair's credited ranges telescope to exactly one credit per radius.
// Crediting is one-directional — only the query side accumulates.
func (c *crossCountCtx) countVisit(O, I int32, lo, hi int) {
	olo, ohi := c.out.box(O)
	ilo, ihi := c.in.box(I)
	smin, smax := dualjoin.SqMinMaxBoxBox(olo, ohi, ilo, ihi)
	lo, nh := dualjoin.Window(c.radii2, smin, smax, lo, hi)
	if nh < hi {
		// Every index point under I is within radii[nh..hi) of every
		// query under O.
		c.acc.CreditNode(O, nh, hi, int(c.in.count[I]))
	}
	if lo >= nh {
		return
	}
	// Ambiguous radii [lo, nh): decompose the side with the larger box
	// (ties descend the query side, keeping the descent deterministic). A
	// kd slot carries its own point, so descending I peels its point off
	// as a single-index-point visit, and descending O peels its point off
	// as a single-query probe.
	if c.in.boxDiag2(I) > c.out.boxDiag2(O) {
		c.indexPointCount(c.in.point(I), O, lo, nh)
		if l := c.in.left[I]; l >= 0 {
			c.countVisit(O, l, lo, nh)
		}
		if r := c.in.right[I]; r >= 0 {
			c.countVisit(O, r, lo, nh)
		}
		return
	}
	c.probeCount(O, I, lo, nh)
	if l := c.out.left[O]; l >= 0 {
		c.countVisit(l, I, lo, nh)
	}
	if r := c.out.right[O]; r >= 0 {
		c.countVisit(r, I, lo, nh)
	}
}

// probeCount resolves the single query point at slot p against index
// subtree I for the window [lo, hi): the counting sibling of the bridge
// join's probeFirst — wholesale ranges credit I's whole subtree, the
// slot's own point buckets exactly, and the recursion covers the rest.
func (c *crossCountCtx) probeCount(p, I int32, lo, hi int) {
	q := c.out.point(p)
	ilo, ihi := c.in.box(I)
	smin, smax := sqMinMaxDistToBox(q, ilo, ihi)
	lo, nh := dualjoin.Window(c.radii2, smin, smax, lo, hi)
	if nh < hi {
		c.acc.CreditPos(p, nh, hi, int(c.in.count[I]))
	}
	if lo >= nh {
		return
	}
	if cnt := int(c.in.count[I]); cnt <= scanCutoff {
		c.acc.FoldCross(c.out.pts, c.in.pts, c.in.dim, int(p), int(p)+1,
			int(I), int(I)+cnt, c.radii2, lo, nh)
		return
	}
	if d2 := kernel.SqDist(q, c.in.point(I)); d2 <= c.radii2[nh-1] {
		b := lo
		for d2 > c.radii2[b] {
			b++
		}
		c.acc.CreditPos(p, b, nh, 1)
	}
	if l := c.in.left[I]; l >= 0 {
		c.probeCount(p, l, lo, nh)
	}
	if r := c.in.right[I]; r >= 0 {
		c.probeCount(p, r, lo, nh)
	}
}

// indexPointCount resolves a single INDEX point against query subtree O
// for the window [lo, hi): the one-directional mirror of probeCount,
// crediting q into the rows of O's queries.
func (c *crossCountCtx) indexPointCount(q []float64, O int32, lo, hi int) {
	olo, ohi := c.out.box(O)
	smin, smax := sqMinMaxDistToBox(q, olo, ohi)
	lo, nh := dualjoin.Window(c.radii2, smin, smax, lo, hi)
	if nh < hi {
		c.acc.CreditNode(O, nh, hi, 1) // q is within radii[nh..hi) of every query under O
	}
	if lo >= nh {
		return
	}
	if d2 := kernel.SqDist(q, c.out.point(O)); d2 <= c.radii2[nh-1] {
		b := lo
		for d2 > c.radii2[b] {
			b++
		}
		c.acc.CreditPos(O, b, nh, 1)
	}
	if l := c.out.left[O]; l >= 0 {
		c.indexPointCount(q, l, lo, nh)
	}
	if r := c.out.right[O]; r >= 0 {
		c.indexPointCount(q, r, lo, nh)
	}
}
