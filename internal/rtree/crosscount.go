package rtree

import "mccatch/internal/dualjoin"

// This file implements the cross-set dual-tree COUNT join for the
// R-tree (index.CrossCounter): for every query of a second point set,
// its full neighbor-count row over a nested radius schedule, from one
// traversal of the index tree against a throwaway STR tree bulk-built
// over the queries. The geometry is the bridge join's (crossjoin.go) —
// min/max squared MBR distances classify query×point pairs wholesale —
// but the accumulation is the self-join's additive count differences
// (dualjoin.Acc), credited one-directionally into the query tree's flat
// rows: a settled range [nh, hi) telescopes against the ancestor's so
// each pair's credited ranges tile exactly once. Leaf×leaf pairs
// resolve by block kernels over the packed point blocks, without the
// quantized prefilter — as in the self-join, the threshold is the
// ambiguous window's upper edge, which the node-level bounds already
// straddle — and each query is credited once per non-empty radius
// bucket of the leaf pair (dualjoin.Acc.FoldCross), not once per close
// pair. All comparisons are on squared distances.

type crossCountCtx struct {
	in, out *Tree
	radii2  []float64
	acc     *dualjoin.Acc
}

// CountCrossMulti returns counts[e][i] = the number of indexed points
// within radii[e] (inclusive) of queries[i], for every query and every
// radius of the ascending schedule — computed by a dual-tree traversal
// against a throwaway tree over the queries instead of per-query
// probes. Counts are exact. workers ≤ 0 means all cores, 1 means
// serial; the result is identical for every value.
func (t *Tree) CountCrossMulti(queries [][]float64, radii []float64, workers int) [][]int {
	a := len(radii)
	radii2 := make([]float64, a)
	for e, r := range radii {
		radii2[e] = r * r
	}
	// Work units: the cross product of the query tree's top-level nodes
	// with the index tree's, exactly as in the bridge join — each unit
	// resolves one (query subtree, index subtree) pair completely, and
	// the additive credits merge across any schedule.
	var out *Tree
	var outSeeds, inSeeds []int32
	if t.sizeN > 0 && len(queries) > 0 && a > 0 {
		out = NewWithWorkers(queries, t.fanout, workers)
		outSeeds = out.topNodes()
		inSeeds = t.topNodes()
	}
	nodes := 0
	if out != nil {
		nodes = len(out.leaf)
	}
	return dualjoin.CountMatrix(a, len(queries), nodes, workers, len(outSeeds)*len(inSeeds),
		func(u int, acc *dualjoin.Acc) {
			c := crossCountCtx{in: t, out: out, radii2: radii2, acc: acc}
			c.countVisit(outSeeds[u/len(inSeeds)], inSeeds[u%len(inSeeds)], 0, a)
		},
		func(node int32) (int32, int32) { return out.elemFirst[node], out.elemLast[node] },
		func(pos int32) int { return int(out.ids[pos]) })
}

// countVisit classifies the pair of query subtree O against index
// subtree I for the radius window [lo, hi): radii below lo cannot
// bridge the two MBRs, and radii at and above hi were settled wholesale
// by an ancestor pair. Crediting is one-directional — only the query
// side accumulates.
func (c *crossCountCtx) countVisit(O, I int32, lo, hi int) {
	olo, ohi := c.out.box(O)
	ilo, ihi := c.in.box(I)
	smin, smax := dualjoin.SqMinMaxBoxBox(olo, ohi, ilo, ihi)
	lo, nh := dualjoin.Window(c.radii2, smin, smax, lo, hi)
	if nh < hi {
		// Every index point under I is within radii[nh..hi) of every
		// query under O.
		c.acc.CreditNode(O, nh, hi, int(c.in.size[I]))
	}
	if lo >= nh {
		return
	}
	if c.out.leaf[O] && c.in.leaf[I] {
		c.acc.FoldCross(c.out.pts, c.in.pts, c.in.dim,
			int(c.out.elemFirst[O]), int(c.out.elemLast[O]),
			int(c.in.elemFirst[I]), int(c.in.elemLast[I]), c.radii2, lo, nh)
		return
	}
	// Descend the internal side — the one with the larger box when both
	// are internal (ties descend the query side, keeping the descent
	// deterministic).
	if c.out.leaf[O] || (!c.in.leaf[I] && c.in.boxDiag2(I) > c.out.boxDiag2(O)) {
		for ch := c.in.childFirst[I]; ch < c.in.childLast[I]; ch++ {
			c.countVisit(O, ch, lo, nh)
		}
		return
	}
	for ch := c.out.childFirst[O]; ch < c.out.childLast[O]; ch++ {
		c.countVisit(ch, I, lo, nh)
	}
}
