package slimtree

import (
	"math"

	"mccatch/internal/dualjoin"
	"mccatch/internal/kernel"
)

// This file implements the cross-set dual-tree bridge join
// (index.CrossMultiCounter): for every query of a second element set —
// MCCATCH's outliers probing the inlier tree — the index of the first
// radius of a nested schedule with at least one indexed neighbor, from
// one traversal of the inlier tree against a throwaway slim-tree
// bulk-built over the queries. One pivot-to-pivot distance d with the
// two covering radii bounds every query×element pair under an entry pair
// by [d-r1-r2, d+r1+r2] — the self-join's geometry — but accumulation is
// per-query MINIMA (internal/dualjoin's MinAcc) rather than counts, so
// any bound already credited to a query entry narrows later pairs'
// windows from above and prunes their metric evaluations entirely. The
// rows are flat over the throwaway tree's arena — queries by packed
// element position, subtrees by node slot — and the descent prefilters
// child pairs with stored parent distances (the triangle trick
// rangeVisit uses), so many blocks settle without a fresh metric
// evaluation.

// crossCtx is one traversal unit's context: the distance-call counter
// (on the INDEX tree), the throwaway query tree, the radius schedule and
// the unit's min-accumulator.
type crossCtx[T any] struct {
	visitState[T]
	out   *Tree[T]
	radii []float64
	acc   *dualjoin.MinAcc
}

// credit records that every query under query-tree entry qe has an
// indexed neighbor within radii[b]: directly into the query's best row
// for leaf entries, into the subtree's wholesale bound otherwise. This
// is the join's innermost loop (see dualjoin.MinAcc).
func (c *crossCtx[T]) credit(qe int32, b int) {
	if ch := c.out.eChild[qe]; ch >= 0 {
		if int32(b) < c.acc.NodeBest[ch] {
			c.acc.NodeBest[ch] = int32(b)
		}
		return
	}
	if int32(b) < c.acc.Best[c.out.ePos[qe]] {
		c.acc.Best[c.out.ePos[qe]] = int32(b)
	}
}

// bound returns the smallest radius index already credited to every
// query under qe, or hi when none is on record.
func (c *crossCtx[T]) bound(qe int32, hi int) int {
	var b int32
	if ch := c.out.eChild[qe]; ch >= 0 {
		b = c.acc.NodeBest[ch]
	} else {
		b = c.acc.Best[c.out.ePos[qe]]
	}
	if int(b) < hi {
		return int(b)
	}
	return hi
}

// BridgeFirsts returns, for each query element, the index of the first
// radius of the ascending schedule radii with at least one indexed
// element within that radius (inclusive), or len(radii) when even the
// largest radius finds none — computed by a dual-tree traversal of the
// index against a throwaway bulk-built tree over the queries. Results
// are exact (bounds only ever defer ambiguous pairs, never approximate
// them) and identical for every worker count.
func (t *Tree[T]) BridgeFirsts(queries []T, radii []float64, workers int) []int {
	a := len(radii)

	// The units are the pairs of (query root entry, index root entry):
	// each resolves its block of query×element pairs completely, and the
	// per-query minima merge across any schedule.
	type unit struct{ i, j int32 }
	var units []unit
	var qt *Tree[T]
	if t.size > 0 && len(queries) > 0 && a > 0 {
		qt = NewWithWorkers(t.dist, t.capacity, queries, workers)
		for i := qt.entFirst[0]; i < qt.entLast[0]; i++ {
			for j := t.entFirst[0]; j < t.entLast[0]; j++ {
				units = append(units, unit{i, j})
			}
		}
	}
	nodes := 0
	if qt != nil {
		nodes = len(qt.leaf)
	}
	return dualjoin.FirstMatrix(a, len(queries), nodes, workers, len(units),
		func(u int, acc *dualjoin.MinAcc) {
			c := crossCtx[T]{visitState: visitState[T]{t: t}, out: qt, radii: radii, acc: acc}
			// Root entries have no live parent pivot (their dPar is stale
			// by construction), so no prefilter applies up here.
			c.crossVisit(units[u].i, units[u].j, 0, a)
			t.distCalls.Add(c.calls)
		},
		func(node int32) (int32, int32) { return qt.elemFirst[node], qt.elemLast[node] },
		func(pos int32) int { return int(qt.leafIDs[pos]) })
}

// crossVisit classifies the pair of query entry qe (in the throwaway
// tree's arena) against index entry ie (in the index tree's) for the
// radius window [lo, hi): radii below lo are already known to separate
// the two subtrees, and every query under qe is already known to meet an
// indexed element by radii[hi] (an ancestor's or an earlier pair's
// credit, consulted again here so pairs resolved elsewhere prune before
// paying a metric evaluation). Crediting is one-directional — only the
// query side accumulates. A leaf×leaf pair settles inside Window: with
// both covering radii zero the settled index IS the element pair's
// bucket.
func (c *crossCtx[T]) crossVisit(qe, ie int32, lo, hi int) {
	hi = c.bound(qe, hi)
	if lo >= hi {
		return
	}
	in, out := c.t, c.out
	d := c.d(out.ePivot[qe], in.ePivot[ie])
	sum := out.eRD[2*qe] + in.eRD[2*ie]
	lo, nh := dualjoin.Window(c.radii, d-sum, d+sum, lo, hi)
	if nh < hi {
		c.credit(qe, nh) // every pair lies within radii[nh]
	}
	if lo >= nh {
		return
	}
	radii := c.radii
	// Descend the side with the larger covering ball; ties and leaf
	// entries keep the descent deterministic. Child pairs are prefiltered
	// with the stored parent distances: |d - dPar| bounds the child pivot
	// distance from below and d + dPar from above — the upper bound can
	// settle a child block without a metric evaluation.
	if out.eChild[qe] < 0 || (in.eChild[ie] >= 0 && in.eRD[2*ie] > out.eRD[2*qe]) {
		// Index side descends: qe's queries accumulate bounds as the
		// children resolve, so the window re-narrows between children.
		// (A leaf×leaf pair never reaches here: its Window above settles
		// with an empty ambiguous range, since both covering radii are 0.)
		child := in.eChild[ie]
		if out.eChild[qe] < 0 && in.leaf[child] && in.kc != nil && out.kc != nil && in.kdim == out.kdim {
			c.crossScanIndexLeaf(qe, child, d, lo, nh)
			return
		}
		qrad := out.eRD[2*qe]
		for ce := in.entFirst[child]; ce < in.entLast[child]; ce++ {
			nh = c.bound(qe, nh)
			if lo >= nh {
				return
			}
			csum := in.eRD[2*ce] + qrad
			dp := in.eRD[2*ce+1]
			clb := d - dp
			if clb < dp-d {
				clb = dp - d
			}
			clb -= csum
			b := lo
			for b < nh && clb > radii[b] {
				b++
			}
			if b == nh {
				continue
			}
			if d+dp+csum <= radii[b] {
				c.credit(qe, b)
				continue
			}
			c.crossVisit(qe, ce, b, nh)
		}
		return
	}
	child := out.eChild[qe]
	if out.leaf[child] && in.eChild[ie] < 0 && in.kc != nil && out.kc != nil && in.kdim == out.kdim {
		c.crossScanQueryLeaf(child, ie, d, lo, nh)
		return
	}
	irad := in.eRD[2*ie]
	for ce := out.entFirst[child]; ce < out.entLast[child]; ce++ {
		csum := out.eRD[2*ce] + irad
		dp := out.eRD[2*ce+1]
		clb := d - dp
		if clb < dp-d {
			clb = dp - d
		}
		clb -= csum
		b := lo
		for b < nh && clb > radii[b] {
			b++
		}
		if b == nh {
			continue
		}
		if d+dp+csum <= radii[b] {
			c.credit(ce, b)
			continue
		}
		c.crossVisit(ce, ie, b, nh)
	}
}

// crossScanIndexLeaf is crossVisit's terminal case on the kernel path
// (kernelize.go) for a query ELEMENT qe against a leaf node of the index
// tree: block kernels produce the leaf's squared distances while the
// parent-distance prefilter, the settle test, the per-entry bound
// re-check and the DistCalls accounting run exactly as the per-child
// recursion would — a prefiltered or settled entry's kernel distance is
// computed but never consulted and never counted. d is crossVisit's
// already-computed distance from qe's pivot to the leaf's parent pivot.
func (c *crossCtx[T]) crossScanIndexLeaf(qe, child int32, d float64, lo, nh int) {
	in, out := c.t, c.out
	radii := c.radii
	qv := out.pcoords(qe)
	qrad := out.eRD[2*qe]
	eRD := in.eRD
	var d2 [kernel.Block]float64
	for at, last := int(in.entFirst[child]), int(in.entLast[child]); at < last; {
		bn, _ := kernel.RangeBlock(&d2, nil, qv, in.kc, at, last, 0)
		for o := 0; o < bn; o++ {
			ce := at + o
			nh = c.bound(qe, nh)
			if lo >= nh {
				return
			}
			csum := eRD[2*ce] + qrad
			dp := eRD[2*ce+1]
			clb := d - dp
			if clb < dp-d {
				clb = dp - d
			}
			clb -= csum
			b := lo
			for b < nh && clb > radii[b] {
				b++
			}
			if b == nh {
				continue
			}
			if d+dp+csum <= radii[b] {
				c.credit(qe, b)
				continue
			}
			// crossVisit(qe, ce, b, nh) on an element pair, inlined —
			// nothing has credited qe since the loop-top bound re-check,
			// so the recursion's own re-check would be a no-op.
			dd := math.Sqrt(d2[o])
			c.calls++
			sum := qrad + eRD[2*ce]
			lb, ub := dd-sum, dd+sum
			for b < nh && lb > radii[b] {
				b++
			}
			n2 := b
			for n2 < nh && ub > radii[n2] {
				n2++
			}
			if n2 < nh {
				c.credit(qe, n2)
			}
		}
		at += bn
	}
}

// crossScanQueryLeaf is crossVisit's terminal case on the kernel path
// for a single index ELEMENT ie against a leaf node of the query tree:
// every query element of the leaf buckets ie's exact distance within its
// own remaining window, with the prefilter, settle test, bound re-check
// and call accounting per entry exactly as the per-child recursion
// would. d is crossVisit's already-computed distance from ie's pivot to
// the leaf's parent pivot.
func (c *crossCtx[T]) crossScanQueryLeaf(child, ie int32, d float64, lo, nh int) {
	in, out := c.t, c.out
	radii := c.radii
	qv := in.pcoords(ie)
	irad := in.eRD[2*ie]
	eRD := out.eRD
	var d2 [kernel.Block]float64
	for at, last := int(out.entFirst[child]), int(out.entLast[child]); at < last; {
		bn, _ := kernel.RangeBlock(&d2, nil, qv, out.kc, at, last, 0)
		for o := 0; o < bn; o++ {
			ce := at + o
			csum := eRD[2*ce] + irad
			dp := eRD[2*ce+1]
			clb := d - dp
			if clb < dp-d {
				clb = dp - d
			}
			clb -= csum
			b := lo
			for b < nh && clb > radii[b] {
				b++
			}
			if b == nh {
				continue
			}
			if d+dp+csum <= radii[b] {
				c.credit(int32(ce), b)
				continue
			}
			// crossVisit(ce, ie, b, nh) on an element pair, inlined —
			// here the bound re-check is live: ce's own best bound may
			// already cover the window.
			hi2 := c.bound(int32(ce), nh)
			if b >= hi2 {
				continue
			}
			dd := math.Sqrt(d2[o])
			c.calls++
			lb, ub := dd-csum, dd+csum
			for b < hi2 && lb > radii[b] {
				b++
			}
			n2 := b
			for n2 < hi2 && ub > radii[n2] {
				n2++
			}
			if n2 < hi2 {
				c.credit(int32(ce), n2)
			}
		}
		at += bn
	}
}
