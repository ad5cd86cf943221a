package slimtree

import (
	"mccatch/internal/dualjoin"
)

// This file implements the cross-set dual-tree COUNT join
// (index.CrossCounter): for every query of a second element set, its
// full neighbor-count row over a nested radius schedule, from one
// traversal of the index tree against a throwaway slim-tree bulk-built
// over the queries. One pivot-to-pivot distance d with the two covering
// radii bounds every query×element pair under an entry pair by
// [d-r1-r2, d+r1+r2] — the bridge join's geometry (crossjoin.go) — but
// the accumulation is the self-join's additive count differences
// (dualjoin.Acc), credited one-directionally into the query tree's flat
// rows: a settled range [nh, hi) telescopes against the ancestor's so
// each pair's credited ranges tile exactly once. The descent prefilters
// child pairs with stored parent distances (the triangle trick), so
// many blocks settle without a fresh metric evaluation.

// crossCountCtx is one traversal unit's context: the distance-call
// counter (on the INDEX tree), the throwaway query tree, the radius
// schedule and the unit's accumulator.
type crossCountCtx[T any] struct {
	visitState[T]
	out   *Tree[T]
	radii []float64
	acc   *dualjoin.Acc
	rows  []int
	strd  int
}

// credit adds cnt indexed elements to every radius in [from, to) for
// every query under query-tree entry qe: directly into the query's
// position row for leaf entries, into the child subtree's wholesale row
// otherwise. This is the join's innermost loop (see dualjoin.Acc).
func (c *crossCountCtx[T]) credit(qe int32, from, to, cnt int) {
	if ch := c.out.eChild[qe]; ch >= 0 {
		c.acc.CreditNode(ch, from, to, cnt)
		return
	}
	if rows := c.rows; rows != nil {
		row := rows[int(c.out.ePos[qe])*c.strd:]
		row[from] += cnt
		row[to] -= cnt
		return
	}
	c.acc.CreditPos(c.out.ePos[qe], from, to, cnt)
}

// CountCrossMulti returns counts[e][i] = the number of indexed elements
// within radii[e] (inclusive) of queries[i], for every query and every
// radius of the ascending schedule — computed by a dual-tree traversal
// against a throwaway bulk-built tree over the queries instead of
// per-query probes. Counts are exact: bounds only ever defer ambiguous
// pairs, never approximate them. workers ≤ 0 means all cores, 1 means
// serial; the result is identical for every value.
func (t *Tree[T]) CountCrossMulti(queries []T, radii []float64, workers int) [][]int {
	a := len(radii)

	// The units are the pairs of (query root entry, index root entry),
	// exactly as in the bridge join: each resolves its block of
	// query×element pairs completely, and the additive credits merge
	// across any schedule.
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
	return dualjoin.CountMatrix(a, len(queries), nodes, workers, len(units),
		func(u int, acc *dualjoin.Acc) {
			c := crossCountCtx[T]{visitState: visitState[T]{t: t}, out: qt, radii: radii,
				acc: acc, rows: acc.Point, strd: acc.Stride}
			// Root entries have no live parent pivot (their dPar is stale
			// by construction), so no prefilter applies up here.
			c.countVisit(units[u].i, units[u].j, 0, a)
			t.distCalls.Add(c.calls)
		},
		func(node int32) (int32, int32) { return qt.elemFirst[node], qt.elemLast[node] },
		func(pos int32) int { return int(qt.leafIDs[pos]) })
}

// countVisit classifies the pair of query entry qe (in the throwaway
// tree's arena) against index entry ie (in the index tree's) for the
// radius window [lo, hi): radii below lo are already known to separate
// the two subtrees, radii at and above hi were settled wholesale by an
// ancestor pair. Crediting is one-directional — only the query side
// accumulates. A leaf×leaf pair settles inside Window: with both
// covering radii zero the settled index IS the element pair's bucket.
func (c *crossCountCtx[T]) countVisit(qe, ie int32, lo, hi int) {
	in, out := c.t, c.out
	d := c.d(out.ePivot[qe], in.ePivot[ie])
	sum := out.eRD[2*qe] + in.eRD[2*ie]
	lo, nh := dualjoin.Window(c.radii, d-sum, d+sum, lo, hi)
	if nh < hi {
		// Every index element under ie is within radii[nh..hi) of every
		// query under qe.
		c.credit(qe, nh, hi, int(in.eCount[ie]))
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
		// Index side descends. (A leaf×leaf pair never reaches here: its
		// Window above settles with an empty ambiguous range, since both
		// covering radii are 0.)
		child := in.eChild[ie]
		qrad := out.eRD[2*qe]
		for ce := in.entFirst[child]; ce < in.entLast[child]; ce++ {
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
				c.credit(qe, b, nh, int(in.eCount[ce]))
				continue
			}
			c.countVisit(qe, ce, b, nh)
		}
		return
	}
	child := out.eChild[qe]
	irad := in.eRD[2*ie]
	icount := int(in.eCount[ie])
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
			c.credit(ce, b, nh, icount)
			continue
		}
		c.countVisit(ce, ie, b, nh)
	}
}
