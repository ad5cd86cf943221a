package slimtree

import (
	"math"

	"mccatch/internal/dualjoin"
	"mccatch/internal/kernel"
	"mccatch/internal/metric"
)

// This file implements the dual-tree multi-radius self-join: the neighbor
// counts of EVERY indexed element at EVERY radius of a nested schedule,
// from one traversal of the tree against itself. Per-point probing — even
// batched across radii — must re-discover the same subtree-level geometry
// once per query point; the dual traversal instead classifies pairs of
// subtrees: one pivot-to-pivot distance d with the two covering radii
// bounds every element pair under the entries by [d-r1-r2, d+r1+r2], so
// whole blocks of pairs are credited (or discarded) wholesale and only
// pairs straddling some radius descend toward element-level distances.
// The join is symmetric — d(x,y) = d(y,x) — so unordered entry pairs are
// visited once and credited in both directions, halving the metric
// evaluations again. The traversal walks the arena's SoA entry slices
// (radius/dPar/count stream linearly through the prefilters) and credits
// flat rows: leaf entries by their packed element position, subtrees by
// their child node slot, whose contiguous element range the merge pushes
// the credit down over. The accumulator, scheduling and merge machinery
// is internal/dualjoin's.

// dualCtx is one traversal unit's context: the distance-call counter, the
// radius schedule and the unit's accumulator.
type dualCtx[T any] struct {
	visitState[T]
	radii []float64
	acc   *dualjoin.Acc
	// rows/stride cache acc.Point: in direct (serial) mode credit writes
	// the two row adds in place — the accumulator method with its
	// buffered fallback is beyond the inlining budget, and crediting is
	// the join's innermost loop.
	rows   []int
	stride int
	// prep is the entry whose string visitState.pat holds on a
	// Levenshtein tree (noEntry before the first evaluation).
	prep int32
}

// CountAllMulti returns counts[e][id] = the number of indexed elements
// within radii[e] of element id (inclusive, so ≥ 1), for every indexed
// element and every radius of the ascending schedule radii — the Step II
// self-join — computed by a dual-tree traversal instead of per-element
// probes. Counts are exact: bounds only ever defer ambiguous pairs, never
// approximate them. workers ≤ 0 means all cores, 1 means serial; the
// result is identical for every value.
func (t *Tree[T]) CountAllMulti(radii []float64, workers int) [][]int {
	a := len(radii)

	// The units are the unordered pairs of root entries (self-pairs
	// included).
	type unit struct{ i, j int32 }
	var units []unit
	if len(t.leaf) > 0 {
		first, last := t.entFirst[0], t.entLast[0]
		units = make([]unit, 0, (last-first)*(last-first+1)/2)
		for i := first; i < last; i++ {
			for j := i; j < last; j++ {
				units = append(units, unit{i, j})
			}
		}
	}
	return dualjoin.CountMatrix(a, t.size, len(t.leaf), workers, len(units),
		func(u int, acc *dualjoin.Acc) {
			c := dualCtx[T]{visitState: visitState[T]{t: t}, radii: radii, acc: acc,
				rows: acc.Point, stride: acc.Stride}
			if t.lp != nil {
				// One pattern per unit, on this stack: re-preparing it
				// for a new entry costs only that entry's string.
				var pat metric.LevenshteinPattern
				c.pat, c.prep = &pat, noEntry
			}
			if units[u].i == units[u].j {
				// Root entries have no live parent pivot (their dPar is
				// stale by construction), so no prefilter applies up here.
				c.selfVisit(units[u].i, 0, a)
			} else {
				c.symVisit(units[u].i, units[u].j, 0, a)
			}
			t.distCalls.Add(c.calls)
		},
		func(node int32) (int32, int32) { return t.elemFirst[node], t.elemLast[node] },
		func(pos int32) int { return int(t.leafIDs[pos]) })
}

// credit adds cnt to every radius in [from, to) for every element under
// entry e: directly into the element's position row for leaf entries,
// into the child subtree's wholesale row otherwise. This is the join's
// innermost loop (see dualjoin.Acc).
func (c *dualCtx[T]) credit(e int32, from, to, cnt int) {
	if ch := c.t.eChild[e]; ch >= 0 {
		// Wholesale subtree credit: rarer than element credits, so the
		// accumulator method is fine here.
		c.acc.CreditNode(ch, from, to, cnt)
		return
	}
	if rows := c.rows; rows != nil {
		row := rows[int(c.t.ePos[e])*c.stride:]
		row[from] += cnt
		row[to] -= cnt
		return
	}
	c.acc.CreditPos(c.t.ePos[e], from, to, cnt)
}

// pairDist returns d(pivot ae, pivot be). On a Levenshtein tree it
// evaluates through the unit's pattern, preparing be's string unless the
// pattern already holds one side. symVisit's child loop holds `other`
// fixed as be, and selfVisit's sibling loop prepares its fixed entry
// first, so a string that meets a whole leaf (or subtree) is prepared
// once. It counts one metric evaluation either way.
func (c *dualCtx[T]) pairDist(ae, be int32) float64 {
	if c.pat == nil {
		return c.d(c.t.ePivot[ae], c.t.ePivot[be])
	}
	if c.prep == ae {
		ae = be
	} else {
		c.prepare(be)
	}
	c.calls++
	return c.pat.Dist(c.t.lp[ae])
}

// prepare makes the unit's pattern hold entry e's string, on a
// Levenshtein tree.
func (c *dualCtx[T]) prepare(e int32) {
	if c.pat != nil && c.prep != e {
		c.prep = e
		c.pat.Reset(c.t.lp[e])
	}
}

// symVisit classifies the unordered pair of DISTINCT entries (ae, be) for
// the radius window [lo, hi): radii below lo are already known to
// separate the two subtrees, radii at and above hi have already been
// credited by an ancestor pair. Every credit goes both ways — be's
// elements to ae's rows and vice versa — so each unordered pair is
// traversed exactly once.
func (c *dualCtx[T]) symVisit(ae, be int32, lo, hi int) {
	t := c.t
	// Hoist the SoA columns into locals: the loop below interleaves
	// loads with calls (metric, credits, recursion), and local slice
	// headers stay in registers across them where repeated field loads
	// off t would not.
	eRD, eCount, eChild := t.eRD, t.eCount, t.eChild
	d := c.pairDist(ae, be)
	sum := eRD[2*ae] + eRD[2*be]
	radii := c.radii
	// Any pair of elements under (ae, be) lies within [d-sum, d+sum].
	lb := d - sum
	for lo < hi && lb > radii[lo] {
		lo++ // the subtrees are fully separated at the smallest radii
	}
	nh := lo
	ub := d + sum
	for nh < hi && ub > radii[nh] {
		nh++ // radii [nh, hi) contain every pair: settle them at once
	}
	if nh < hi {
		c.credit(ae, nh, hi, int(eCount[be]))
		c.credit(be, nh, hi, int(eCount[ae]))
	}
	if lo >= nh {
		return // nothing ambiguous (always the case for element pairs)
	}
	// Descend the side with the larger covering ball; ties and leaf
	// entries keep the descent deterministic. Child pairs are prefiltered
	// with the stored parent distances (the triangle trick rangeVisit
	// uses): |d - dPar| bounds the child pivot distance from below and
	// d + dPar from above — the upper bound can settle a child pair
	// wholesale without a metric evaluation.
	down, other := ae, be
	if eChild[ae] < 0 || (eChild[be] >= 0 && eRD[2*be] > eRD[2*ae]) {
		down, other = be, ae
	}
	child := eChild[down]
	if t.leaf[child] && eChild[other] < 0 && t.kc != nil {
		c.symScanLeaf(child, other, d, lo, nh)
		return
	}
	otherCount := int(eCount[other])
	otherRadius := eRD[2*other]
	first, last := t.entFirst[child], t.entLast[child]
	for ce := first; ce < last; ce++ {
		csum := eRD[2*ce] + otherRadius
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
			c.credit(ce, b, nh, otherCount)
			c.credit(other, b, nh, int(eCount[ce]))
			continue
		}
		c.symVisit(ce, other, b, nh)
	}
}

// selfVisit classifies the pair of entry ae's subtree with itself for the
// radius window [lo, hi). All pairs lie within 2·ae.radius, so radii at
// and above that settle wholesale (each element gains the whole subtree,
// itself included); the ambiguous radii descend into child pairs —
// unordered cross pairs plus each child against itself. An element's self
// pair bottoms out here, crediting 1 at every remaining radius.
func (c *dualCtx[T]) selfVisit(ae int32, lo, hi int) {
	t := c.t
	if t.eChild[ae] < 0 {
		// d(x, x) = 0 ≤ every radius.
		if rows := c.rows; rows != nil {
			row := rows[int(t.ePos[ae])*c.stride:]
			row[lo]++
			row[hi]--
			return
		}
		c.acc.CreditPos(t.ePos[ae], lo, hi, 1)
		return
	}
	radii := c.radii
	nh := lo
	ub := 2 * t.eRD[2*ae]
	for nh < hi && ub > radii[nh] {
		nh++
	}
	if nh < hi {
		c.credit(ae, nh, hi, int(t.eCount[ae]))
	}
	if lo >= nh {
		return
	}
	eRD, eCount := t.eRD, t.eCount
	child := t.eChild[ae]
	if t.leaf[child] && t.kc != nil {
		c.selfScanLeaf(child, lo, nh)
		return
	}
	first, last := t.entFirst[child], t.entLast[child]
	for i := first; i < last; i++ {
		c.selfVisit(i, lo, nh)
		di := eRD[2*i+1]
		for j := i + 1; j < last; j++ {
			// Siblings share a parent pivot: their stored parent
			// distances bound d(ci, cj) within |dPar_i - dPar_j| and
			// dPar_i + dPar_j.
			csum := eRD[2*i] + eRD[2*j]
			clb := di - eRD[2*j+1]
			if clb < 0 {
				clb = -clb
			}
			clb -= csum
			b := lo
			for b < nh && clb > radii[b] {
				b++
			}
			if b == nh {
				continue
			}
			if di+eRD[2*j+1]+csum <= radii[b] {
				c.credit(i, b, nh, int(eCount[j]))
				c.credit(j, b, nh, int(eCount[i]))
				continue
			}
			c.prepare(i) // i meets all its later siblings
			c.symVisit(i, j, b, nh)
		}
	}
}

// selfScanLeaf is selfVisit's leaf base case on the kernel path
// (kernelize.go): every unordered pair of the leaf's contiguous entry
// range resolves here, the squared distances produced by block kernels
// while the sibling triangle prefilter, the settle test and the
// DistCalls accounting run per pair exactly as the selfVisit/symVisit
// recursion would — a prefiltered or settled pair's kernel distance is
// computed but never consulted and never counted. A settled pair lands
// in the exact pair's bucket: radii[b-1] < |dPar_i - dPar_j| ≤ d(i,j) ≤
// dPar_i + dPar_j ≤ radii[b], so nothing is approximated.
func (c *dualCtx[T]) selfScanLeaf(child int32, lo, nh int) {
	t := c.t
	eRD, eCount := t.eRD, t.eCount
	radii := c.radii
	var d2 [kernel.Block]float64
	first, last := int(t.entFirst[child]), int(t.entLast[child])
	for i := first; i < last; i++ {
		c.selfVisit(int32(i), lo, nh) // element self pair: d = 0
		qi := t.pcoords(int32(i))
		di := eRD[2*i+1]
		for at := i + 1; at < last; {
			bn, _ := kernel.RangeBlock(&d2, nil, qi, t.kc, at, last, 0)
			for o := 0; o < bn; o++ {
				j := at + o
				csum := eRD[2*i] + eRD[2*j]
				clb := di - eRD[2*j+1]
				if clb < 0 {
					clb = -clb
				}
				clb -= csum
				b := lo
				for b < nh && clb > radii[b] {
					b++
				}
				if b == nh {
					continue
				}
				if di+eRD[2*j+1]+csum <= radii[b] {
					c.credit(int32(i), b, nh, int(eCount[j]))
					c.credit(int32(j), b, nh, int(eCount[i]))
					continue
				}
				// symVisit(i, j, b, nh) on an element pair, inlined.
				d := math.Sqrt(d2[o])
				c.calls++
				lb, ub := d-csum, d+csum
				for b < nh && lb > radii[b] {
					b++
				}
				n2 := b
				for n2 < nh && ub > radii[n2] {
					n2++
				}
				if n2 < nh {
					c.credit(int32(i), n2, nh, int(eCount[j]))
					c.credit(int32(j), n2, nh, int(eCount[i]))
				}
			}
			at += bn
		}
	}
}

// symScanLeaf is symVisit's element-vs-leaf base case on the kernel
// path: the single element `other` resolves against the leaf's
// contiguous entry range by block kernels, with the parent-distance
// prefilter, the settle test and the DistCalls accounting per entry
// exactly as the per-child recursion would. d is symVisit's
// already-computed distance from other's pivot to the leaf's parent
// pivot.
func (c *dualCtx[T]) symScanLeaf(child, other int32, d float64, lo, nh int) {
	t := c.t
	eRD, eCount := t.eRD, t.eCount
	radii := c.radii
	q := t.pcoords(other)
	otherCount := int(eCount[other])
	otherRadius := eRD[2*other]
	var d2 [kernel.Block]float64
	for at, last := int(t.entFirst[child]), int(t.entLast[child]); at < last; {
		bn, _ := kernel.RangeBlock(&d2, nil, q, t.kc, at, last, 0)
		for o := 0; o < bn; o++ {
			ce := at + o
			csum := eRD[2*ce] + otherRadius
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
				c.credit(int32(ce), b, nh, otherCount)
				c.credit(other, b, nh, int(eCount[ce]))
				continue
			}
			// symVisit(ce, other, b, nh) on an element pair, inlined.
			dd := math.Sqrt(d2[o])
			c.calls++
			lb, ub := dd-csum, dd+csum
			for b < nh && lb > radii[b] {
				b++
			}
			n2 := b
			for n2 < nh && ub > radii[n2] {
				n2++
			}
			if n2 < nh {
				c.credit(int32(ce), n2, nh, otherCount)
				c.credit(other, n2, nh, int(eCount[ce]))
			}
		}
		at += bn
	}
}
