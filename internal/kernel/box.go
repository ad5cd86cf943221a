package kernel

// This file holds the point-vs-box and box-vs-box squared-distance bound
// kernels that classify whole subtrees in the kd/R-tree traversals. PR 5
// open-coded the per-axis min/max branches because math.Max's archMax
// indirection alone was ~10% of the kd pipeline; those snippets now live
// here ONCE — still branch-only, no math.Max/math.Abs, so nothing
// prevents the per-axis comparisons from staying register-resident — and
// the former copies in internal/dualjoin became delegating wrappers. The
// gated MultiCountBatched benchmarks guard that the move cost nothing.

// SqMinMaxPointBox returns the smallest and largest SQUARED Euclidean
// distances from point q to the axis-aligned box [lo, hi]. With
// lo[j] ≤ hi[j] the farthest corner distance per axis is max(q-lo, hi-q)
// even when q lies outside the box.
func SqMinMaxPointBox(q, lo, hi []float64) (smin, smax float64) {
	for j := range q {
		v := q[j]
		if d := lo[j] - v; d > 0 {
			smin += d * d
		} else if d := v - hi[j]; d > 0 {
			smin += d * d
		}
		far := v - lo[j]
		if f := hi[j] - v; f > far {
			far = f
		}
		smax += far * far
	}
	return smin, smax
}

// SqMinMaxBoxBox returns the smallest and largest SQUARED Euclidean
// distances between any two points of the axis-aligned boxes [alo, ahi]
// and [blo, bhi]. With alo == blo and ahi == bhi it degenerates to
// (0, squared box diagonal) — the self-pair bounds.
func SqMinMaxBoxBox(alo, ahi, blo, bhi []float64) (smin, smax float64) {
	for j := range alo {
		if g := blo[j] - ahi[j]; g > 0 {
			smin += g * g
		} else if g := alo[j] - bhi[j]; g > 0 {
			smin += g * g
		}
		far := ahi[j] - blo[j]
		if f := bhi[j] - alo[j]; f > far {
			far = f
		}
		smax += far * far
	}
	return smin, smax
}

// SqBoxDiag is the squared diagonal of the box [lo, hi] — the largest
// squared distance any pair of points inside it can realize.
func SqBoxDiag(lo, hi []float64) float64 {
	s := 0.0
	for j := range lo {
		d := hi[j] - lo[j]
		s += d * d
	}
	return s
}

// SqFarBoxBox returns a lower bound on SqMinMaxPointBox's maximum for
// every point of the box [blo, bhi] against the box [alo, ahi]: per
// axis, a point v of [blo, bhi] is at least blo-alo above alo and at
// least ahi-bhi below ahi, so its farther-end distance is at least the
// larger of the two. It uses only box corners, and rounding is
// monotone, so the bound holds for the computed values too.
func SqFarBoxBox(alo, ahi, blo, bhi []float64) float64 {
	s := 0.0
	for j := range alo {
		far := blo[j] - alo[j]
		if f := ahi[j] - bhi[j]; f > far {
			far = f
		}
		if far > 0 {
			s += far * far
		}
	}
	return s
}
