package core

import (
	"math"
	"sync"

	"mccatch/internal/index"
	"mccatch/internal/join"
	"mccatch/internal/parallel"
)

// plateau is a maximal run of radii over which a point's neighbor count is
// quasi-unaltered (Def. 1). start and end are radius indices (inclusive);
// height is the count at start.
type plateau struct {
	start, end int
	height     int
}

// buildOraclePlot runs Alg. 2: it counts neighbors per radius with the
// batched self-join (staged dual-tree joins and capped counts on
// indexes that support them, gated per-point batched probes otherwise),
// extracts each point's plateaus, and fills res.OracleX (1NN Distance =
// first-plateau length) and res.OracleY (Group 1NN Distance =
// middle-plateau length). The counts come clipped (join.ClipCounts),
// which changes no plateau the two lengths read. Each worker reuses one
// count column and one plateau list across its points.
func buildOraclePlot[T any](tree index.Index[T], items []T, p Params, res *Result) {
	radii := res.Radii
	counts := join.SelfClippedCounts(tree, items, radii, p.MaxCardinality, p.MaxSlope, true, p.Workers)
	type scratch struct {
		q  []int
		ps []plateau
	}
	pool := sync.Pool{New: func() any { return &scratch{q: make([]int, len(radii))} }}
	parallel.For(p.Workers, len(items), func(i int) {
		sc := pool.Get().(*scratch)
		for e := range radii {
			sc.q[e] = counts[e][i]
		}
		sc.ps = plateaus(sc.ps[:0], sc.q, p.MaxSlope)
		res.OracleX[i] = firstPlateauLength(sc.ps, radii)
		res.OracleY[i] = middlePlateauLength(sc.ps, radii, p.MaxCardinality)
		pool.Put(sc)
	})
}

// plateaus appends to dst the segmentation of one point's
// neighbor-count curve into maximal runs where SLOPE(e) =
// Δlog2(count)/Δlog2(r) ≤ b (Def. 1). Radii are geometric with ratio 2,
// so Δlog2(r) = 1 and the slope between consecutive radii is simply
// log2(q[e+1]/q[e]). Runs of a single radius are length-0 plateaus.
func plateaus(dst []plateau, q []int, b float64) []plateau {
	start := 0
	for e := 0; e+1 < len(q); e++ {
		s := math.Log2(float64(q[e+1])) - math.Log2(float64(q[e]))
		if s > b {
			dst = append(dst, plateau{start: start, end: e, height: q[start]})
			start = e + 1
		}
	}
	return append(dst, plateau{start: start, end: len(q) - 1, height: q[start]})
}

// firstPlateauLength returns x_i: the length of the unique height-1 plateau
// (Def. 2), or 0 when the point already has neighbors at the smallest
// radius (q₁ > 1 means the radii did not reach down to its first plateau).
func firstPlateauLength(ps []plateau, radii []float64) float64 {
	for _, pl := range ps {
		if pl.height == 1 {
			return radii[pl.end] - radii[pl.start]
		}
	}
	return 0
}

// middlePlateauLength returns y_i: the largest length among plateaus whose
// height is in (1, c] and whose largest radius is not the diameter
// (Def. 3); 0 when the point has no such plateau.
func middlePlateauLength(ps []plateau, radii []float64, c int) float64 {
	best := 0.0
	last := len(radii) - 1
	for _, pl := range ps {
		if pl.height <= 1 || pl.height > c || pl.end == last {
			continue
		}
		if l := radii[pl.end] - radii[pl.start]; l > best {
			best = l
		}
	}
	return best
}

// binOf maps a plateau length to the index of the nearest radius in
// log-space (Alg. 3 L3's "find bin"). A first plateau [r_s, r_t] has length
// r_t - r_s ∈ [r_t/2, r_t), so the nearest radius is r_t or r_{t-1}; zero
// lengths fall into bin 0.
func binOf(x float64, radii []float64) int {
	if x <= 0 {
		return 0
	}
	lx := math.Log2(x)
	best, bestD := 0, math.Inf(1)
	for e, r := range radii {
		d := math.Abs(lx - math.Log2(r))
		if d < bestD {
			best, bestD = e, d
		}
	}
	return best
}
