package core

import (
	"math"

	"mccatch/internal/index"
	"mccatch/internal/join"
	"mccatch/internal/mdl"
	"mccatch/internal/parallel"
)

// scoreMCs runs Alg. 4: it finds each outlier's distance to its nearest
// inlier via per-radius joins against a fresh builder tree over the
// inliers, derives every microcluster's Bridge's Length ĝ(j), and
// computes the compression-based scores s_j (Def. 7) and the per-point
// scores w_i.
func scoreMCs[T any](items []T, builder index.Builder[T], mcs [][]int, p Params, res *Result) {
	n := len(items)
	radii := res.Radii
	r1 := radii[0]
	// r₀ stands in for "closer than the smallest radius" when an outlier
	// already has an inlier within r₁ (Alg. 4 L8 would index r_{e-1} = r₀).
	r0 := r1 / 2

	isOutlier := make([]bool, n)
	for _, mc := range mcs {
		for _, i := range mc {
			isOutlier[i] = true
		}
	}

	// g_i per point: outliers get the largest radius at which they still
	// have no inlier neighbor; inliers get their own 1NN Distance.
	g := make([]float64, n)
	var outIdx []int
	var outItems []T
	var inItems []T
	for i := range items {
		if isOutlier[i] {
			outIdx = append(outIdx, i)
			outItems = append(outItems, items[i])
		} else {
			g[i] = res.OracleX[i]
			inItems = append(inItems, items[i])
		}
	}
	if len(outIdx) > 0 {
		if len(inItems) == 0 {
			// Degenerate: everything is an outlier; bridges default to the
			// diameter.
			for _, i := range outIdx {
				g[i] = radii[len(radii)-1]
			}
		} else {
			firsts := join.BridgeRadii(builder(inItems), outItems, radii, p.Workers)
			for k, i := range outIdx {
				e := firsts[k]
				switch {
				case e == 0:
					g[i] = r0
				case e >= len(radii):
					g[i] = radii[len(radii)-1]
				default:
					g[i] = radii[e-1]
				}
			}
		}
	}

	// Microcluster scores (Def. 7). Each microcluster is one independent
	// unit of work writing its own slot; the bridge/mean reductions stay
	// inside the unit, so no floating-point order depends on scheduling.
	res.Microclusters = make([]Microcluster, len(mcs))
	parallel.For(p.Workers, len(mcs), func(j int) {
		mc := mcs[j]
		bridge := math.Inf(1)
		sumX := 0.0
		for _, i := range mc {
			if g[i] < bridge {
				bridge = g[i]
			}
			sumX += res.OracleX[i]
		}
		meanX := sumX / float64(len(mc))
		res.Microclusters[j] = Microcluster{
			Members: mc,
			Score:   mcScore(len(mc), n, bridge, meanX, r1, float64(p.Cost)),
			Bridge:  bridge,
		}
	})

	// Per-point scores (Alg. 4 L21-24).
	parallel.For(p.Workers, n, func(i int) {
		res.PointScores[i] = pointScore(g[i], r1)
	})
}

// mcScore evaluates Def. 7: the per-point bit cost of describing a
// microcluster of the given cardinality in terms of its nearest inlier.
func mcScore(card, n int, bridge, meanX, r1, t float64) float64 {
	c1 := mdl.CodeLen(card)                      // ① cardinality
	c2 := mdl.CodeLen(n)                         // ② nearest inlier id (worst case)
	c3 := t * mdl.CodeLen(ceilRatio(bridge, r1)) // ③ bridge's length
	c4 := t * mdl.CodeLen(1+ceilRatio(meanX, r1))
	// ④ average 1NN distance, paid once per remaining member.
	return (c1 + c2 + c3 + float64(card-1)*c4) / float64(card)
}

// pointScore evaluates Alg. 4 L22: w_i = ⟨1 + ⌈g_i/r₁⌉⟩. It is strictly
// positive because the argument is ≥ 2.
func pointScore(g, r1 float64) float64 {
	return mdl.CodeLen(1 + ceilRatio(g, r1))
}

// ceilRatio returns ⌈x/r⌉ clamped to ≥ 1, guarding r = 0 for degenerate
// zero-diameter datasets.
func ceilRatio(x, r float64) int {
	if r <= 0 || x <= 0 {
		return 1
	}
	v := int(math.Ceil(x / r))
	if v < 1 {
		v = 1
	}
	return v
}
