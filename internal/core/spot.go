package core

import (
	"mccatch/internal/index"
	"mccatch/internal/join"
	"mccatch/internal/mdl"
	"mccatch/internal/unionfind"
)

// spotMCs runs Alg. 3: it builds the Histogram of 1NN Distances, derives
// the cutoff d by MDL partitioning, and gels the outliers into disjoint
// microclusters. It returns the member lists (unsorted, unscored) and
// fills res.Histogram, res.Cutoff and res.CutoffIndex. The gel pairs
// come from one self-join over a throwaway builder tree of the group
// candidates.
func spotMCs[T any](items []T, builder index.Builder[T], workers int, res *Result) [][]int {
	radii := res.Radii
	a := len(radii)

	// Histogram of 1NN Distances (Def. 4).
	h := make([]int, a)
	for i := range items {
		h[binOf(res.OracleX[i], radii)]++
	}
	res.Histogram = h

	// Peak bin: the mode of the 1NN Distances (first max, deterministic).
	peak := 0
	for e := 1; e < a; e++ {
		if h[e] > h[peak] {
			peak = e
		}
	}

	// Data-driven cutoff (Defs. 5-6): d must exceed the mode distance, so
	// only bins from the peak on are partitioned.
	cut := mdl.PartitionCut(h, peak)
	if cut >= a {
		cut = a - 1
	}
	res.CutoffIndex = cut
	res.Cutoff = radii[cut]
	d := res.Cutoff

	// All outliers: x_i ≥ d or y_i ≥ d (Alg. 3 L7).
	var outliers []int
	for i := range items {
		if res.OracleX[i] >= d || res.OracleY[i] >= d {
			outliers = append(outliers, i)
		}
	}
	if len(outliers) == 0 {
		return nil
	}

	// Gel nonsingleton microclusters: members with a large Group 1NN
	// Distance (Alg. 3 L8-15).
	var groupIdx []int
	for _, i := range outliers {
		if res.OracleY[i] >= d {
			groupIdx = append(groupIdx, i)
		}
	}
	var mcs [][]int
	inGroup := make(map[int]bool, len(groupIdx))
	if len(groupIdx) > 0 {
		groupItems := make([]T, len(groupIdx))
		for k, i := range groupIdx {
			groupItems[k] = items[i]
		}

		// The gel threshold is the smallest radius strictly above the
		// largest 1NN Distance in the group, so a point and its nearest
		// neighbor can never land in different clusters (Alg. 3 L10-12).
		maxX := 0.0
		for _, i := range groupIdx {
			if res.OracleX[i] > maxX {
				maxX = res.OracleX[i]
			}
		}
		e := binOf(maxX, radii)
		if e+1 < a {
			e++
		}
		pairs := join.SelfPairs(builder(groupItems), groupItems, radii[e], workers)

		dsu := unionfind.New(len(groupIdx))
		for _, pr := range pairs {
			dsu.Union(pr[0], pr[1])
		}
		for _, comp := range dsu.Components() {
			mc := make([]int, len(comp))
			for k, local := range comp {
				mc[k] = groupIdx[local]
			}
			mcs = append(mcs, mc)
		}
		for _, i := range groupIdx {
			inGroup[i] = true
		}
	}

	// Remaining outliers are singleton microclusters (Alg. 3 L16-18).
	for _, i := range outliers {
		if !inGroup[i] {
			mcs = append(mcs, []int{i})
		}
	}
	return mcs
}
