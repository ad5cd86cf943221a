package core

import (
	"fmt"
	"sync"

	"mccatch/internal/index"
	"mccatch/internal/join"
	"mccatch/internal/metric"
	"mccatch/internal/parallel"
	"mccatch/internal/shard"
)

// RunSharded executes MCCATCH as Params.Shards concurrent per-shard
// pipelines over a disjoint partition of items, then merges the
// cross-shard interactions exactly (ROADMAP item 5). euclidean declares
// that dist is the Euclidean metric on [][]float64, selecting the STR
// tile cut; any other metric partitions into pivot Voronoi cells. The
// Result is deep-equal to the single-index entry points for EVERY shard
// count — the merge sums exact integer neighbor counts and takes exact
// integer minima over bridge radii, so no floating-point reduction
// order ever depends on the cut:
//
//	Step I   — the diameter comes from diameter.Estimate over the full
//	           set (what every single-index backend computes), so the
//	           radii schedule is bit-identical.
//	Step II  — per-shard self-join counts plus cross-shard dual-join
//	           counts (index.CrossCounter) sum to each point's exact
//	           global neighbor count per radius, staged by
//	           join.StagedCounts: past the split radius only the points
//	           not yet excused are counted, against every shard tree,
//	           and gating (join.GateCounts) is applied once, globally.
//	Step III — the cutoff derives from the merged Oracle plot; gel pairs
//	           are per-shard self-joins plus cross-shard range probes
//	           (pruned by shard.Set.MayTouch) feeding one union-find,
//	           whose components do not depend on edge order.
//	Step IV  — each shard bridge-searches its own inliers against ALL
//	           outliers; the global first-radius is the elementwise min.
func RunSharded[T any](items []T, dist metric.Distance[T], builder index.Builder[T], params Params, euclidean bool) (*Result, error) {
	n := len(items)
	if n == 0 {
		return nil, ErrEmptyDataset
	}
	p, err := params.withDefaults(n)
	if err != nil {
		return nil, err
	}
	if p.Shards == 1 {
		return pipeline(items, nil, builder, p)
	}
	set := shard.Build(items, dist, p.Shards, p.Workers, euclidean)
	return runShardedSet(items, set, nil, builder, p)
}

// RunShardedSet executes the sharded pipeline over a PREBUILT partition.
// items must be the partitioned elements in global id order (the order
// set's Owner and Part ids refer to).
func RunShardedSet[T any](items []T, set *shard.Set[T], builder index.Builder[T], params Params) (*Result, error) {
	return RunShardedPrebuilt(items, set, nil, builder, params)
}

// RunShardedPrebuilt is RunShardedSet with the per-shard indexes already
// built (trees[s] over set.Parts[s].Items, in part order) — the
// build-once/query-many path behind a sharded Detector, which amortizes
// the dominant per-shard build across detections. trees == nil builds
// them fresh; each tree must come from builder for the boundary
// rounding of the merge to match the single-index run.
func RunShardedPrebuilt[T any](items []T, set *shard.Set[T], trees []index.Index[T], builder index.Builder[T], params Params) (*Result, error) {
	n := len(items)
	if n == 0 {
		return nil, ErrEmptyDataset
	}
	p, err := params.withDefaults(n)
	if err != nil {
		return nil, err
	}
	if trees != nil && len(trees) != len(set.Parts) {
		return nil, fmt.Errorf("core: %d prebuilt shard trees for %d parts", len(trees), len(set.Parts))
	}
	return runShardedSet(items, set, trees, builder, p)
}

// innerWorkers splits a total worker budget across k concurrent shard
// units: each unit gets its proportional share, at least 1. Worker
// counts never change results anywhere in the pipeline, so this is
// purely a fan-out heuristic.
func innerWorkers(workers, k int) int {
	w := parallel.Workers(workers) / k
	if w < 1 {
		w = 1
	}
	return w
}

// runShardedSet is the sharded four-step driver; p has been defaulted
// and trees, when non-nil, matches set.Parts.
func runShardedSet[T any](items []T, set *shard.Set[T], trees []index.Index[T], builder index.Builder[T], p Params) (*Result, error) {
	n := len(items)
	k := len(set.Parts)

	// Step I — radii from the full-set diameter (identical to every
	// single-index entry point's estimate by construction of set.Diam).
	l := set.Diam
	res := &Result{
		PointScores: make([]float64, n),
		OracleX:     make([]float64, n),
		OracleY:     make([]float64, n),
		Diameter:    l,
		Params:      p,
	}
	if l <= 0 {
		for i := range res.PointScores {
			res.PointScores[i] = pointScore(0, 1)
		}
		return res, nil
	}
	radii := MakeRadii(l, p.NumRadii)
	res.Radii = radii
	a := len(radii)

	// Per-shard index builds (when not handed in prebuilt), concurrent
	// across shards. The builder's own internal fan-out stacks on top;
	// oversubscription is harmless.
	if trees == nil {
		trees = make([]index.Index[T], k)
		parallel.For(p.Workers, k, func(s int) {
			trees[s] = builder(set.Parts[s].Items)
		})
	}
	inner := innerWorkers(p.Workers, k)

	// Step II — exact global neighbor counts, staged and gated by
	// join.StagedCounts exactly as the single-index join stages its own.
	// The self-join stage sums, per shard, its own self-join counts with
	// one cross-shard dual join per other shard, writing only its owned
	// ids (disjoint, so shards race on nothing); the later stages count
	// the survivors against every shard tree.
	counts := join.StagedCounts(items, trees, radii, p.MaxCardinality, true, p.Workers, func(radii []float64) [][]int {
		sum := make([][]int, len(radii))
		for e := range sum {
			sum[e] = make([]int, n)
		}
		parallel.For(p.Workers, k, func(s int) {
			part := set.Parts[s]
			var cs [][]int
			if smc, ok := trees[s].(index.SelfMultiCounter); ok {
				cs = smc.CountAllMulti(radii, inner)
			} else {
				cs = join.CrossMultiRadiusCounts(trees[s], part.Items, radii, inner)
			}
			addCounts(sum, cs, part.IDs)
			for t := 0; t < k; t++ {
				if t == s {
					continue
				}
				cc := join.CrossMultiRadiusCounts(trees[t], part.Items, radii, inner)
				addCounts(sum, cc, part.IDs)
			}
		})
		return sum
	})
	oracleFromCounts(counts, n, radii, p, res)

	// Step III — gel pairs: within-shard self-joins plus cross-shard
	// range probes against the other shard's candidate tree. Both sides
	// run on builder's backend, so the boundary rounding of "within r" is
	// the single-index self-join's own; MayTouch only ever discards
	// provably-empty parts. Pair order varies with scheduling, but the
	// union-find components don't.
	gelPairs := func(groupIdx []int, groupItems []T, r float64) [][2]int {
		subG := make([][]int, k) // positions into groupIdx, per owner shard
		subItems := make([][]T, k)
		for g, id := range groupIdx {
			s := set.Owner[id]
			subG[s] = append(subG[s], g)
			subItems[s] = append(subItems[s], groupItems[g])
		}
		gtrees := make([]index.Index[T], k)
		parallel.For(p.Workers, k, func(s int) {
			if len(subG[s]) > 0 {
				gtrees[s] = builder(subItems[s])
			}
		})
		var mu sync.Mutex
		var pairs [][2]int
		parallel.For(p.Workers, k, func(s int) {
			if len(subG[s]) == 0 {
				return
			}
			var local [][2]int
			for _, pr := range join.SelfPairs(gtrees[s], subItems[s], r, inner) {
				local = append(local, [2]int{subG[s][pr[0]], subG[s][pr[1]]})
			}
			var buf []int
			for t := s + 1; t < k; t++ {
				if gtrees[t] == nil {
					continue
				}
				for m, x := range subItems[s] {
					if !set.MayTouch(t, x, r) {
						continue
					}
					buf = index.RangeQueryAppend(gtrees[t], x, r, buf[:0])
					for _, j := range buf {
						local = append(local, [2]int{subG[s][m], subG[t][j]})
					}
				}
			}
			if len(local) > 0 {
				mu.Lock()
				pairs = append(pairs, local...)
				mu.Unlock()
			}
		})
		return pairs
	}
	mcs := spotMCs(items, gelPairs, res)

	// Step IV — bridge radii: every shard searches its own inliers
	// against all outliers; the global first-radius is the elementwise
	// integer min over shards (an inlier within radii[e] of an outlier is
	// within it in exactly one shard's search).
	bridgeFirsts := func(outItems []T, _ []T, isOutlier []bool) []int {
		firsts := make([]int, len(outItems))
		for i := range firsts {
			firsts[i] = a
		}
		var mu sync.Mutex
		parallel.For(p.Workers, k, func(s int) {
			part := set.Parts[s]
			var inSub []T
			for m, id := range part.IDs {
				if !isOutlier[id] {
					inSub = append(inSub, part.Items[m])
				}
			}
			if len(inSub) == 0 {
				return
			}
			f := join.BridgeRadii(builder(inSub), outItems, radii, inner)
			mu.Lock()
			for i, e := range f {
				if e < firsts[i] {
					firsts[i] = e
				}
			}
			mu.Unlock()
		})
		return firsts
	}
	scoreMCs(items, bridgeFirsts, mcs, p, res)

	sortMicroclusters(res.Microclusters)
	return res, nil
}

// addCounts folds a shard-local counts matrix (rows over the shard's
// elements in id order) into the global matrix at the shard's ids.
func addCounts(global, local [][]int, ids []int) {
	for e := range global {
		row := global[e]
		for m, id := range ids {
			row[id] += local[e][m]
		}
	}
}
