package core

import (
	"mccatch/internal/index"
	"mccatch/internal/join"
	"mccatch/internal/metric"
	"mccatch/internal/parallel"
	"mccatch/internal/shard"
)

// BuildIndex builds the full index a detection runs over, and is the one
// place the shard decision is made. With p.Shards ≤ 1 it is
// builder(items). Otherwise shard.Build cuts items into p.Shards
// disjoint parts (euclidean declares that dist is the Euclidean metric
// on [][]float64, selecting the STR tile cut; any other metric is cut
// into pivot Voronoi cells), builder indexes each part, concurrently,
// and the parts answer as one index over their union. The Result is
// deep-equal for every shard count: the union's counts are exact
// integer sums over the parts, its diameter is shard.Set.Diam — the
// estimate every single-index backend computes — and Steps III and IV
// build their throwaway trees from builder either way.
func BuildIndex[T any](items []T, dist metric.Distance[T], builder index.Builder[T], p Params, euclidean bool) index.Index[T] {
	if p.Shards <= 1 {
		return builder(items)
	}
	set := shard.Build(items, dist, p.Shards, p.Workers, euclidean)
	trees := make([]index.Index[T], len(set.Parts))
	parallel.For(p.Workers, len(trees), func(s int) {
		trees[s] = builder(set.Parts[s].Items)
	})
	return &partition[T]{set: set, trees: trees}
}

// partition is one index over the disjoint union of a shard.Set's parts:
// trees[s] indexes set.Parts[s].Items. Counts sum over the parts and
// part-local ids map to global ids through Part.IDs, so every answer is
// the one a single index over all the items gives. Border points are
// never replicated: the cross joins of CountAllMulti account for every
// neighbor pair across a cut.
type partition[T any] struct {
	set   *shard.Set[T]
	trees []index.Index[T]
}

func (x *partition[T]) Size() int { return len(x.set.Owner) }

func (x *partition[T]) DiameterEstimate() float64 { return x.set.Diam }

func (x *partition[T]) RangeCount(q T, r float64) int {
	c := 0
	for _, t := range x.trees {
		c += t.RangeCount(q, r)
	}
	return c
}

func (x *partition[T]) RangeQuery(q T, r float64) []int {
	var out []int
	for s, t := range x.trees {
		base := len(out)
		out = index.RangeQueryAppend(t, q, r, out)
		ids := x.set.Parts[s].IDs
		for m, j := range out[base:] {
			out[base+m] = ids[j]
		}
	}
	return out
}

// RangeCountMultiAppend sums the parts' curves inside dst: each part's
// curve is appended past the running sum and folded back into it, so a
// reused dst pays no allocation.
func (x *partition[T]) RangeCountMultiAppend(q T, radii []float64, dst []int) []int {
	base, a := len(dst), len(radii)
	dst = append(dst, make([]int, a)...)
	for _, t := range x.trees {
		dst = index.RangeCountMultiAppend(t, q, radii, dst)
		for e, c := range dst[base+a:] {
			dst[base+e] += c
		}
		dst = dst[:base+a]
	}
	return dst
}

// CountAllMulti is the self join of the union: each part's own self join
// plus one cross join against every other part, summed at the part's
// global ids. The parts run concurrently, each on its share of the
// worker budget, and each writes only its own ids.
func (x *partition[T]) CountAllMulti(radii []float64, workers int) [][]int {
	sum := make([][]int, len(radii))
	for e := range sum {
		sum[e] = make([]int, x.Size())
	}
	inner := innerWorkers(workers, len(x.trees))
	parallel.For(workers, len(x.trees), func(s int) {
		part := x.set.Parts[s]
		for t, tree := range x.trees {
			var cs [][]int
			if smc, ok := tree.(index.SelfMultiCounter); ok && t == s {
				cs = smc.CountAllMulti(radii, inner)
			} else {
				cs = join.CrossMultiRadiusCounts(tree, part.Items, radii, inner)
			}
			addCounts(sum, cs, part.IDs)
		}
	})
	return sum
}

// RangeCountCapped sums the parts' capped counts, passing each part
// what is left of the limit.
func (x *partition[T]) RangeCountCapped(q T, r float64, limit int) int {
	return x.cappedOthers(q, r, -1, 0, limit)
}

// cappedOthers adds the capped counts of q in every part but skip to
// got, passing each part what is left of the limit, and returns the
// sum.
func (x *partition[T]) cappedOthers(q T, r float64, skip, got, limit int) int {
	for u, t := range x.trees {
		if u != skip && got < limit {
			got += index.RangeCountCapped(t, q, r, limit-got)
		}
	}
	return got
}

// CountAllCapped counts each part's elements against their own tree
// first, with the part's capped counter, then against every other part
// with what is left of each limit. The parts run concurrently, each on
// its share of the worker budget, and each writes only its own ids.
func (x *partition[T]) CountAllCapped(r float64, limits, dst []int, workers int) {
	// Each part takes its limits and counts, in its own id order, from
	// its own stretch of one scratch slice.
	scratch := make([]int, 2*x.Size())
	offs := make([]int, len(x.trees)+1)
	for s, part := range x.set.Parts {
		offs[s+1] = offs[s] + 2*len(part.IDs)
	}
	inner := innerWorkers(workers, len(x.trees))
	parallel.For(workers, len(x.trees), func(s int) {
		part := x.set.Parts[s]
		lim := scratch[offs[s] : offs[s]+len(part.IDs)]
		got := scratch[offs[s]+len(part.IDs) : offs[s+1]]
		for m, id := range part.IDs {
			lim[m] = limits[id]
		}
		join.CountAllCapped(x.trees[s], part.Items, r, lim, got, inner)
		parallel.For(inner, len(lim), func(m int) {
			if lim[m] > 0 {
				dst[part.IDs[m]] = x.cappedOthers(part.Items[m], r, s, got[m], lim[m])
			}
		})
	})
}

// innerWorkers splits a total worker budget across k concurrent parts:
// each gets its proportional share, at least 1. Worker counts never
// change results anywhere in the pipeline, so this is purely a fan-out
// heuristic.
func innerWorkers(workers, k int) int {
	return max(1, parallel.Workers(workers)/k)
}

// addCounts folds a part-local counts matrix (rows over the part's
// elements in id order) into the global matrix at the part's ids.
func addCounts(global, local [][]int, ids []int) {
	for e := range global {
		row := global[e]
		for m, id := range ids {
			row[id] += local[e][m]
		}
	}
}
