// Package shard partitions a dataset into disjoint parts for a sharded
// index (core.BuildIndex): each part gets its own tree, and the parts
// answer as one index over their union, so the pipeline runs once over
// them. Correctness never depends on WHERE the cut falls — counts over
// the union are exact sums over the parts, and Step II's self join adds
// a cross-part dual join for every ordered part pair — so the
// partitioners here only chase locality: STR-style tiles for Euclidean
// vectors (sort by the widest-spread axes into balanced contiguous
// tiles, the R-tree bulk loader's cut) and pivot Voronoi cells for
// generic metric data (spread-out pivots from the slim-tree's
// deterministic k-medoid sampler, each element assigned to its nearest
// pivot). Both cuts are deterministic: the parts depend only on
// (items, k), never on the worker count.
//
// Halo semantics: parts hold ONLY their owned elements — border points
// are never replicated into neighboring shards' indexes (replication
// out to the schedule's largest radius, the dataset diameter, would
// copy everything everywhere). Instead the cross-part dual joins ARE
// the halo: they touch exactly the border pairs within each radius.
// MayTouch gives a conservative per-part test — "could this part
// contain a neighbor of x within r?" — that provably never skips a
// true neighbor (the slack absorbs floating-point rounding, mirroring
// internal/segment's fence). The pipeline does not prune with it; it
// serves callers that probe the parts one by one.
package shard

import (
	"sort"

	"mccatch/internal/diameter"
	"mccatch/internal/kernel"
	"mccatch/internal/metric"
	"mccatch/internal/parallel"
	"mccatch/internal/slimtree"
)

// Part is one shard's slice of the dataset: the owned elements and
// their global ids (insertion positions in the full set), ascending.
type Part[T any] struct {
	IDs   []int
	Items []T
}

// Set is a disjoint partition of a dataset plus the geometry MayTouch
// needs: per-part member bounding boxes for tile cuts, per-part pivots
// with covering radii for Voronoi cuts, and the full set's estimated
// diameter (Step I's l, identical to every unsharded entry point's).
type Set[T any] struct {
	Parts []Part[T]
	Owner []int   // global id → part index
	Diam  float64 // diameter.Estimate over the full set

	dist  metric.Distance[T]
	tiles bool
	// Tile cut: the bounding box of each part's MEMBERS (tighter than
	// the tile bounds that cut them).
	boxLo, boxHi [][]float64
	// Voronoi cut: each part's pivot and the largest member→pivot
	// distance.
	pivots []T
	maxR   []float64
}

// Build partitions items into at most k parts. euclidean declares that
// dist is the Euclidean metric on [][]float64 — the caller's promise
// that axis-aligned box bounds are valid distance bounds — selecting
// the STR tile cut; otherwise the pivot Voronoi cut runs under any
// metric. The partition is deterministic in (items, k) and every
// element lands in exactly one part. workers bounds the fan-out of the
// Voronoi assignment (≤ 0 means all cores); it never changes the cut.
func Build[T any](items []T, dist metric.Distance[T], k, workers int, euclidean bool) *Set[T] {
	n := len(items)
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	s := &Set[T]{dist: dist, Diam: diameter.Estimate(items, dist), Owner: make([]int, n)}
	pts, vec := any(items).([][]float64)
	if euclidean && vec {
		s.tiles = true
		s.buildTiles(items, pts, k)
	} else {
		s.buildVoronoi(items, k, workers)
	}
	return s
}

// buildTiles cuts Euclidean vectors STR-style: k factors into s1 slabs
// along the widest-spread axis × s2 tiles along the second-widest, the
// elements sorted into balanced contiguous runs on each level (ties
// broken by id, so the cut is deterministic under duplicates).
func (s *Set[T]) buildTiles(items []T, pts [][]float64, k int) {
	n := len(pts)
	if n == 0 {
		return
	}
	dim := len(pts[0])
	// Spread per axis over the full set.
	lo := append([]float64(nil), pts[0]...)
	hi := append([]float64(nil), pts[0]...)
	for _, p := range pts[1:] {
		for j, v := range p {
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	ax1, ax2 := 0, 0
	for j := 1; j < dim; j++ {
		if hi[j]-lo[j] > hi[ax1]-lo[ax1] {
			ax1 = j
		}
	}
	for j := 0; j < dim; j++ {
		if j != ax1 && (ax2 == ax1 || hi[j]-lo[j] > hi[ax2]-lo[ax2]) {
			ax2 = j
		}
	}
	// s2 = the largest divisor of k at most √k goes to the second axis,
	// the larger factor s1 to the widest axis (1D data takes it all).
	s2 := 1
	if dim > 1 {
		for f := 2; f*f <= k; f++ {
			if k%f == 0 {
				s2 = f
			}
		}
	}
	s1 := k / s2

	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	sortByAxis(ids, pts, ax1)
	for _, slab := range balancedRuns(ids, s1) {
		sortByAxis(slab, pts, ax2)
		for _, tile := range balancedRuns(slab, s2) {
			part := append([]int(nil), tile...)
			sort.Ints(part)
			pi := len(s.Parts)
			pp := Part[T]{IDs: part, Items: make([]T, len(part))}
			blo := append([]float64(nil), pts[part[0]]...)
			bhi := append([]float64(nil), pts[part[0]]...)
			for m, id := range part {
				pp.Items[m] = items[id]
				s.Owner[id] = pi
				for j, v := range pts[id] {
					if v < blo[j] {
						blo[j] = v
					}
					if v > bhi[j] {
						bhi[j] = v
					}
				}
			}
			s.Parts = append(s.Parts, pp)
			s.boxLo = append(s.boxLo, blo)
			s.boxHi = append(s.boxHi, bhi)
		}
	}
}

// sortByAxis orders ids by the axis coordinate, ties by id — stable
// under duplicate coordinates, so the cut is deterministic.
func sortByAxis(ids []int, pts [][]float64, axis int) {
	sort.Slice(ids, func(a, b int) bool {
		va, vb := pts[ids[a]][axis], pts[ids[b]][axis]
		if va != vb {
			return va < vb
		}
		return ids[a] < ids[b]
	})
}

// balancedRuns splits ids into m contiguous runs whose sizes differ by
// at most one (the first len(ids)%m runs get the extra element); empty
// runs are dropped.
func balancedRuns(ids []int, m int) [][]int {
	var runs [][]int
	n := len(ids)
	base, extra := n/m, n%m
	at := 0
	for r := 0; r < m; r++ {
		size := base
		if r < extra {
			size++
		}
		if size == 0 {
			continue
		}
		runs = append(runs, ids[at:at+size])
		at += size
	}
	return runs
}

// buildVoronoi cuts generic metric data into pivot cells: k spread-out
// pivots from the slim-tree's deterministic sampler, each element
// assigned to its nearest pivot (ties toward the lower pivot index).
// Empty cells are dropped.
func (s *Set[T]) buildVoronoi(items []T, k, workers int) {
	n := len(items)
	if n == 0 {
		return
	}
	pivotIdx := slimtree.SelectPivots(s.dist, items, k)
	pivots := make([]T, len(pivotIdx))
	for g, id := range pivotIdx {
		pivots[g] = items[id]
	}
	cell := make([]int, n)
	cellD := make([]float64, n)
	parallel.For(workers, n, func(i int) {
		best, bestD := 0, s.dist(items[i], pivots[0])
		for g := 1; g < len(pivots); g++ {
			if d := s.dist(items[i], pivots[g]); d < bestD {
				best, bestD = g, d
			}
		}
		cell[i], cellD[i] = best, bestD
	})
	partOf := make([]int, len(pivots))
	for g := range partOf {
		partOf[g] = -1
	}
	for g := range pivots {
		first := -1
		for i := 0; i < n; i++ {
			if cell[i] == g {
				first = i
				break
			}
		}
		if first < 0 {
			continue // empty cell: dropped
		}
		pi := len(s.Parts)
		partOf[g] = pi
		var pp Part[T]
		maxR := 0.0
		for i := first; i < n; i++ {
			if cell[i] != g {
				continue
			}
			pp.IDs = append(pp.IDs, i)
			pp.Items = append(pp.Items, items[i])
			s.Owner[i] = pi
			if cellD[i] > maxR {
				maxR = cellD[i]
			}
		}
		s.Parts = append(s.Parts, pp)
		s.pivots = append(s.pivots, pivots[g])
		s.maxR = append(s.maxR, maxR)
	}
}

// MayTouch reports whether part COULD hold an element within distance r
// of x: false is a proof of emptiness, true only a possibility. Tile
// cuts test x against the part's member bounding box in the squared
// domain; Voronoi cuts test d(x, pivot) against the covering radius
// plus r. Both tests carry the fence's relative slack, so rounding can
// only ever keep a part, never lose a true neighbor.
func (s *Set[T]) MayTouch(part int, x T, r float64) bool {
	if s.tiles {
		smin, _ := kernel.SqMinMaxPointBox(any(x).([]float64), s.boxLo[part], s.boxHi[part])
		r2 := r * r
		return smin <= r2+1e-9*(smin+r2)
	}
	d := s.dist(x, s.pivots[part])
	return d-s.maxR[part] <= r+1e-9*(d+s.maxR[part]+r)
}
