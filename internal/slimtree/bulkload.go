package slimtree

import (
	"math"

	"mccatch/internal/metric"
	"mccatch/internal/parallel"
)

// This file implements the tree's one construction, bulk loading: the
// whole Slim-tree is built top-down from the full dataset, then frozen.
//
// Overlapping covering balls are what every query and the dual-tree
// self-join pay for: a probe that falls in the overlap of k sibling
// regions descends k subtrees. Bulk loading sees all elements before
// committing to any region: each level picks pivots from a sample of its
// elements (k-medoid style: a medoid seed, spread-out companions, then a
// medoid refinement of each tentative cluster) and partitions the
// elements to the nearest pivot under a balance cap, so sibling regions
// are compact, near-disjoint, and the tree height matches the
// information-theoretic minimum. Every entry carries an exact covering
// radius, its distance to the parent pivot and its subtree count, which
// is all the traversals — RangeCount, RangeCountMulti, KNN,
// CountAllMulti — consult.
//
// Pivot selection draws from ONE global deterministic sample whose
// pairwise distance matrix is computed once up front and shared down the
// recursion: the sampled elements are partitioned into groups along with
// everything else, so a node picks its pivots among the sample members it
// inherited — at zero additional metric evaluations — and only nodes left
// with too thin a share fall back to sampling locally. Pivot quality
// changes only the tree's arrangement, never any query answer.

// bulkSampleMax bounds the pivot-selection sample per node on the LOCAL
// fallback path. Pivot quality saturates quickly with the sample size
// while the pairwise distance matrix below it grows quadratically; 128
// keeps the matrix ≤ ~8k metric evaluations on the biggest nodes.
const bulkSampleMax = 128

// globalSampleMax bounds the shared global sample; beyond it the
// pairwise matrix would dominate the build, so newGlobalSample bails
// out instead (deep levels fall back to cheap local sampling anyway).
const globalSampleMax = 8 * bulkSampleMax

// globalSample is the build-wide pivot source: a deterministic strided
// sample of the dataset with its pairwise distances computed once.
type globalSample struct {
	slotOf []int32     // element id → sample slot, or -1
	dm     [][]float64 // slot × slot pairwise distances
}

// newGlobalSample sizes the shared sample from the deterministic shape
// of the top two levels and builds it only when it pays. Coverage: each
// second-level node must inherit ~its own pivot count of members, so
// s ≈ 1.5·kRoot·kL2 (the 1.5 absorbs partition imbalance). Cost: the
// one-off matrix (s²/2 evaluations) must undercut the per-node matrices
// it replaces — the root's plus one per second-level node. Where the
// model says the matrix would cost more (large n at this capacity),
// newGlobalSample returns nil and every node samples locally, exactly
// as before the shared sample existed: sharing is an optimization the
// cost model enables, never a tax.
func newGlobalSample[T any](t *Tree[T], items []T, height int) *globalSample {
	n := len(items)
	levelK := func(n, height int) int {
		subcap := 1
		for i := 0; i < height-1; i++ {
			subcap *= t.capacity
		}
		k := (n + subcap - 1) / subcap
		if spread := int(math.Ceil(math.Pow(float64(n), 1/float64(height)))); spread > k {
			k = spread
		}
		if k < 2 {
			k = 2
		}
		if k > t.capacity {
			k = t.capacity
		}
		return k
	}
	kRoot := levelK(n, height)
	group := n / kRoot
	kL2 := levelK(group, height-1)
	s := kRoot * kL2 * 3 / 2
	if s > n {
		s = n
	}
	if s > globalSampleMax {
		return nil // the matrix alone would dominate the build
	}
	local := group
	if local > bulkSampleMax {
		local = bulkSampleMax
	}
	if s*(s-1)/2 > (1+kRoot)*local*(local-1)/2 {
		return nil // cheaper to let every node sample locally
	}
	gs := &globalSample{slotOf: make([]int32, len(items))}
	for i := range gs.slotOf {
		gs.slotOf[i] = -1
	}
	step := len(items) / s
	if step < 1 {
		step = 1
	}
	sample := make([]int, s)
	for i := 0; i < s; i++ {
		sample[i] = i * step
		gs.slotOf[i*step] = int32(i)
	}
	gs.dm = make([][]float64, s)
	for i := range gs.dm {
		gs.dm[i] = make([]float64, s)
	}
	for i := 0; i < s; i++ {
		for j := i + 1; j < s; j++ {
			d := t.d(items[sample[i]], items[sample[j]])
			gs.dm[i][j], gs.dm[j][i] = d, d
		}
	}
	return gs
}

// New bulk-loads a Slim-tree with the given distance and node capacity
// (DefaultCapacity if cap < 4). Item i is reported by queries as id i.
func New[T any](dist metric.Distance[T], capacity int, items []T) *Tree[T] {
	return NewWithWorkers(dist, capacity, items, 1)
}

// bulkParallelMin is the group size below which a subtree build stays on
// the current goroutine.
const bulkParallelMin = 512

// NewWithWorkers is New with the per-level subtree builds fanned out
// across up to workers goroutines (≤ 0 → all cores, 1 → serial). Pivot
// selection and partitioning are deterministic and sibling groups are
// disjoint, so the resulting tree is identical for every worker count.
func NewWithWorkers[T any](dist metric.Distance[T], capacity int, items []T, workers int) *Tree[T] {
	if capacity < 4 {
		capacity = DefaultCapacity
	}
	t := &Tree[T]{dist: dist, capacity: capacity}
	t.size = len(items)
	if len(items) == 0 {
		return t
	}
	idx := make([]int, len(items))
	for i := range idx {
		idx[i] = i
	}
	// Height: the smallest h with capacity^h ≥ n, i.e. the balanced
	// minimum. Every level partitions into groups of at most
	// capacity^(h-1), so the recursion bottoms out in leaves exactly at
	// height 1.
	height := 1
	for span := t.capacity; span < len(items); span *= t.capacity {
		height++
	}
	// The shared pivot sample only pays off when at least one level below
	// the root also selects pivots (height ≥ 3): its one-off matrix then
	// replaces every second-level node's local matrix. Two-level trees
	// select pivots exactly once, so they sample locally at the root —
	// this keeps throwaway trees over small query sets (the cross-join's)
	// as cheap to build as before.
	var gs *globalSample
	if height > 2 {
		gs = newGlobalSample(t, items, height)
	}
	t.freeze(t.bulkNode(items, idx, nil, height, gs, parallel.NewLimiter(workers)))
	return t
}

// bulkNode builds the subtree over items[idx]. dToParent[k] is the known
// distance from items[idx[k]] to the parent entry's pivot (nil at the
// root, whose entries never consult dPar). height is the number of levels
// remaining; height 1 builds a leaf.
func (t *Tree[T]) bulkNode(items []T, idx []int, dToParent []float64, height int, gs *globalSample, lim *parallel.Limiter) *node[T] {
	if height <= 1 || len(idx) <= t.capacity {
		n := &node[T]{leaf: true, entries: make([]entry[T], len(idx))}
		for k, id := range idx {
			e := entry[T]{pivot: items[id], id: id, count: 1}
			if dToParent != nil {
				e.dPar = dToParent[k]
			}
			n.entries[k] = e
		}
		return n
	}

	// Balance cap per group and number of groups. The cap k·subcap ≥
	// len(idx) holds by construction, so the capacity-bounded assignment
	// below always finds room and every group fits a (height-1)-level
	// subtree. Beyond that floor, the fanout is raised to about the
	// geometric mean n^(1/height): the minimum fanout (a couple of huge
	// groups) would force cluster structure to be split across balance
	// caps — exactly the overlap bulk loading exists to avoid — while a
	// spread of ~n^(1/h) pivots per level lets every level track the
	// clusters present at its scale.
	subcap := 1
	for i := 0; i < height-1; i++ {
		subcap *= t.capacity
	}
	k := (len(idx) + subcap - 1) / subcap
	if spread := int(math.Ceil(math.Pow(float64(len(idx)), 1/float64(height)))); spread > k {
		k = spread
	}
	if k < 2 {
		k = 2
	}
	if k > t.capacity {
		k = t.capacity
	}

	pivots := t.selectPivots(items, idx, k, gs)

	// Assign every element to the nearest pivot that still has room
	// (ties toward the earlier pivot), recording its distance — which the
	// child level reuses as the stored parent distance, and whose
	// per-group maximum IS the entry's exact covering radius.
	groups := make([][]int, k)
	groupD := make([][]float64, k)
	dists := make([]float64, k)
	for _, id := range idx {
		for g, p := range pivots {
			dists[g] = t.d(items[id], items[idx[p]])
		}
		best := -1
		for g := 0; g < k; g++ {
			if len(groups[g]) >= subcap {
				continue
			}
			if best < 0 || dists[g] < dists[best] {
				best = g
			}
		}
		groups[best] = append(groups[best], id)
		groupD[best] = append(groupD[best], dists[best])
	}

	n := &node[T]{entries: make([]entry[T], 0, k)}
	var waits []func()
	for g := 0; g < k; g++ {
		if len(groups[g]) == 0 {
			continue
		}
		radius := 0.0
		for _, d := range groupD[g] {
			if d > radius {
				radius = d
			}
		}
		e := entry[T]{
			pivot:  items[idx[pivots[g]]],
			id:     -1,
			radius: radius,
			count:  len(groups[g]),
		}
		if dToParent != nil {
			e.dPar = dToParent[pivots[g]]
		}
		n.entries = append(n.entries, e)
		ent := &n.entries[len(n.entries)-1]
		gi, gd := groups[g], groupD[g]
		build := func() { ent.child = t.bulkNode(items, gi, gd, height-1, gs, lim) }
		if len(gi) >= bulkParallelMin {
			waits = append(waits, lim.Go(build))
		} else {
			build()
		}
	}
	for _, w := range waits {
		w()
	}
	return n
}

// selectPivots picks k pivot positions (indices into idx) k-medoid style:
// the sample medoid seeds the set, companions join farthest-first
// (maximizing the distance to the nearest chosen pivot, so the initial
// regions spread across the data), and one refinement pass replaces each
// tentative pivot by the medoid of the sample elements nearest to it.
// All ties break toward the smaller sample position, so the choice is
// deterministic.
//
// The sample is the node's inherited share of the build's global sample
// whenever that share has at least k members — the pairwise distances
// then come from the precomputed global matrix, costing ZERO fresh
// metric evaluations and selecting with the same k-medoid quality as a
// local sample. Nodes whose share is thinner fall back to a local
// deterministic strided sample (with its own matrix); the shared
// sample's sizing (newGlobalSample) makes that the exception on the
// expensive top levels and the rule only deep down, where the local
// matrices are cheap.
func (t *Tree[T]) selectPivots(items []T, idx []int, k int, gs *globalSample) []int {
	if gs != nil {
		var memberPos []int // positions within idx, in idx order
		var memberSlot []int32
		for pos, id := range idx {
			if s := gs.slotOf[id]; s >= 0 {
				memberPos = append(memberPos, pos)
				memberSlot = append(memberSlot, s)
			}
		}
		if len(memberPos) >= k {
			// Materialize the members' dense submatrix: pickPivots reads
			// pair distances in tight quadratic loops, where a direct
			// index beats a closure call per pair. Copying costs no
			// metric evaluations.
			m := len(memberPos)
			dm := make([][]float64, m)
			for i := range dm {
				dm[i] = make([]float64, m)
				row := gs.dm[memberSlot[i]]
				for j := range dm[i] {
					dm[i][j] = row[memberSlot[j]]
				}
			}
			return pickPivots(m, k, dm, memberPos)
		}
	}
	// Local fallback: deterministic strided sample of at most
	// bulkSampleMax positions, with its own pairwise matrix.
	s := len(idx)
	if s > bulkSampleMax {
		s = bulkSampleMax
	}
	if s < k {
		s = k // len(idx) > capacity ≥ k whenever this runs
	}
	sample := make([]int, s)
	step := len(idx) / s
	if step < 1 {
		step = 1
	}
	for i := 0; i < s; i++ {
		sample[i] = (i * step) % len(idx)
	}
	dm := make([][]float64, s)
	for i := range dm {
		dm[i] = make([]float64, s)
	}
	for i := 0; i < s; i++ {
		for j := i + 1; j < s; j++ {
			d := t.d(items[idx[sample[i]]], items[idx[sample[j]]])
			dm[i][j], dm[j][i] = d, d
		}
	}
	return pickPivots(s, k, dm, sample)
}

// SelectPivots picks k spread-out pivot positions (indices into items)
// under dist — the deterministic k-medoid-style sampler the bulk loader
// uses for node pivots (strided sample, medoid seed, farthest-first
// companions, one refinement pass), exported for the shard layer's
// Voronoi partitioner. Requires 1 ≤ k ≤ len(items); the returned
// positions are distinct and depend only on (items, k).
func SelectPivots[T any](dist metric.Distance[T], items []T, k int) []int {
	s := len(items)
	if s > bulkSampleMax {
		s = bulkSampleMax
	}
	if s < k {
		s = k
	}
	sample := make([]int, s)
	step := len(items) / s
	if step < 1 {
		step = 1
	}
	for i := 0; i < s; i++ {
		sample[i] = (i * step) % len(items)
	}
	dm := make([][]float64, s)
	for i := range dm {
		dm[i] = make([]float64, s)
	}
	for i := 0; i < s; i++ {
		for j := i + 1; j < s; j++ {
			d := dist(items[sample[i]], items[sample[j]])
			dm[i][j], dm[j][i] = d, d
		}
	}
	return pickPivots(s, k, dm, sample)
}

// pickPivots runs the k-medoid-style selection over a sample of s
// candidates with pairwise distance matrix dm: medoid seed,
// farthest-first companions, one medoid refinement pass. posOf[i] is
// candidate i's position within the node's idx; the returned slice holds
// the k chosen positions.
func pickPivots(s, k int, dm [][]float64, posOf []int) []int {
	// Seed: the sample medoid (smallest distance sum).
	chosen := make([]int, 0, k)
	bestSum := math.Inf(1)
	seed := 0
	for i := 0; i < s; i++ {
		sum := 0.0
		for j := 0; j < s; j++ {
			sum += dm[i][j]
		}
		if sum < bestSum {
			bestSum, seed = sum, i
		}
	}
	chosen = append(chosen, seed)

	// Companions: farthest-first on the min distance to the chosen set.
	minD := make([]float64, s)
	for i := range minD {
		minD[i] = dm[i][seed]
	}
	taken := make([]bool, s)
	taken[seed] = true
	for len(chosen) < k {
		far, farD := -1, -1.0
		for i := 0; i < s; i++ {
			if !taken[i] && minD[i] > farD {
				far, farD = i, minD[i]
			}
		}
		taken[far] = true
		chosen = append(chosen, far)
		for i := range minD {
			if dm[i][far] < minD[i] {
				minD[i] = dm[i][far]
			}
		}
	}

	// Refinement: cluster the sample to the nearest chosen pivot, then
	// replace each pivot by its cluster's medoid.
	cluster := make([][]int, k)
	for i := 0; i < s; i++ {
		best := 0
		for g := 1; g < k; g++ {
			if dm[i][chosen[g]] < dm[i][chosen[best]] {
				best = g
			}
		}
		cluster[best] = append(cluster[best], i)
	}
	out := make([]int, 0, k)
	for g := 0; g < k; g++ {
		if len(cluster[g]) == 0 {
			out = append(out, posOf[chosen[g]])
			continue
		}
		med, medSum := cluster[g][0], math.Inf(1)
		for _, i := range cluster[g] {
			sum := 0.0
			for _, j := range cluster[g] {
				sum += dm[i][j]
			}
			if sum < medSum {
				med, medSum = i, sum
			}
		}
		out = append(out, posOf[med])
	}
	return out
}
