package main

// The traced replay re-runs one detection step by step through the
// layers' own exported functions — the calls core's four-step driver
// makes — with a span around each call. core's own glue (plateau
// extraction, the histogram and its MDL cut, scoring) is redone here
// in between the spans and shows up as the root span's self time,
// core.rest_s. Checks against the untraced Result of the same detector
// prove the replay took the product's path.

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"sync"

	"mccatch"
	"mccatch/internal/core"
	"mccatch/internal/index"
	"mccatch/internal/join"
	"mccatch/internal/mdl"
	"mccatch/internal/parallel"
	"mccatch/internal/shard"
	"mccatch/internal/unionfind"
)

// replayed is what one replay derives, in the Result's terms.
type replayed struct {
	radii         []float64
	cutoff        float64
	components    [][]int                   // Step III's nonsingleton components, members ascending
	microclusters map[int]core.Microcluster // by smallest member, every microcluster scored
	pointScores   []float64
	candidates    int
	pairs         int
	outliers      int
}

// indexSet is the index a replay runs on: one tree, or a shard
// partition with one tree per part.
type indexSet[T any] struct {
	tree  index.Index[T]
	set   *shard.Set[T]
	parts []index.Index[T]
}

// stepStats are the work counts a replay measures beside its spans:
// bytes allocated in Step II, and metric evaluations in Steps I and II
// on trees that count them.
type stepStats struct {
	alloc2         uint64
	calls1, calls2 int64
}

// stepper holds what the per-step functions share within one replay.
type stepper[T any] struct {
	tr      *tracer
	root    int
	items   []T
	idx     indexSet[T]
	builder index.Builder[T]
	p       core.Params
}

// replayDetect replays one detection with params p (read back from the
// product's Result, so both run with identical hyperparameters). The
// spans land in tr under a new root span named "detect", whose id it
// returns; st receives the work counts.
func replayDetect[T any](tr *tracer, items []T, idx indexSet[T], builder index.Builder[T], p core.Params, st *stepStats) (*replayed, int) {
	s := &stepper[T]{tr: tr, items: items, idx: idx, builder: builder, p: p}
	s.root = tr.begin("detect", 0)
	defer tr.end(s.root)
	n := len(items)
	out := &replayed{}

	// Step I: radii from the diameter estimate.
	c0 := distCalls(idx.tree)
	id := tr.begin("step1.diameter", s.root)
	l := idx.diameter()
	out.radii = core.MakeRadii(l, p.NumRadii)
	tr.end(id)
	st.calls1 = distCalls(idx.tree) - c0
	radii := out.radii

	// Step II: gated neighbor counts at every radius, then the Oracle
	// plot from their plateaus.
	c0 = distCalls(idx.tree)
	a0 := allocBytes()
	counts := s.countAll(radii)
	st.alloc2 = allocBytes() - a0
	st.calls2 = distCalls(idx.tree) - c0
	ox, oy := make([]float64, n), make([]float64, n)
	parallel.For(p.Workers, n, func(i int) {
		q := make([]int, len(radii))
		for e := range radii {
			q[e] = counts[e][i]
		}
		ox[i], oy[i] = oraclePoint(q, radii, p.MaxSlope, p.MaxCardinality)
	})

	// Step III: the MDL cutoff over the 1NN-distance histogram, then
	// gelling the group candidates.
	a := len(radii)
	h := make([]int, a)
	for i := range items {
		h[binOf(ox[i], radii)]++
	}
	peak := 0
	for e := 1; e < a; e++ {
		if h[e] > h[peak] {
			peak = e
		}
	}
	cut := min(mdl.PartitionCut(h, peak), a-1)
	d := radii[cut]
	out.cutoff = d
	var outliers, groupIdx []int
	for i := range items {
		if ox[i] >= d || oy[i] >= d {
			outliers = append(outliers, i)
			if oy[i] >= d {
				groupIdx = append(groupIdx, i)
			}
		}
	}
	out.candidates = len(groupIdx)
	var mcs [][]int
	inGroup := make([]bool, n)
	if len(groupIdx) > 0 {
		groupItems := make([]T, len(groupIdx))
		maxX := 0.0
		for k, i := range groupIdx {
			groupItems[k] = items[i]
			maxX = math.Max(maxX, ox[i])
			inGroup[i] = true
		}
		e := binOf(maxX, radii)
		if e+1 < a {
			e++
		}
		id := tr.begin("step3.gel", s.root)
		pairs := s.gelPairs(groupIdx, groupItems, radii[e])
		dsu := unionfind.New(len(groupIdx))
		for _, pr := range pairs {
			dsu.Union(pr[0], pr[1])
		}
		comps := dsu.Components()
		tr.end(id)
		out.pairs = len(pairs)
		for _, comp := range comps {
			mc := make([]int, len(comp))
			for k, local := range comp {
				mc[k] = groupIdx[local]
			}
			sort.Ints(mc)
			mcs = append(mcs, mc)
			if len(mc) > 1 {
				out.components = append(out.components, mc)
			}
		}
	}
	for _, i := range outliers {
		if !inGroup[i] {
			mcs = append(mcs, []int{i})
		}
	}
	out.outliers = len(outliers)

	// Step IV: each outlier's first radius with an inlier in reach, then
	// the scores.
	isOutlier := make([]bool, n)
	for _, i := range outliers {
		isOutlier[i] = true
	}
	g := make([]float64, n)
	var outItems []T
	for i := range items {
		if isOutlier[i] {
			outItems = append(outItems, items[i])
		} else {
			g[i] = ox[i]
		}
	}
	if len(outItems) > 0 && len(outItems) < n {
		firsts := s.bridgeFirsts(outItems, isOutlier, radii)
		for k, i := range outliers {
			switch e := firsts[k]; {
			case e == 0:
				g[i] = radii[0] / 2
			case e >= a:
				g[i] = radii[a-1]
			default:
				g[i] = radii[e-1]
			}
		}
	} else {
		for _, i := range outliers {
			g[i] = radii[a-1]
		}
	}
	scored := make([]core.Microcluster, len(mcs))
	parallel.For(p.Workers, len(mcs), func(j int) {
		bridge, sumX := math.Inf(1), 0.0
		for _, i := range mcs[j] {
			bridge = math.Min(bridge, g[i])
			sumX += ox[i]
		}
		score := mcScore(len(mcs[j]), n, bridge, sumX/float64(len(mcs[j])), radii[0], float64(p.Cost))
		scored[j] = core.Microcluster{Members: mcs[j], Score: score, Bridge: bridge}
	})
	out.microclusters = make(map[int]core.Microcluster, len(mcs))
	for _, mc := range scored {
		out.microclusters[mc.Members[0]] = mc
	}
	out.pointScores = make([]float64, n)
	parallel.For(p.Workers, n, func(i int) {
		out.pointScores[i] = mdl.CodeLen(1 + ceilRatio(g[i], radii[0]))
	})
	return out, s.root
}

// diameter is Step I's estimate: the tree's own, or the partition's
// full-set estimate (what a single tree would report).
func (x indexSet[T]) diameter() float64 {
	if x.set != nil {
		return x.set.Diam
	}
	return x.tree.DiameterEstimate()
}

// innerWorkers is core's split of the worker budget across concurrent
// shard units.
func innerWorkers(workers, k int) int { return max(1, parallel.Workers(workers)/k) }

// countAll is Step II's join under one span, step2.selfjoin: the dual
// self-join of one tree, or per shard (span shard) a self-join plus one
// cross join against every other shard (spans shard.self and
// shard.cross), summed and gated.
func (s *stepper[T]) countAll(radii []float64) [][]int {
	id := s.tr.begin("step2.selfjoin", s.root)
	defer s.tr.end(id)
	p, n := s.p, len(s.items)
	if s.idx.set == nil {
		return join.SelfMultiRadiusCounts(s.idx.tree, s.items, radii, p.MaxCardinality, true, p.Workers)
	}
	set, trees := s.idx.set, s.idx.parts
	k := len(set.Parts)
	inner := innerWorkers(p.Workers, k)
	counts := make([][]int, len(radii))
	for e := range counts {
		counts[e] = make([]int, n)
	}
	parallel.For(p.Workers, k, func(sh int) {
		part := set.Parts[sh]
		shid := s.tr.begin("shard", id)
		defer s.tr.end(shid)
		sid := s.tr.begin("shard.self", shid)
		var cs [][]int
		if smc, ok := trees[sh].(index.SelfMultiCounter); ok {
			cs = smc.CountAllMulti(radii, inner)
		} else {
			cs = join.CrossMultiRadiusCounts(trees[sh], part.Items, radii, inner)
		}
		s.tr.end(sid)
		addCounts(counts, cs, part.IDs)
		for t := 0; t < k; t++ {
			if t == sh {
				continue
			}
			cid := s.tr.begin("shard.cross", shid)
			cc := join.CrossMultiRadiusCounts(trees[t], part.Items, radii, inner)
			s.tr.end(cid)
			addCounts(counts, cc, part.IDs)
		}
	})
	join.GateCounts(counts, n, p.MaxCardinality, true, p.Workers)
	return counts
}

// addCounts folds a shard's counts matrix into the global one at the
// shard's ids.
func addCounts(global, local [][]int, ids []int) {
	for e := range global {
		for m, id := range ids {
			global[e][id] += local[e][m]
		}
	}
}

// gelPairs is Step III's pair search over the group candidates: one
// self-join over a throwaway tree, or per shard a self-join plus range
// probes into the other shards' candidate trees.
func (s *stepper[T]) gelPairs(groupIdx []int, groupItems []T, r float64) [][2]int {
	p := s.p
	if s.idx.set == nil {
		return join.SelfPairs(s.builder(groupItems), groupItems, r, p.Workers)
	}
	set := s.idx.set
	k := len(set.Parts)
	inner := innerWorkers(p.Workers, k)
	subG := make([][]int, k)
	subItems := make([][]T, k)
	for g, id := range groupIdx {
		o := set.Owner[id]
		subG[o] = append(subG[o], g)
		subItems[o] = append(subItems[o], groupItems[g])
	}
	gtrees := make([]index.Index[T], k)
	parallel.For(p.Workers, k, func(sh int) {
		if len(subG[sh]) > 0 {
			gtrees[sh] = s.builder(subItems[sh])
		}
	})
	var mu sync.Mutex
	var pairs [][2]int
	parallel.For(p.Workers, k, func(sh int) {
		if len(subG[sh]) == 0 {
			return
		}
		var local [][2]int
		for _, pr := range join.SelfPairs(gtrees[sh], subItems[sh], r, inner) {
			local = append(local, [2]int{subG[sh][pr[0]], subG[sh][pr[1]]})
		}
		var buf []int
		for t := sh + 1; t < k; t++ {
			if gtrees[t] == nil {
				continue
			}
			for m, x := range subItems[sh] {
				if !set.MayTouch(t, x, r) {
					continue
				}
				buf = index.RangeQueryAppend(gtrees[t], x, r, buf[:0])
				for _, j := range buf {
					local = append(local, [2]int{subG[sh][m], subG[t][j]})
				}
			}
		}
		mu.Lock()
		pairs = append(pairs, local...)
		mu.Unlock()
	})
	return pairs
}

// bridgeFirsts is Step IV's search under two spans: the inlier index
// build (step4.inlier_build), then the bridge join (step4.bridge). A
// partition builds one inlier tree per shard and takes the elementwise
// minimum of the per-shard answers.
func (s *stepper[T]) bridgeFirsts(outItems []T, isOutlier []bool, radii []float64) []int {
	p := s.p
	var inSubs [][]T
	if s.idx.set == nil {
		var in []T
		for i, x := range s.items {
			if !isOutlier[i] {
				in = append(in, x)
			}
		}
		inSubs = [][]T{in}
	} else {
		for _, part := range s.idx.set.Parts {
			var in []T
			for m, id := range part.IDs {
				if !isOutlier[id] {
					in = append(in, part.Items[m])
				}
			}
			inSubs = append(inSubs, in)
		}
	}
	k := len(inSubs)
	inner := p.Workers
	if k > 1 {
		inner = innerWorkers(p.Workers, k)
	}
	id := s.tr.begin("step4.inlier_build", s.root)
	trees := make([]index.Index[T], k)
	parallel.For(p.Workers, k, func(sh int) {
		if len(inSubs[sh]) > 0 {
			trees[sh] = s.builder(inSubs[sh])
		}
	})
	s.tr.end(id)
	id = s.tr.begin("step4.bridge", s.root)
	defer s.tr.end(id)
	per := make([][]int, k)
	parallel.For(p.Workers, k, func(sh int) {
		if trees[sh] != nil {
			per[sh] = join.BridgeRadii(trees[sh], outItems, radii, inner)
		}
	})
	firsts := make([]int, len(outItems))
	for i := range firsts {
		firsts[i] = len(radii)
		for _, f := range per {
			if f != nil && f[i] < firsts[i] {
				firsts[i] = f[i]
			}
		}
	}
	return firsts
}

// oraclePoint is Alg. 2 for one point: its 1NN Distance (the length of
// the height-1 plateau) and Group 1NN Distance (the longest plateau of
// height in (1, c] not ending at the diameter) from its count curve q.
func oraclePoint(q []int, radii []float64, b float64, c int) (x, y float64) {
	last := len(q) - 1
	start := 0
	firstDone := false
	plateau := func(st, end int) {
		h := q[st]
		l := radii[end] - radii[st]
		if h == 1 && !firstDone {
			x, firstDone = l, true
		}
		if h > 1 && h <= c && end != last && l > y {
			y = l
		}
	}
	for e := 0; e+1 < len(q); e++ {
		if math.Log2(float64(q[e+1]))-math.Log2(float64(q[e])) > b {
			plateau(start, e)
			start = e + 1
		}
	}
	plateau(start, last)
	return x, y
}

// binOf maps a plateau length to the nearest radius in log space.
func binOf(x float64, radii []float64) int {
	if x <= 0 {
		return 0
	}
	lx := math.Log2(x)
	best, bestD := 0, math.Inf(1)
	for e, r := range radii {
		if d := math.Abs(lx - math.Log2(r)); d < bestD {
			best, bestD = e, d
		}
	}
	return best
}

// mcScore is Def. 7's per-point cost of describing a microcluster.
func mcScore(card, n int, bridge, meanX, r1, t float64) float64 {
	c1 := mdl.CodeLen(card)
	c2 := mdl.CodeLen(n)
	c3 := t * mdl.CodeLen(ceilRatio(bridge, r1))
	c4 := t * mdl.CodeLen(1+ceilRatio(meanX, r1))
	return (c1 + c2 + c3 + float64(card-1)*c4) / float64(card)
}

func ceilRatio(x, r float64) int {
	if r <= 0 || x <= 0 {
		return 1
	}
	return max(1, int(math.Ceil(x/r)))
}

// checkReplay compares a replay with the untraced Result of the same
// detector: the same radii and cutoff, Step III components equal to
// the Result's nonsingleton microclusters, Step IV bridges (and the
// scores built on them) equal to every microcluster's, and the same
// per-point scores.
func checkReplay(rp *replayed, res *mccatch.Result) error {
	if !reflect.DeepEqual(rp.radii, res.Radii) || rp.cutoff != res.Cutoff {
		return fmt.Errorf("replay: radii/cutoff differ from the Result (cutoff %v vs %v)", rp.cutoff, res.Cutoff)
	}
	var want [][]int
	for _, mc := range res.Microclusters {
		if len(mc.Members) > 1 {
			want = append(want, mc.Members)
		}
		got, ok := rp.microclusters[mc.Members[0]]
		if !ok || got.Bridge != mc.Bridge || got.Score != mc.Score {
			return fmt.Errorf("replay: microcluster at %d has bridge %v score %v, Result says %v and %v",
				mc.Members[0], got.Bridge, got.Score, mc.Bridge, mc.Score)
		}
	}
	if len(rp.microclusters) != len(res.Microclusters) {
		return fmt.Errorf("replay: %d microclusters, Result has %d", len(rp.microclusters), len(res.Microclusters))
	}
	got := append([][]int(nil), rp.components...)
	for _, l := range [][][]int{got, want} {
		sort.Slice(l, func(i, j int) bool { return l[i][0] < l[j][0] })
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("replay: %d union-find components differ from the Result's %d nonsingleton microclusters", len(got), len(want))
	}
	if !reflect.DeepEqual(rp.pointScores, res.PointScores) {
		return fmt.Errorf("replay: per-point scores differ from the Result")
	}
	return nil
}

// allocBytes reports the bytes allocated so far by the whole process.
func allocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}
