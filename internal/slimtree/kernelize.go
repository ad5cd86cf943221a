package slimtree

// Kernelization of the slim-tree's hot loops for the two metrics it can
// reproduce exactly: metric.Euclidean on vectors and metric.Levenshtein
// on strings.
//
// The slim-tree is generic over any metric — it never sees coordinates —
// but MCCATCH's vector spaces all run it with metric.Euclidean over
// []float64 elements, and its string spaces with metric.Levenshtein.
// freeze() (and opening a string index file) therefore detects those
// exact configurations — the concrete element type AND the metric's code
// pointer; any wrapped or custom metric, even a clone of either, keeps
// the generic path.
//
// Under metric.Levenshtein the tree keeps its pivots as a []string
// column (lp, the same slice as ePivot), and wherever one string meets
// many it prepares that string once as a metric.LevenshteinPattern: a
// probe prepares its query for the whole traversal, and the dual
// self-join prepares the entry its child loops hold fixed (see
// dualCtx.pairDist). A pattern's Dist is exactly metric.Levenshtein, and
// each evaluation counts one DistCalls as before, so Results and
// DistCalls totals are unchanged. The pattern lives on the probe's or
// the traversal unit's stack, so preparing allocates nothing.
//
// Under metric.Euclidean freeze() lays the entry pivots'
// coordinates out as one flat entry-major column, the same single-block
// layout the kd/R arenas hand the kernels. Leaf scans then stream
// contiguous entry ranges through kernel chunks and take math.Sqrt per
// element, which is bit-identical to metric.Euclidean (the same
// ascending-dimension accumulation under the same correctly-rounded
// square root), while every triangle prefilter, settle test and
// DistCalls increment keeps running per entry EXACTLY as the generic
// loops would — an entry the prefilter skips has its kernel distance
// computed but never consulted and never counted. Results and DistCalls
// totals are therefore unchanged down to the bit.
//
// No quantized Summary is built for the slim-tree: covering-ball
// geometry already prunes at node granularity before any scan starts,
// and a leaf holds at most `capacity` entries, so the uint8 prefilter
// would bound blocks the triangle tests already classify.

import (
	"math"
	"reflect"

	"mccatch/internal/kernel"
	"mccatch/internal/metric"
)

// euclideanPtr identifies metric.Euclidean by code pointer: the one
// metric whose arithmetic internal/kernel reproduces bit-for-bit.
var euclideanPtr = reflect.ValueOf(metric.Euclidean).Pointer()

// levenshteinPtr identifies metric.Levenshtein by code pointer: the one
// metric whose evaluations metric.LevenshteinPattern reproduces.
var levenshteinPtr = reflect.ValueOf(metric.Levenshtein).Pointer()

// kernelize inspects the frozen tree. When the element type is string
// and the metric is metric.Levenshtein itself, it sets the pivot column
// lp. When the element type is []float64 and the metric is
// metric.Euclidean itself, it flattens the entry pivots into the
// entry-major coordinate column kc. Runs once per tree, on its fresh
// arena: at freeze, and when a string index file is opened. Ragged or
// empty vector inputs keep the generic path.
func (t *Tree[T]) kernelize() {
	if dist, ok := any(t.dist).(metric.Distance[string]); ok && reflect.ValueOf(dist).Pointer() == levenshteinPtr {
		t.lp, _ = any(t.ePivot).([]string)
		return
	}
	dist, ok := any(t.dist).(metric.Distance[[]float64])
	if !ok || reflect.ValueOf(dist).Pointer() != euclideanPtr {
		return
	}
	pivots, ok := any(t.ePivot).([][]float64)
	if !ok || len(pivots) == 0 {
		return
	}
	dim := len(pivots[0])
	if dim == 0 {
		return
	}
	for _, p := range pivots {
		if len(p) != dim {
			return
		}
	}
	kc := make([]float64, len(pivots)*dim)
	for k, p := range pivots {
		copy(kc[k*dim:(k+1)*dim], p)
	}
	t.kc, t.kdim = kc, dim
}

// queryCoords returns q's coordinate slice when the kernel column is
// active and q matches its dimensionality, else nil (generic path).
func (t *Tree[T]) queryCoords(q T) []float64 {
	if t.kc == nil {
		return nil
	}
	qc, ok := any(q).([]float64)
	if !ok || len(qc) != t.kdim {
		return nil
	}
	return qc
}

// pcoords returns the coordinate slice of entry k's pivot in the kernel
// column.
func (t *Tree[T]) pcoords(k int32) []float64 {
	return t.kc[int(k)*t.kdim : (int(k)+1)*t.kdim]
}

// scanRangeLeaf is rangeVisit's leaf body on the kernel path: the node's
// contiguous entry range streams through block kernels, while the
// triangle prefilter, the count/collect tests and the DistCalls
// accounting run per entry exactly as rangeVisit's loop would.
func (v *visitState[T]) scanRangeLeaf(n int32, r, dq float64, ids *[]int) int {
	t := v.t
	qc := v.qc
	hasDq := !math.IsNaN(dq)
	count := 0
	var d2 [kernel.Block]float64
	for at, last := int(t.entFirst[n]), int(t.entLast[n]); at < last; {
		bn, _ := kernel.RangeBlock(&d2, nil, qc, t.kc, at, last, 0)
		for i := 0; i < bn; i++ {
			k := at + i
			if hasDq && math.Abs(dq-t.eRD[2*k+1]) > r+t.eRD[2*k] {
				continue
			}
			d := math.Sqrt(d2[i])
			v.calls++
			if d <= r {
				count++
				if ids != nil {
					*ids = append(*ids, int(t.eID[k]))
				}
			}
		}
		at += bn
	}
	return count
}

// scanMultiLeaf is multiVisit's leaf body on the kernel path: block
// kernels produce the squared distances, the per-radius triangle
// prefilter and the bucket scan run per entry exactly as multiVisit's
// loop would.
func (v *visitState[T]) scanMultiLeaf(n int32, radii []float64, dq float64, lo, hi int, diff []int) {
	t := v.t
	qc := v.qc
	hasDq := !math.IsNaN(dq)
	var d2 [kernel.Block]float64
	for at, last := int(t.entFirst[n]), int(t.entLast[n]); at < last; {
		bn, _ := kernel.RangeBlock(&d2, nil, qc, t.kc, at, last, 0)
		for i := 0; i < bn; i++ {
			k := at + i
			rad := t.eRD[2*k]
			b := lo
			if hasDq {
				for b < hi && math.Abs(dq-t.eRD[2*k+1]) > radii[b]+rad {
					b++
				}
				if b == hi {
					continue
				}
			}
			d := math.Sqrt(d2[i])
			v.calls++
			for b < hi && d > radii[b] {
				b++
			}
			if b < hi {
				diff[b]++
				diff[hi]--
			}
		}
		at += bn
	}
}
