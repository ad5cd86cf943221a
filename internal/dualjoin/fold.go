package dualjoin

import (
	"sync"

	"mccatch/internal/kernel"
)

// This file holds the leaf scans of the box-tree dual joins (the kd-tree
// and R-tree self- and cross-count joins). Where the node-level bounds
// leave a radius window [lo, nh) ambiguous for two small position
// ranges, the scan computes every point pair's squared distance with
// kernel.Dists and buckets it into the first radius of the window that
// contains it. Crediting each close pair as it is found would write two
// matrix rows per pair and, in a parallel join, buffer a 16-byte quad
// per row for a later locked replay. So each scan FOLDS instead: it
// first tallies the close pairs per point and per bucket in the
// worker's scratch, then credits every point once per non-empty bucket.
// Credits are integer adds, so the merged counts are exactly those of
// the per-pair credits. The scans skip the kernel's quantized
// prefilter: their threshold is the window's upper edge, which the
// node-level bounds already straddle, so per-block summary bounds
// almost never prune and cost about as much as the arithmetic they
// would save (bypassing them halved the kd-tree's 10k×8d sweep cell).
//
// The scratch (distance buffer and tallies) is held by the Acc, one per
// worker, and grows to the largest range and window the worker has
// seen, so no fanout or schedule length can overflow it. Between joins
// it waits in a package pool: a join allocates it at most O(workers)
// times, never per traversal unit, and back-to-back joins reuse it. The
// tallies are all zero between scans — each fold clears the cells it
// credits — so a scan never pays to re-zero its scratch.

// foldScratch is one worker's leaf-scan space.
type foldScratch struct {
	d2    []float64
	tally []int32
}

var foldScratchPool = sync.Pool{New: func() any { return new(foldScratch) }}

// minDists and minTallies are the smallest scratch allocations, in
// elements: enough for the default trees' scans — a 16-point R-tree
// leaf pair or a kd-tree point against a 32-slot subtree — over a
// 15-radius window, so those allocate each scratch slice once.
const minDists, minTallies = 64, 512

// scratch returns the Acc's leaf-scan space, taking it from the pool on
// first use.
func (a *Acc) scratch() *foldScratch {
	if a.fs == nil {
		a.fs = foldScratchPool.Get().(*foldScratch)
	}
	return a.fs
}

// releaseScratch returns the Acc's leaf-scan space, if it took one, to
// the pool; CountMatrix calls it once the Acc's traversal units are
// done.
func (a *Acc) releaseScratch() {
	if a.fs != nil {
		foldScratchPool.Put(a.fs)
		a.fs = nil
	}
}

// dists returns the distance buffer sized for n points.
func (s *foldScratch) dists(n int) []float64 {
	if cap(s.d2) < n {
		s.d2 = make([]float64, max(n, 2*cap(s.d2), minDists))
	}
	return s.d2[:n]
}

// tallies returns n zeroed tally cells.
func (s *foldScratch) tallies(n int) []int32 {
	if cap(s.tally) < n {
		s.tally = make([]int32, max(n, 2*cap(s.tally), minTallies))
	}
	return s.tally[:n]
}

// FoldSelf resolves every unordered pair of the positions [first, last)
// of the slot-major coordinate block pts (dimension dim), self-pairs
// included, for the ambiguous window [lo, nh) of the ascending squared
// schedule r2, crediting both points of each close pair.
func (a *Acc) FoldSelf(pts []float64, dim, first, last int, r2 []float64, lo, nh int) {
	n, w := last-first, nh-lo
	win := r2[lo:nh]
	thr := win[w-1]
	fs := a.scratch()
	d2 := fs.dists(n)
	tally := fs.tallies(n * w)
	for i := 0; i < n; i++ {
		ti := tally[i*w : i*w+w]
		ti[0]++ // the self-pair: d = 0 lies within every open radius
		p := first + i
		rest := d2[:n-i-1]
		kernel.Dists(rest, pts[p*dim:p*dim+dim], pts, p+1, last)
		for k, v := range rest {
			if v <= thr {
				b := bucket(win, v)
				ti[b]++
				tally[(i+1+k)*w+b]++
			}
		}
	}
	a.fold(tally, int32(first), lo, nh)
}

// FoldPairs resolves every pair of the DISJOINT position ranges
// [aFirst, aLast) × [bFirst, bLast) of pts for the window [lo, nh),
// crediting both points of each close pair. A single A point (the
// kd-tree's point-vs-subtree scans) meets each B point once, so a B
// tally would fold nothing: then only A's side is tallied and B's close
// points are credited as they are found.
func (a *Acc) FoldPairs(pts []float64, dim, aFirst, aLast, bFirst, bLast int, r2 []float64, lo, nh int) {
	na, nb, w := aLast-aFirst, bLast-bFirst, nh-lo
	win := r2[lo:nh]
	thr := win[w-1]
	fs := a.scratch()
	d2 := fs.dists(nb)
	if na == 1 {
		ti := fs.tallies(w)
		kernel.Dists(d2, pts[aFirst*dim:aFirst*dim+dim], pts, bFirst, bLast)
		for k, v := range d2 {
			if v <= thr {
				b := bucket(win, v)
				ti[b]++
				a.CreditPos(int32(bFirst+k), lo+b, nh, 1)
			}
		}
		a.fold(ti, int32(aFirst), lo, nh)
		return
	}
	tally := fs.tallies((na + nb) * w)
	tb := tally[na*w:] // B's rows follow A's
	for i := 0; i < na; i++ {
		ti := tally[i*w : i*w+w]
		p := aFirst + i
		kernel.Dists(d2, pts[p*dim:p*dim+dim], pts, bFirst, bLast)
		for k, v := range d2 {
			if v <= thr {
				b := bucket(win, v)
				ti[b]++
				tb[k*w+b]++
			}
		}
	}
	a.fold(tally[:na*w], int32(aFirst), lo, nh)
	a.fold(tb, int32(bFirst), lo, nh)
}

// FoldCross resolves the query positions [qFirst, qLast) of qpts against
// the indexed positions [first, last) of pts for the window [lo, nh),
// crediting only the queries (the cross-count joins are
// one-directional).
func (a *Acc) FoldCross(qpts, pts []float64, dim, qFirst, qLast, first, last int, r2 []float64, lo, nh int) {
	w := nh - lo
	win := r2[lo:nh]
	thr := win[w-1]
	fs := a.scratch()
	d2 := fs.dists(last - first)
	ti := fs.tallies(w)
	for p := qFirst; p < qLast; p++ {
		kernel.Dists(d2, qpts[p*dim:p*dim+dim], pts, first, last)
		for _, v := range d2 {
			if v <= thr {
				ti[bucket(win, v)]++
			}
		}
		a.fold(ti, int32(p), lo, nh)
	}
}

// bucket returns the index of the first radius of the squared window win
// that contains the squared distance v; callers ensure that one does.
func bucket(win []float64, v float64) int {
	b := 0
	for v > win[b] {
		b++
	}
	return b
}

// fold credits the tally rows of consecutive positions from first on —
// row r's cell b counts pos first+r's close pairs in bucket lo+b — once
// per non-empty cell, and clears the rows.
func (a *Acc) fold(tally []int32, first int32, lo, nh int) {
	w := nh - lo
	for r := 0; r*w < len(tally); r++ {
		row := tally[r*w : r*w+w]
		pos := first + int32(r)
		if m := a.Point; m != nil {
			dst := m[int(pos)*a.Stride:]
			total := 0
			for b, c := range row {
				if c != 0 {
					dst[lo+b] += int(c)
					total += int(c)
					row[b] = 0
				}
			}
			if total != 0 {
				dst[nh] -= total
			}
			continue
		}
		for b, c := range row {
			if c != 0 {
				a.bufferPos(pos, lo+b, nh, int(c))
				row[b] = 0
			}
		}
	}
}
