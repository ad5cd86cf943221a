package segment

import (
	"sync"

	"mccatch/internal/index"
)

// Compile-time proof that the incremental layer has the batched
// count-append probe that Incremental.Probe and the serving layer's
// coalesced scores call.
var _ index.MultiCountAppender[string] = (*Mutable[string])(nil)

// Pooled per-probe scratch: merged probes land per-segment results here
// before summing into the caller's buffer, so a steady-state probe with a
// warm dst allocates zero bytes (the gate BenchmarkIncrementalQueryMerged
// pins this at 0 allocs/op).
var countScratch = sync.Pool{New: func() any { s := make([]int, 0, 64); return &s }}

// RangeCountMultiAppend appends the live-neighbor count of q at every
// radius of the ascending schedule radii to dst, reusing dst's capacity:
// each segment answers through its own batched counter (one arena
// traversal per segment), tombstones are subtracted through the index
// over the segment's dead elements, and the memtable contributes through
// the index over its elements. Element-wise identical to a fresh-built
// index over Live().
func (m *Mutable[T]) RangeCountMultiAppend(q T, radii []float64, dst []int) []int {
	a := len(radii)
	base := len(dst)
	for i := 0; i < a; i++ {
		dst = append(dst, 0)
	}
	if a == 0 {
		return dst
	}
	cnt := dst[base:]
	rmax := radii[a-1]
	bufp := countScratch.Get().(*[]int)
	buf := *bufp
	for _, s := range m.segs {
		if s.liveCount() == 0 {
			continue
		}
		if s.fenced(m.d(q, s.pivot), rmax) {
			continue
		}
		buf = index.RangeCountMultiAppend(s.tree, q, radii, buf[:0])
		for e := 0; e < a; e++ {
			cnt[e] += buf[e]
		}
		if dt := m.deadIndex(s); dt != nil {
			buf = index.RangeCountMultiAppend(dt, q, radii, buf[:0])
			for e := 0; e < a; e++ {
				cnt[e] -= buf[e]
			}
		}
	}
	if mt := m.memIndex(); mt != nil {
		buf = index.RangeCountMultiAppend(mt, q, radii, buf[:0])
		for e := 0; e < a; e++ {
			cnt[e] += buf[e]
		}
	}
	*bufp = buf
	countScratch.Put(bufp)
	return dst
}
