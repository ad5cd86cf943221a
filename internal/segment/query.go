package segment

import (
	"sort"
	"sync"

	"mccatch/internal/index"
)

// Compile-time proof that the incremental layer satisfies the base Index
// contract and the point-query extensions its probes dispatch on.
var (
	_ index.Index[string]              = (*Mutable[string])(nil)
	_ index.MultiCounter[string]       = (*Mutable[string])(nil)
	_ index.MultiCountAppender[string] = (*Mutable[string])(nil)
	_ index.QueryAppender[string]      = (*Mutable[string])(nil)
	_ index.KNNer[string]              = (*Mutable[string])(nil)
)

// Pooled per-probe scratch: merged probes land per-segment results here
// before summing into the caller's buffer, so a steady-state probe with a
// warm dst allocates zero bytes (the gate BenchmarkIncrementalQueryMerged
// pins this at 0 allocs/op).
var countScratch = sync.Pool{New: func() any { s := make([]int, 0, 64); return &s }}
var idScratch = sync.Pool{New: func() any { s := make([]int, 0, 64); return &s }}

// RangeCount returns how many live elements lie within r of q: segment
// counts minus their tombstoned elements within r, plus a memtable scan.
func (m *Mutable[T]) RangeCount(q T, r float64) int {
	m.refreshIDs()
	total := 0
	for _, s := range m.segs {
		if s.liveCount() == 0 {
			continue
		}
		if s.fenced(m.d(q, s.pivot), r) {
			continue // fence: the query ball cannot touch this segment
		}
		c := s.tree.RangeCount(q, r)
		if dt := m.deadIndex(s); dt != nil {
			c -= dt.RangeCount(q, r)
		}
		total += c
	}
	if mt := m.memIndex(); mt != nil {
		total += mt.RangeCount(q, r)
	}
	return total
}

// RangeCountMulti returns the live-neighbor count at every radius of the
// ascending schedule radii; see RangeCountMultiAppend.
func (m *Mutable[T]) RangeCountMulti(q T, radii []float64) []int {
	return m.RangeCountMultiAppend(q, radii, nil)
}

// RangeCountMultiAppend appends the merged multi-radius counts to dst,
// reusing dst's capacity: each segment answers through its own batched
// counter (one arena traversal per segment), tombstones are subtracted by
// direct metric evaluations against the segment's short dead list, and
// the memtable contributes a linear scan. Element-wise identical to a
// fresh-built index over Live().
func (m *Mutable[T]) RangeCountMultiAppend(q T, radii []float64, dst []int) []int {
	m.refreshIDs()
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

// RangeQuery returns the dense global ids of live elements within r of q,
// sorted ascending; see RangeQueryAppend.
func (m *Mutable[T]) RangeQuery(q T, r float64) []int {
	return m.RangeQueryAppend(q, r, nil)
}

// RangeQueryAppend appends the dense global ids of live elements within r
// of q to dst, sorted ascending (the deterministic order a merge must fix
// since segment traversal orders are arbitrary).
func (m *Mutable[T]) RangeQueryAppend(q T, r float64, dst []int) []int {
	m.refreshIDs()
	base := len(dst)
	bufp := idScratch.Get().(*[]int)
	buf := *bufp
	for _, s := range m.segs {
		if s.liveCount() == 0 {
			continue
		}
		if s.fenced(m.d(q, s.pivot), r) {
			continue
		}
		buf = index.RangeQueryAppend(s.tree, q, r, buf[:0])
		for _, lid := range buf {
			if g := s.global[lid]; g >= 0 {
				dst = append(dst, g)
			}
		}
	}
	if mt := m.memIndex(); mt != nil {
		buf = index.RangeQueryAppend(mt, q, r, buf[:0])
		for _, lid := range buf {
			dst = append(dst, m.memBase+lid)
		}
	}
	*bufp = buf
	idScratch.Put(bufp)
	sort.Ints(dst[base:])
	return dst
}

// KNN returns the k live elements nearest to q, merged across segments
// and the memtable with the same (distance, id) tiebreak the tree-native
// KNNs use. Segments with tombstones are over-fetched by their tombstone
// count (the dead can displace at most that many live neighbors);
// segments whose tree lacks a native KNN fall back to scanning the
// segment's stored elements.
func (m *Mutable[T]) KNN(q T, k int) (ids []int, dists []float64) {
	m.refreshIDs()
	if m.live == 0 || k <= 0 {
		return nil, nil
	}
	type cand struct {
		id int
		d  float64
	}
	var cands []cand
	for _, s := range m.segs {
		if s.liveCount() == 0 {
			continue
		}
		if kn, ok := s.tree.(index.KNNer[T]); ok {
			sids, sdists := kn.KNN(q, k+s.deadN)
			for i, lid := range sids {
				if s.dead[lid] {
					continue
				}
				cands = append(cands, cand{id: s.global[lid], d: sdists[i]})
			}
			continue
		}
		for lid, x := range s.elems {
			if s.dead[lid] {
				continue
			}
			cands = append(cands, cand{id: s.global[lid], d: m.d(q, x)})
		}
	}
	for j, me := range m.mem {
		cands = append(cands, cand{id: m.memBase + j, d: m.d(q, me.elem)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d != cands[j].d {
			return cands[i].d < cands[j].d
		}
		return cands[i].id < cands[j].id
	})
	if k > len(cands) {
		k = len(cands)
	}
	ids = make([]int, k)
	dists = make([]float64, k)
	for i := 0; i < k; i++ {
		ids[i], dists[i] = cands[i].id, cands[i].d
	}
	return ids, dists
}
