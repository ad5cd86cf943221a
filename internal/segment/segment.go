// Package segment is the incremental layer over the frozen index arenas:
// an LSM-style Mutable index that absorbs inserts and deletes in front of
// one or more immutable "segments" (frozen arena trees built by any
// index.Builder), and answers point queries — neighbor counts at every
// radius of a schedule, and the diameter estimate — as merges across
// them. Those are the probes a detector runs between mutations.
// A full detection does not merge: it takes the Live() snapshot and
// bulk-builds one fresh index over it, since every segment's share of an
// all-points join would need a query tree over nearly the whole live set
// anyway.
//
// The design mirrors an LSM tree transplanted to metric indexes:
//
//   - Inserts land in a small mutable MEMTABLE (a plain slice, scanned
//     linearly — at its bounded size a scan beats any tree). When the
//     memtable reaches its cap it is FROZEN: a new immutable segment is
//     bulk-built over its elements and the memtable empties.
//   - Deletes are TOMBSTONES: a segment element is marked dead and kept in
//     the arena; a count probe subtracts the dead elements within each
//     radius. Memtable deletes splice the entry out directly.
//   - COMPACTION rebuilds everything — all segments' live elements plus
//     the memtable, in global id order — into ONE fresh segment with no
//     tombstones. A compacted Mutable is literally a fresh bulk build
//     over the live set, so it answers every query exactly as one.
//
// Identity discipline: every insert takes a monotone sequence number (its
// permanent handle); the live set in sequence order defines the DENSE
// GLOBAL IDS 0..Size()-1. Segments are frozen in sequence order and the
// memtable holds the newest elements, so walking segments in creation
// order and then the memtable, skipping tombstones, enumerates the live
// set in global id order — the order Live() returns, so a fresh index
// bulk-built over Live() sees the live set exactly as the merge does.
//
// Every merge is EXACT, never approximate: counts add across segments,
// and tombstone corrections are computed with real metric evaluations
// against the few dead elements. Per-segment radius fences (pivot
// distance vs. the segment's covering radius) skip segments a query ball
// cannot touch.
package segment

import (
	"mccatch/internal/diameter"
	"mccatch/internal/index"
	"mccatch/internal/metric"
)

// DefaultMemtableCap is the memtable size at which Insert auto-freezes a
// new segment when no explicit cap was configured. Small enough that the
// linear memtable scans stay negligible next to the frozen-arena
// traversals they ride along with (≈1% of a 25k-element dataset).
const DefaultMemtableCap = 256

// loc addresses one live element: segment index (or -1 for the memtable)
// and position within it.
type loc struct {
	seg   int
	local int
}

// memEntry is one memtable element with its permanent sequence handle.
type memEntry[T any] struct {
	elem T
	seq  int64
}

// seg is one immutable segment: a frozen arena tree over a snapshot of
// elements, plus the tombstone bookkeeping the merge needs.
type seg[T any] struct {
	tree  index.Index[T]
	elems []T     // local id = build position (sequence order)
	seqs  []int64 // sequence handle per local id
	dead  []bool  // tombstones
	deadN int
	// deadElems caches the tombstoned elements so count corrections scan
	// a short dense slice instead of the whole segment.
	deadElems []T
	// deadTree is a lazily built index over deadElems (nil until needed,
	// reset on every Delete): tombstone corrections are answered by the
	// SAME backend that answers the segment's own counts, so both sides
	// of a subtraction resolve boundary pairs with identical arithmetic
	// (e.g. the R-tree's squared-domain compare) and the merge stays
	// bit-equal to a fresh build even when a distance lands exactly on a
	// radius.
	deadTree index.Index[T]
	// Radius fence: every element lies within maxR of pivot, so a query
	// ball B(q, r) with d(q, pivot) - maxR > r cannot touch the segment
	// (live or dead) and the whole segment is skipped.
	pivot T
	maxR  float64
}

func (s *seg[T]) liveCount() int { return len(s.elems) - s.deadN }

// fenced reports whether the ball B(q, r) provably cannot touch the
// segment, given dq = d(q, pivot). The relative slack absorbs the
// floating-point rounding of the triangle-inequality arithmetic (and of
// backends that resolve boundary pairs in the squared domain), so the
// fence can only skip segments a fresh build would also find empty.
func (s *seg[T]) fenced(dq, r float64) bool {
	return dq-s.maxR > r+1e-9*(dq+s.maxR+r)
}

// Mutable is the incremental index: merged multi-radius count probes
// and a live-set snapshot over a dataset that supports Insert and Delete
// between queries. Methods are not safe for concurrent use.
type Mutable[T any] struct {
	d      metric.Distance[T]
	build  index.Builder[T]
	memCap int

	segs []*seg[T]
	mem  []memEntry[T]
	// memTree is a lazily built index over the memtable (nil until needed,
	// reset on every memtable mutation). Like seg.deadTree it exists for
	// bit-equal merges: the memtable's contribution to every count is
	// answered by the same backend a fresh build would use, not by a raw
	// metric scan whose boundary rounding could differ.
	memTree index.Index[T]

	nextSeq int64
	handles map[int64]loc

	// epoch counts mutations of the LIVE SET: Insert and successful
	// Delete bump it, Freeze and Compact do not (they reorganize storage
	// without changing any query answer). Cache layers key derived state
	// — radii schedules, detection Results — on it, so an unchanged epoch
	// guarantees the cached answer is still exact. Read and written under
	// the same no-concurrent-mutation contract as every other method.
	epoch uint64

	// Dense-id cache, rebuilt lazily after any mutation.
	idsDirty bool
	refs     []loc // global id → location
	live     int

	// Bounding-box diameter fast path (see DeclareMonotone): the live
	// set's box is grown in O(dim) on Insert and rebuilt lazily after
	// Delete (the only mutation that can shrink it).
	monotone bool
	boxLo    []float64
	boxHi    []float64
	boxDirty bool
}

// NewMutable returns an empty incremental index building its frozen
// segments with build (the same builder a one-shot run would use) under
// the metric d. memCap ≤ 0 selects DefaultMemtableCap.
func NewMutable[T any](d metric.Distance[T], build index.Builder[T], memCap int) *Mutable[T] {
	if memCap <= 0 {
		memCap = DefaultMemtableCap
	}
	return &Mutable[T]{d: d, build: build, memCap: memCap, handles: map[int64]loc{}}
}

// SetMemtableCap changes the auto-freeze threshold; n ≤ 0 restores the
// default. The next Insert applies it.
func (m *Mutable[T]) SetMemtableCap(n int) {
	if n <= 0 {
		n = DefaultMemtableCap
	}
	m.memCap = n
}

// Insert adds x and returns its permanent handle (for Delete). When the
// memtable reaches its cap the insert freezes it into a new segment.
func (m *Mutable[T]) Insert(x T) int64 {
	seq := m.nextSeq
	m.nextSeq++
	m.epoch++
	m.mem = append(m.mem, memEntry[T]{elem: x, seq: seq})
	m.handles[seq] = loc{seg: -1, local: len(m.mem) - 1}
	m.memTree = nil
	m.idsDirty = true
	m.growBox(x)
	if len(m.mem) >= m.memCap {
		m.Freeze()
	}
	return seq
}

// Delete removes the element behind handle and reports whether it was
// live. A memtable element is spliced out; a segment element becomes a
// tombstone that merged queries subtract until the next Compact.
func (m *Mutable[T]) Delete(handle int64) bool {
	l, ok := m.handles[handle]
	if !ok {
		return false
	}
	delete(m.handles, handle)
	m.epoch++
	m.idsDirty = true
	m.boxDirty = true
	if l.seg < 0 {
		m.mem = append(m.mem[:l.local], m.mem[l.local+1:]...)
		for j := l.local; j < len(m.mem); j++ {
			m.handles[m.mem[j].seq] = loc{seg: -1, local: j}
		}
		m.memTree = nil
		return true
	}
	s := m.segs[l.seg]
	s.dead[l.local] = true
	s.deadN++
	s.deadElems = append(s.deadElems, s.elems[l.local])
	s.deadTree = nil
	return true
}

// Freeze turns the current memtable into a new immutable segment (no-op
// when the memtable is empty). Queries afterwards run entirely over
// frozen arenas until the next insert.
func (m *Mutable[T]) Freeze() {
	if len(m.mem) == 0 {
		return
	}
	elems := make([]T, len(m.mem))
	seqs := make([]int64, len(m.mem))
	for k, e := range m.mem {
		elems[k] = e.elem
		seqs[k] = e.seq
	}
	m.segs = append(m.segs, m.newSeg(elems, seqs))
	si := len(m.segs) - 1
	for k, seq := range seqs {
		m.handles[seq] = loc{seg: si, local: k}
	}
	m.mem = m.mem[:0]
	m.memTree = nil
	m.idsDirty = true
}

// Compact rebuilds all segments and the memtable into ONE fresh segment
// over the live set in global id order, dropping every tombstone. The
// result is indistinguishable from a brand-new Mutable bulk-loaded with
// Live() — the equivalence tests pin this.
func (m *Mutable[T]) Compact() {
	m.refreshIDs()
	if m.live == 0 {
		m.segs, m.mem, m.memTree = nil, m.mem[:0], nil
		return
	}
	elems := make([]T, m.live)
	seqs := make([]int64, m.live)
	for g, l := range m.refs {
		if l.seg < 0 {
			elems[g] = m.mem[l.local].elem
			seqs[g] = m.mem[l.local].seq
		} else {
			elems[g] = m.segs[l.seg].elems[l.local]
			seqs[g] = m.segs[l.seg].seqs[l.local]
		}
	}
	m.segs = []*seg[T]{m.newSeg(elems, seqs)}
	m.mem = m.mem[:0]
	m.memTree = nil
	for k, seq := range seqs {
		m.handles[seq] = loc{seg: 0, local: k}
	}
	m.idsDirty = true
}

// newSeg freezes elems (in sequence order) into an immutable segment:
// bulk-builds the arena tree and measures the pivot fence.
func (m *Mutable[T]) newSeg(elems []T, seqs []int64) *seg[T] {
	s := &seg[T]{
		tree:  m.build(elems),
		elems: elems,
		seqs:  seqs,
		dead:  make([]bool, len(elems)),
		pivot: elems[0],
	}
	for _, x := range elems {
		if r := m.d(s.pivot, x); r > s.maxR {
			s.maxR = r
		}
	}
	return s
}

// refreshIDs rebuilds the dense global ids after a mutation: segments in
// creation order, then the memtable, skipping tombstones — which is
// exactly ascending sequence order over the live set.
func (m *Mutable[T]) refreshIDs() {
	if !m.idsDirty {
		return
	}
	m.refs = m.refs[:0]
	for si, s := range m.segs {
		for k := range s.elems {
			if !s.dead[k] {
				m.refs = append(m.refs, loc{seg: si, local: k})
			}
		}
	}
	for k := range m.mem {
		m.refs = append(m.refs, loc{seg: -1, local: k})
	}
	m.live = len(m.refs)
	m.idsDirty = false
}

// memIndex returns the lazily built index over the memtable, or nil when
// the memtable is empty. Callers that fan queries out across workers must
// materialize it (and any deadIndex) BEFORE the parallel section.
func (m *Mutable[T]) memIndex() index.Index[T] {
	if len(m.mem) == 0 {
		return nil
	}
	if m.memTree == nil {
		elems := make([]T, len(m.mem))
		for k, e := range m.mem {
			elems[k] = e.elem
		}
		m.memTree = m.build(elems)
	}
	return m.memTree
}

// deadIndex returns the lazily built index over s's tombstoned elements,
// or nil when the segment has none.
func (m *Mutable[T]) deadIndex(s *seg[T]) index.Index[T] {
	if len(s.deadElems) == 0 {
		return nil
	}
	if s.deadTree == nil {
		s.deadTree = m.build(s.deadElems)
	}
	return s.deadTree
}

// elemAt returns the live element with dense global id g.
func (m *Mutable[T]) elemAt(g int) T {
	l := m.refs[g]
	if l.seg < 0 {
		return m.mem[l.local].elem
	}
	return m.segs[l.seg].elems[l.local]
}

// Live returns the live elements in dense global id order — the dataset
// a fresh one-shot run over the current state would be given.
func (m *Mutable[T]) Live() []T {
	m.refreshIDs()
	out := make([]T, m.live)
	for g := range out {
		out[g] = m.elemAt(g)
	}
	return out
}

// Size returns the number of live elements.
func (m *Mutable[T]) Size() int {
	m.refreshIDs()
	return m.live
}

// Epoch returns the live-set mutation counter: it changes exactly when
// Insert or a successful Delete changes the live set, and stays put
// across Freeze and Compact (which cannot change any query answer).
// Equal epochs ⇒ identical live set ⇒ identical Detect/count results.
func (m *Mutable[T]) Epoch() uint64 { return m.epoch }

// Segments reports the current frozen-segment count (diagnostics/tests).
func (m *Mutable[T]) Segments() int { return len(m.segs) }

// MemtableLen reports the current memtable size (diagnostics/tests).
func (m *Mutable[T]) MemtableLen() int { return len(m.mem) }

// Tombstones reports the live tombstone count across all segments.
func (m *Mutable[T]) Tombstones() int {
	n := 0
	for _, s := range m.segs {
		n += s.deadN
	}
	return n
}

// DiameterEstimate estimates the live set's diameter with the shared
// structure-independent estimator — the same values every fresh-built
// backend reports (internal/diameter is data-only by construction), so
// the radii schedule of an incremental run matches a fresh run's.
//
// Under DeclareMonotone the answer comes from the incrementally
// maintained bounding box in O(dim) instead of an O(n) sweep — by
// construction the same value, because the estimator's vector branch
// returns exactly the box corner distance for any coordinate-monotone
// metric.
func (m *Mutable[T]) DiameterEstimate() float64 {
	m.refreshIDs()
	if m.live < 2 {
		return 0
	}
	if m.monotone {
		if est, ok := m.boxDiameter(); ok {
			return est
		}
	}
	return diameter.Estimate(m.Live(), m.d)
}

// DeclareMonotone asserts that T is []float64 and the metric is
// coordinate-monotone — d(a, b) never exceeds d(lo, hi) of a box
// containing a and b, true of every Lp norm. Under that assertion
// diameter.Estimate's vector branch always returns the bounding-box
// corner distance, so DiameterEstimate can answer from a box grown in
// O(dim) per Insert instead of sweeping the live set — the difference
// between constant-time and O(n) radii refreshes under sustained
// ingest. Declaring it for a non-monotone metric silently skews the
// radii schedule, so only constructors that choose the metric
// themselves (the Euclidean vector paths) call it.
func (m *Mutable[T]) DeclareMonotone() {
	m.monotone = true
	m.boxDirty = true
}

// growBox expands the live-set bounding box with a just-inserted
// element. A dirty box stays dirty (the next boxDiameter rebuilds it
// over the whole live set); an element that is not a []float64 after
// all permanently defers to the generic estimator.
func (m *Mutable[T]) growBox(x T) {
	if !m.monotone || m.boxDirty {
		return
	}
	p, ok := any(x).([]float64)
	if !ok || len(p) != len(m.boxLo) {
		m.boxDirty = true
		return
	}
	for j, v := range p {
		if v < m.boxLo[j] {
			m.boxLo[j] = v
		}
		if v > m.boxHi[j] {
			m.boxHi[j] = v
		}
	}
}

// boxDiameter returns the live set's bounding-box corner distance,
// rebuilding the box first when a Delete (or a pre-declaration insert)
// has invalidated it. ok is false when the elements turn out not to be
// vectors, in which case the caller falls through to the generic
// estimator. Callers hold the refreshIDs invariant and m.live >= 2.
func (m *Mutable[T]) boxDiameter() (float64, bool) {
	if m.boxDirty {
		first, ok := any(m.elemAt(0)).([]float64)
		if !ok {
			return 0, false
		}
		m.boxLo = append(m.boxLo[:0], first...)
		m.boxHi = append(m.boxHi[:0], first...)
		for g := 1; g < m.live; g++ {
			p, ok := any(m.elemAt(g)).([]float64)
			if !ok || len(p) != len(m.boxLo) {
				return 0, false
			}
			for j, v := range p {
				if v < m.boxLo[j] {
					m.boxLo[j] = v
				}
				if v > m.boxHi[j] {
					m.boxHi[j] = v
				}
			}
		}
		m.boxDirty = false
	}
	return m.d(any(m.boxLo).(T), any(m.boxHi).(T)), true
}
