package slimtree

// Persistence for the frozen slim-tree arena. The tree is generic over
// the element type, but only the two shapes MCCATCH instantiates have an
// on-disk form: []float64 under metric.Euclidean (arena.KindSlimVec —
// the pivot coordinates persist as the same flat entry-major column the
// kernelized scans already use) and string (arena.KindSlimStr — pivots
// persist as one byte blob plus an offset column). Save dispatches on
// the concrete element type; any other instantiation reports an error.
//
// A metric function cannot be serialized, so the file stores only data
// and structure. OpenVec re-attaches metric.Euclidean (the only metric
// a vec file can have been built under — Save refuses non-kernelized
// vector trees); OpenStr takes the caller's metric, which must be the
// one the tree was built with for query results to be meaningful. The
// header's diameter field preserves the build-time diameter estimate,
// so opening a string index never re-runs the O(k·n) estimator and the
// radii schedule derived from it stays byte-identical.

import (
	"fmt"
	"io"

	"mccatch/internal/arena"
	"mccatch/internal/metric"
)

// Save writes the tree in the arena index-file format. Only
// Tree[[]float64] (built under metric.Euclidean) and Tree[string] can be
// persisted.
func (t *Tree[T]) Save(w io.Writer) error {
	aw, err := t.writer()
	if err != nil {
		return err
	}
	_, err = aw.WriteTo(w)
	return err
}

// WriteFile writes the tree to path (atomically: temp file + rename),
// under the same element-type restrictions as Save.
func (t *Tree[T]) WriteFile(path string) error {
	aw, err := t.writer()
	if err != nil {
		return err
	}
	return aw.WriteFile(path)
}

func (t *Tree[T]) writer() (*arena.Writer, error) {
	var w *arena.Writer
	scalars := [4]int64{int64(len(t.leaf)), int64(len(t.eID)), int64(t.capacity)}
	switch pivots := any(t.ePivot).(type) {
	case [][]float64:
		if t.size > 0 && t.kc == nil {
			return nil, fmt.Errorf("slimtree: only trees built under metric.Euclidean can be saved as a vector index")
		}
		w = arena.NewWriter(arena.KindSlimVec, t.size, t.kdim, t.DiameterEstimate(), scalars)
		w.F64("pivots", t.kc)
	case []string:
		blob, off := packStrings(pivots)
		w = arena.NewWriter(arena.KindSlimStr, t.size, 0, t.DiameterEstimate(), scalars)
		w.U8("pivots.blob", blob)
		w.I32("pivots.off", off)
	default:
		return nil, fmt.Errorf("slimtree: no on-disk format for element type %T", t.ePivot)
	}
	w.Bool("leaf", t.leaf)
	w.I32("entFirst", t.entFirst)
	w.I32("entLast", t.entLast)
	w.I32("elemFirst", t.elemFirst)
	w.I32("elemLast", t.elemLast)
	w.I32("parent", t.parent)
	w.F64("eRD", t.eRD)
	w.I32("eCount", t.eCount)
	w.I32("eID", t.eID)
	w.I32("eChild", t.eChild)
	w.I32("ePos", t.ePos)
	w.I32("leafIDs", t.leafIDs)
	return w, nil
}

// packStrings flattens the pivot strings into one byte blob plus an
// offset column (len(pivots)+1 entries; pivot k is blob[off[k]:off[k+1]]).
func packStrings(pivots []string) ([]byte, []int32) {
	total := 0
	for _, s := range pivots {
		total += len(s)
	}
	blob := make([]byte, 0, total)
	off := make([]int32, 1, len(pivots)+1)
	for _, s := range pivots {
		blob = append(blob, s...)
		off = append(off, int32(len(blob)))
	}
	return blob, off
}

// OpenVec opens a vector slim-tree index file under metric.Euclidean:
// mmap-backed where available, heap-read otherwise (or under
// arena.WithHeap). Close the tree to release the mapping.
func OpenVec(path string, opts ...arena.Option) (*Tree[[]float64], error) {
	f, err := arena.Open(path, opts...)
	if err != nil {
		return nil, err
	}
	t, err := FromFileVec(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return t, nil
}

// FromFileVec reconstructs a vector slim-tree over an already-opened
// arena file. On success the tree owns f and Close releases it.
func FromFileVec(f *arena.File) (*Tree[[]float64], error) {
	if err := f.ExpectKind(arena.KindSlimVec); err != nil {
		return nil, err
	}
	t := &Tree[[]float64]{dist: metric.Euclidean, src: f}
	nEntries, err := t.loadCommon(f)
	if err != nil || t.size == 0 {
		return t, err
	}
	if f.Dim <= 0 {
		return nil, fmt.Errorf("%w: slim arena: dimension %d", arena.ErrBadIndexFile, f.Dim)
	}
	pivots, err := f.F64("pivots")
	if err != nil {
		return nil, err
	}
	if len(pivots) != nEntries*f.Dim {
		return nil, fmt.Errorf("%w: column %q has %d elements, want %d", arena.ErrBadIndexFile, "pivots", len(pivots), nEntries*f.Dim)
	}
	t.kc, t.kdim = pivots, f.Dim
	t.ePivot = make([][]float64, nEntries)
	for k := range t.ePivot {
		t.ePivot[k] = pivots[k*f.Dim : (k+1)*f.Dim]
	}
	if err := t.validateArena(); err != nil {
		return nil, err
	}
	return t, nil
}

// OpenStr opens a string slim-tree index file. dist must be the metric
// the tree was built with — the file stores no way to check, and query
// results under any other metric are undefined (though still safe).
func OpenStr(path string, dist metric.Distance[string], opts ...arena.Option) (*Tree[string], error) {
	f, err := arena.Open(path, opts...)
	if err != nil {
		return nil, err
	}
	t, err := FromFileStr(f, dist)
	if err != nil {
		f.Close()
		return nil, err
	}
	return t, nil
}

// FromFileStr reconstructs a string slim-tree over an already-opened
// arena file with the caller's metric. On success the tree owns f and
// Close releases it.
func FromFileStr(f *arena.File, dist metric.Distance[string]) (*Tree[string], error) {
	if err := f.ExpectKind(arena.KindSlimStr); err != nil {
		return nil, err
	}
	t := &Tree[string]{dist: dist, src: f}
	nEntries, err := t.loadCommon(f)
	if err != nil || t.size == 0 {
		return t, err
	}
	blob, err := f.U8("pivots.blob")
	if err != nil {
		return nil, err
	}
	off, err := f.I32("pivots.off")
	if err != nil {
		return nil, err
	}
	if len(off) != nEntries+1 || off[0] != 0 || int(off[nEntries]) != len(blob) {
		return nil, fmt.Errorf("%w: slim arena: pivot offsets do not span the blob", arena.ErrBadIndexFile)
	}
	t.ePivot = make([]string, nEntries)
	for k := 0; k < nEntries; k++ {
		if off[k] > off[k+1] {
			return nil, fmt.Errorf("%w: slim arena: pivot offsets not monotone at %d", arena.ErrBadIndexFile, k)
		}
		// string() copies out of the mapping: pivots stay valid even if
		// the caller closes the tree while holding query results.
		t.ePivot[k] = string(blob[off[k]:off[k+1]])
	}
	if err := t.validateArena(); err != nil {
		return nil, err
	}
	t.kernelize()
	return t, nil
}

// loadCommon loads and shape-checks the element-type-independent arena
// columns, returning the entry count. The element-specific pivot column
// and the structural validation remain the caller's job.
func (t *Tree[T]) loadCommon(f *arena.File) (int, error) {
	t.size = f.N
	t.capacity = int(f.Scalars[2])
	t.diam, t.diamValid = f.Diameter, true
	if t.capacity < 4 {
		return 0, fmt.Errorf("%w: slim arena: capacity %d", arena.ErrBadIndexFile, t.capacity)
	}
	if f.N == 0 {
		return 0, nil
	}
	nNodes := int(f.Scalars[0])
	nEntries := int(f.Scalars[1])
	if nNodes < 1 || nEntries < 1 {
		return 0, fmt.Errorf("%w: slim arena: %d nodes, %d entries for %d elements", arena.ErrBadIndexFile, nNodes, nEntries, f.N)
	}
	var err error
	get64 := func(name string, want int) []float64 {
		vals, e := f.F64(name)
		if e != nil {
			err = e
		} else if len(vals) != want && err == nil {
			err = fmt.Errorf("%w: column %q has %d elements, want %d", arena.ErrBadIndexFile, name, len(vals), want)
		}
		return vals
	}
	get32 := func(name string, want int) []int32 {
		vals, e := f.I32(name)
		if e != nil {
			err = e
		} else if len(vals) != want && err == nil {
			err = fmt.Errorf("%w: column %q has %d elements, want %d", arena.ErrBadIndexFile, name, len(vals), want)
		}
		return vals
	}
	if t.leaf, err = f.Bool("leaf"); err != nil {
		return 0, err
	}
	if len(t.leaf) != nNodes {
		return 0, fmt.Errorf("%w: column %q has %d elements, want %d", arena.ErrBadIndexFile, "leaf", len(t.leaf), nNodes)
	}
	t.entFirst = get32("entFirst", nNodes)
	t.entLast = get32("entLast", nNodes)
	t.elemFirst = get32("elemFirst", nNodes)
	t.elemLast = get32("elemLast", nNodes)
	t.parent = get32("parent", nNodes)
	t.eRD = get64("eRD", 2*nEntries)
	t.eCount = get32("eCount", nEntries)
	t.eID = get32("eID", nEntries)
	t.eChild = get32("eChild", nEntries)
	t.ePos = get32("ePos", nEntries)
	t.leafIDs = get32("leafIDs", f.N)
	if err != nil {
		return 0, err
	}
	return nEntries, nil
}

// Items returns the indexed elements in id order, reconstructed from the
// leaf-entry pivots (every element appears as exactly one leaf pivot).
// For file-backed vector trees the elements are read-only views into the
// mapped pivot column.
func (t *Tree[T]) Items() []T {
	items := make([]T, t.size)
	for k, id := range t.eID {
		if id >= 0 {
			items[id] = t.ePivot[k]
		}
	}
	return items
}

// Capacity returns the node capacity the tree was built with.
func (t *Tree[T]) Capacity() int { return t.capacity }

// Close releases the backing file mapping of a tree produced by
// OpenVec/OpenStr (no-op for trees built in memory).
func (t *Tree[T]) Close() error {
	if t.src == nil {
		return nil
	}
	f := t.src
	t.src = nil
	return f.Close()
}

// validateArena checks the frozen-arena invariants every traversal
// relies on for termination and bounds safety: entry runs tile the SoA
// columns in node order, child nodes live at strictly larger slots than
// their parent (BFS layout — recursion terminates) and are each claimed
// exactly once, element positions walk each node's contiguous range in
// entry order, and leafIDs is a permutation. O(nodes + entries + n).
func (t *Tree[T]) validateArena() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: slim arena: %s", arena.ErrBadIndexFile, fmt.Sprintf(format, args...))
	}
	nNodes := int32(len(t.leaf))
	nEntries := int32(len(t.eID))
	n := int32(t.size)
	if t.parent[0] != noEntry {
		return bad("root has parent %d", t.parent[0])
	}
	if t.entFirst[0] != 0 || t.entLast[nNodes-1] != nEntries {
		return bad("entry runs do not span the columns")
	}
	if t.elemFirst[0] != 0 || t.elemLast[0] != n {
		return bad("root element range [%d, %d) over %d elements", t.elemFirst[0], t.elemLast[0], n)
	}
	claimed := make([]bool, nNodes)
	seen := make([]bool, n)
	for node := int32(0); node < nNodes; node++ {
		first, last := t.entFirst[node], t.entLast[node]
		if first > last || last > nEntries {
			return bad("node %d: entry range [%d, %d)", node, first, last)
		}
		if node > 0 && first != t.entLast[node-1] {
			return bad("node %d: entry run not contiguous", node)
		}
		ef, el := t.elemFirst[node], t.elemLast[node]
		if ef < 0 || el < ef || el > n {
			return bad("node %d: element range [%d, %d)", node, ef, el)
		}
		pos := ef
		for k := first; k < last; k++ {
			if t.leaf[node] {
				if t.eChild[k] != noEntry {
					return bad("leaf node %d: entry %d has child %d", node, k, t.eChild[k])
				}
				if t.eCount[k] != 1 {
					return bad("leaf node %d: entry %d counts %d", node, k, t.eCount[k])
				}
				if t.ePos[k] != pos || pos >= el {
					return bad("leaf node %d: entry %d at position %d, want %d", node, k, t.ePos[k], pos)
				}
				id := t.eID[k]
				if id < 0 || id >= n || seen[id] {
					return bad("entry %d: id %d missing or duplicated", k, id)
				}
				seen[id] = true
				if t.leafIDs[pos] != id {
					return bad("position %d: packed id %d, entry id %d", pos, t.leafIDs[pos], id)
				}
				pos++
				continue
			}
			c := t.eChild[k]
			if c <= node || c >= nNodes {
				return bad("node %d: entry %d child %d out of order", node, k, c)
			}
			if claimed[c] {
				return bad("node %d claimed twice", c)
			}
			claimed[c] = true
			if t.parent[c] != node {
				return bad("node %d: child %d claims parent %d", node, c, t.parent[c])
			}
			if t.eID[k] != noEntry || t.ePos[k] != noEntry {
				return bad("internal entry %d carries element fields", k)
			}
			if t.elemFirst[c] != pos {
				return bad("node %d: child %d elements start at %d, want %d", node, c, t.elemFirst[c], pos)
			}
			pos = t.elemLast[c]
			if t.eCount[k] != pos-t.elemFirst[c] {
				return bad("entry %d: count %d over child range [%d, %d)", k, t.eCount[k], t.elemFirst[c], pos)
			}
		}
		if pos != el {
			return bad("node %d: entries cover [%d, %d), want [%d, %d)", node, ef, pos, ef, el)
		}
	}
	for c := int32(1); c < nNodes; c++ {
		if !claimed[c] {
			return bad("node %d unreachable", c)
		}
	}
	return nil
}
