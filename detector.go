package mccatch

// Detector is the build-once/query-many handle behind the one-shot Run*
// functions: it owns the full index over one dataset, the hyperparameters
// fixed at construction, and (lazily) the radii schedule derived from the
// indexed data's diameter. Construct one with Build/BuildVectors*/
// BuildStrings, or reopen a saved index with OpenVectors/OpenStrings;
// then call Detect any number of times, Probe for single-element
// neighbor-count curves, and Save/WriteFile to persist the index.
//
// Detect on a Detector is byte-identical to the corresponding one-shot
// Run* call over the same data and options — the wrappers are literally
// build-then-detect — and a Detector reopened from a file detects
// byte-identically to the Detector that saved it, whether the file is
// mmap-backed or heap-loaded.
//
// Read-concurrency contract: once constructed, a Detector is safe for
// ANY number of concurrent readers — Detect, Probe, ProbeAppend, Radii,
// Items and Size may all run at the same time from different goroutines
// with no external locking. The index arenas are immutable after
// construction, every traversal keeps its scratch in per-call or pooled
// per-worker state, and the one piece of lazily derived shared state
// (the cached radii schedule) initializes under a sync.Once. The serving
// layer (internal/serve) relies on this contract to fan read traffic out
// without a lock; TestDetectorConcurrentReads hammers it under -race on
// built, mmap-opened and heap-opened detectors.
//
// Close is NOT a read: it unmaps the index file of an opened detector,
// so it must not race with in-flight reads — quiesce readers first (an
// http server Shutdown, a WaitGroup, ...). Close is idempotent, and any
// Detect/Probe/ProbeAppend issued after it fails with ErrDetectorClosed
// instead of touching the released mapping.

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"mccatch/internal/arena"
	"mccatch/internal/core"
	"mccatch/internal/index"
	"mccatch/internal/kdtree"
	"mccatch/internal/metric"
	"mccatch/internal/rtree"
	"mccatch/internal/slimtree"
)

// ErrDetectorClosed is returned by Detect/Probe/ProbeAppend on a Detector
// whose Close has run: the index (and, for an opened detector, the file
// mapping behind it) is no longer available.
var ErrDetectorClosed = fmt.Errorf("mccatch: detector is closed")

// Index-file error sentinels, re-exported so callers can errors.Is
// against the failure classes OpenVectors/OpenStrings report.
var (
	// ErrBadIndexFile: the file is not an index file, or its structure is
	// inconsistent (bad magic, malformed column table, broken invariants).
	ErrBadIndexFile = arena.ErrBadIndexFile
	// ErrIndexVersion: the file's format version is newer than this
	// library understands.
	ErrIndexVersion = arena.ErrIndexVersion
	// ErrTruncatedIndex: the file ends before its declared contents.
	ErrTruncatedIndex = arena.ErrTruncated
	// ErrIndexChecksum: a column's checksum does not match its bytes.
	ErrIndexChecksum = arena.ErrChecksum
	// ErrIndexKind: the file is a valid index of a different kind than
	// the opener expected (e.g. a string index passed to OpenVectors).
	ErrIndexKind = arena.ErrIndexKind
)

// Detector is a built or opened MCCATCH index plus its fixed
// hyperparameters. The zero value is not usable; see the constructors.
type Detector[T any] struct {
	items []T
	// tree is the full index: one tree, or under WithShards(n), n > 1,
	// one tree per part joined as one index (core.BuildIndex).
	tree    index.Index[T]
	builder index.Builder[T]
	params  core.Params

	// radii caches the derived schedule; radiiOnce makes the lazy
	// derivation safe under concurrent readers (the read-concurrency
	// contract above).
	radiiOnce sync.Once
	radii     []float64

	// closed flips once in Close; reads check it before touching the
	// tree so a post-Close call errors instead of faulting on an
	// unmapped arena.
	closed atomic.Bool
}

// Build indexes items under dist with a bulk-loaded slim-tree — the
// generic-metric backend every element type supports — and returns the
// detector handle. Options are validated here and fixed for the
// detector's lifetime.
func Build[T any](items []T, dist Distance[T], opts ...Option) (*Detector[T], error) {
	var p core.Params
	if err := applyOptions(&p, opts); err != nil {
		return nil, err
	}
	resolveSlimCapacity(&p)
	return newDetector(items, dist, core.SlimBuilder(dist, p), p, false), nil
}

// newDetector finishes every Build* constructor with the full index
// core.BuildIndex builds: the one tree, or one per part of a
// deterministic partition under params.Shards > 1. euclidean declares
// dist is the Euclidean metric on vectors (selecting the tile cut; see
// shard.Build).
func newDetector[T any](items []T, dist metric.Distance[T], builder index.Builder[T], p core.Params, euclidean bool) *Detector[T] {
	return &Detector[T]{items: items, tree: core.BuildIndex(items, dist, builder, p, euclidean), builder: builder, params: p}
}

// resolveSlimCapacity pins the node capacity a slim-tree backend will
// actually use into the params. Detectors reopened from a saved index
// learn the capacity from the file header, so the building side must
// record the resolved value (not the 0 placeholder) for the two to
// behave — and echo their params — identically.
func resolveSlimCapacity(p *core.Params) {
	if p.TreeCapacity < 4 {
		p.TreeCapacity = slimtree.DefaultCapacity
	}
}

// BuildVectors indexes vector data for detection under the Euclidean
// distance with the transformation cost set to the dimensionality — the
// counterpart of RunVectors, down to the same backend choice
// (vectorBuilder). Points must share one dimension and be free of
// NaN/Inf values.
func BuildVectors(points [][]float64, opts ...Option) (*Detector[[]float64], error) {
	p, err := vectorParams(points, opts)
	if err != nil {
		return nil, err
	}
	builder := vectorBuilder(&p)
	return newDetector(points, metric.Euclidean, builder, p, true), nil
}

// vectorBuilder is the vector backend BuildVectors and
// NewIncrementalVectors choose under p: the STR bulk-loaded R-tree at
// the default fanout, unless the slim-tree-specific WithTreeCapacity
// moves it to the slim-tree, whose resolved capacity it then pins into p.
func vectorBuilder(p *core.Params) index.Builder[[]float64] {
	if p.TreeCapacity != 0 {
		resolveSlimCapacity(p)
		return core.SlimBuilder(metric.Euclidean, *p)
	}
	return rtreeBuilder(0, p.Workers)
}

// rtreeBuilder builds STR bulk-loaded R-trees at fanout (0 = default).
func rtreeBuilder(fanout, workers int) index.Builder[[]float64] {
	return func(sub [][]float64) index.Index[[]float64] { return rtree.NewWithWorkers(sub, fanout, workers) }
}

// BuildVectorsSlim is BuildVectors pinned to the slim-tree backend
// (RunVectorsSlim's counterpart).
func BuildVectorsSlim(points [][]float64, opts ...Option) (*Detector[[]float64], error) {
	p, err := vectorParams(points, opts)
	if err != nil {
		return nil, err
	}
	resolveSlimCapacity(&p)
	return newDetector(points, metric.Euclidean, core.SlimBuilder(metric.Euclidean, p), p, true), nil
}

// BuildVectorsKD is BuildVectors pinned to the kd-tree backend
// (RunVectorsKD's counterpart).
func BuildVectorsKD(points [][]float64, opts ...Option) (*Detector[[]float64], error) {
	p, err := vectorParams(points, opts)
	if err != nil {
		return nil, err
	}
	builder := func(sub [][]float64) index.Index[[]float64] { return kdtree.NewWithWorkers(sub, p.Workers) }
	return newDetector(points, metric.Euclidean, builder, p, true), nil
}

// BuildVectorsR is BuildVectors pinned to the R-tree backend
// (RunVectorsR's counterpart).
func BuildVectorsR(points [][]float64, opts ...Option) (*Detector[[]float64], error) {
	p, err := vectorParams(points, opts)
	if err != nil {
		return nil, err
	}
	return newDetector(points, metric.Euclidean, rtreeBuilder(0, p.Workers), p, true), nil
}

// vectorParams validates the points, seeds the vector transformation
// cost, and applies the caller's options on top (so an explicit cost
// option still wins).
func vectorParams(points [][]float64, opts []Option) (core.Params, error) {
	var p core.Params
	dim, err := validateVectors(points)
	if err != nil {
		return p, err
	}
	if dim > 0 {
		p.Cost = metric.VectorCost(dim)
	}
	if err := applyOptions(&p, opts); err != nil {
		return p, err
	}
	return p, nil
}

// BuildStrings indexes words under the Levenshtein edit distance with the
// word transformation cost derived from the data itself — RunStrings'
// counterpart.
func BuildStrings(words []string, opts ...Option) (*Detector[string], error) {
	var p core.Params
	if len(words) > 0 {
		if err := DeriveWordCost(words)(&p); err != nil {
			return nil, err
		}
	}
	if err := applyOptions(&p, opts); err != nil {
		return nil, err
	}
	resolveSlimCapacity(&p)
	return newDetector(words, metric.Levenshtein, core.SlimBuilder(metric.Levenshtein, p), p, false), nil
}

// OpenVectors opens a vector index file written by Save/WriteFile —
// kd-tree, R-tree, or vector slim-tree; the header says which — and
// returns a ready Detector over it. The file is mmap-backed where the
// platform allows (the hot upper tree levels stay resident, cold leaf
// pages fault in on demand) and read into the heap otherwise, with
// identical query results either way. The dataset itself is
// reconstructed as views into the mapping — no separate copy of the
// points is loaded. Options apply on top of the vector defaults exactly
// as in BuildVectors; Close releases the mapping.
func OpenVectors(path string, opts ...Option) (*Detector[[]float64], error) {
	return openVectors(path, nil, opts)
}

// openVectors is OpenVectors with explicit arena options, so tests (and
// platforms without mmap) can pin the heap-read backing.
func openVectors(path string, aopts []arena.Option, opts []Option) (*Detector[[]float64], error) {
	kind, err := arena.ReadKind(path)
	if err != nil {
		return nil, err
	}
	var (
		tree    index.Index[[]float64]
		items   [][]float64
		dim     int
		slimCap int
		builder func(p core.Params) index.Builder[[]float64]
	)
	switch kind {
	case arena.KindKD:
		t, err := kdtree.Open(path, aopts...)
		if err != nil {
			return nil, err
		}
		tree, items, dim = t, t.Items(), t.Dim()
		builder = func(p core.Params) index.Builder[[]float64] {
			return func(sub [][]float64) index.Index[[]float64] { return kdtree.NewWithWorkers(sub, p.Workers) }
		}
	case arena.KindR:
		t, err := rtree.Open(path, aopts...)
		if err != nil {
			return nil, err
		}
		tree, items, dim = t, t.Items(), t.Dim()
		builder = func(p core.Params) index.Builder[[]float64] { return rtreeBuilder(t.Fanout(), p.Workers) }
	case arena.KindSlimVec:
		t, err := slimtree.OpenVec(path, aopts...)
		if err != nil {
			return nil, err
		}
		tree, items, slimCap = t, t.Items(), t.Capacity()
		if len(items) > 0 {
			dim = len(items[0])
		}
		builder = func(p core.Params) index.Builder[[]float64] {
			return core.SlimBuilder(metric.Euclidean, p)
		}
	default:
		return nil, fmt.Errorf("%w: %s index in %s, want a vector index", arena.ErrIndexKind, kind, path)
	}
	var p core.Params
	if dim > 0 {
		p.Cost = metric.VectorCost(dim)
	}
	if err := applyOptions(&p, opts); err != nil {
		closeIndex(tree)
		return nil, err
	}
	if p.Shards > 1 {
		closeIndex(tree)
		return nil, fmt.Errorf("mccatch: WithShards(%d) cannot apply to an opened index file; sharded detectors are built in memory", p.Shards)
	}
	// A slim-backed file records the capacity it was built with; adopt it
	// unless an explicit option overrode it, so the reopened detector's
	// throwaway trees — and its echoed params — match the saving one's.
	if slimCap > 0 && p.TreeCapacity == 0 {
		p.TreeCapacity = slimCap
	}
	return &Detector[[]float64]{items: items, tree: tree, builder: builder(p), params: p}, nil
}

// OpenStrings opens a string index file written by Save/WriteFile and
// returns a ready Detector over it, under the Levenshtein edit distance
// with the word cost re-derived from the reconstructed words — exactly
// the configuration BuildStrings fixes, so detection results match the
// saving detector's. Options apply on top; Close releases the mapping.
func OpenStrings(path string, opts ...Option) (*Detector[string], error) {
	t, err := slimtree.OpenStr(path, metric.Levenshtein)
	if err != nil {
		return nil, err
	}
	items := t.Items()
	var p core.Params
	if len(items) > 0 {
		if err := DeriveWordCost(items)(&p); err != nil {
			t.Close()
			return nil, err
		}
	}
	if err := applyOptions(&p, opts); err != nil {
		t.Close()
		return nil, err
	}
	if p.Shards > 1 {
		t.Close()
		return nil, fmt.Errorf("mccatch: WithShards(%d) cannot apply to an opened index file; sharded detectors are built in memory", p.Shards)
	}
	// As in OpenVectors: adopt the saved tree's capacity unless an
	// explicit option overrode it.
	if p.TreeCapacity == 0 {
		p.TreeCapacity = t.Capacity()
	}
	builder := core.SlimBuilder(metric.Levenshtein, p)
	return &Detector[string]{items: items, tree: t, builder: builder, params: p}, nil
}

// Detect runs the full MCCATCH pipeline over the indexed dataset and
// returns the ranked microclusters. The full index is never rebuilt —
// only the small throwaway trees of Steps III and IV are constructed per
// call — so repeated detections (or a detection over a freshly opened
// index file) skip the dominant build cost.
func (d *Detector[T]) Detect() (*Result, error) {
	if d.closed.Load() {
		return nil, ErrDetectorClosed
	}
	return core.RunPrebuilt(d.items, d.tree, d.builder, d.params)
}

// Size returns the number of indexed elements.
func (d *Detector[T]) Size() int { return d.tree.Size() }

// Items returns the indexed elements in id order — the slice Detect's
// Result indices refer to. For opened vector detectors the elements are
// read-only views into the index mapping.
func (d *Detector[T]) Items() []T { return d.items }

// Radii returns the detector's neighborhood radii schedule (ascending;
// last = estimated diameter), the schedule Detect uses and Probe counts
// at. It is derived once and cached; nil when the dataset is empty or
// has zero diameter.
func (d *Detector[T]) Radii() []float64 {
	d.radiiOnce.Do(func() {
		if d.closed.Load() {
			return // the mapping may be gone; leave the schedule nil
		}
		a := d.params.NumRadii
		if a == 0 {
			a = core.DefaultNumRadii
		}
		if l := d.tree.DiameterEstimate(); l > 0 {
			d.radii = core.MakeRadii(l, a)
		}
	})
	return d.radii
}

// Probe returns q's neighbor count at every radius of the detector's
// schedule — the raw neighbor-count curve MCCATCH's Step II reads
// plateaus from — in one index traversal. It allocates only the result
// slice, never a per-point pipeline state, so it is the cheap
// query-many path for a detector opened from a large index file. The
// counts are nil (with a nil error) when the dataset is empty or has
// zero diameter; after Close it reports ErrDetectorClosed.
func (d *Detector[T]) Probe(q T) ([]int, error) {
	return d.ProbeAppend(q, nil)
}

// ProbeAppend is the allocation-free form of Probe: the counts append
// into dst, reusing its capacity, so a hot loop recycling one scratch
// slice pays zero steady-state allocations per probe (the serving
// layer's coalesced score-point batches run on this path).
func (d *Detector[T]) ProbeAppend(q T, dst []int) ([]int, error) {
	if d.closed.Load() {
		return dst, ErrDetectorClosed
	}
	radii := d.Radii()
	if len(radii) == 0 {
		return dst, nil
	}
	return index.RangeCountMultiAppend(d.tree, q, radii, dst), nil
}

// Save writes the detector's index (structure, data, and prefilters —
// everything queries touch) to w in the versioned arena format. Only
// the bundled backends persist; a sharded detector reports an error.
func (d *Detector[T]) Save(w io.Writer) error {
	f, err := d.indexFile()
	if err != nil {
		return err
	}
	return f.Save(w)
}

// WriteFile saves the detector's index to path, atomically (temp file +
// rename in the destination directory).
func (d *Detector[T]) WriteFile(path string) error {
	f, err := d.indexFile()
	if err != nil {
		return err
	}
	return f.WriteFile(path)
}

// indexFile returns the detector's index as the on-disk form the
// bundled trees share, or the reason it has none.
func (d *Detector[T]) indexFile() (interface {
	Save(io.Writer) error
	WriteFile(path string) error
}, error) {
	if d.closed.Load() {
		return nil, ErrDetectorClosed
	}
	switch t := any(d.tree).(type) {
	case *kdtree.Tree:
		return t, nil
	case *rtree.Tree:
		return t, nil
	case *slimtree.Tree[T]:
		return t, nil
	}
	// Every unsharded detector holds one of the bundled trees above.
	return nil, fmt.Errorf("mccatch: a sharded detector has no on-disk format; build with WithShards(1) to save")
}

// Close releases the file mapping behind an opened detector. It is a
// no-op for detectors built in memory, and idempotent: only the first
// call reaches the munmap path, later calls return nil. After Close,
// Detect/Probe/ProbeAppend/Save/WriteFile report ErrDetectorClosed
// instead of reading the released mapping; Items views previously
// handed out still become invalid, and Close must not run concurrently
// with in-flight reads (see the read-concurrency contract above).
func (d *Detector[T]) Close() error {
	if !d.closed.CompareAndSwap(false, true) {
		return nil
	}
	return closeIndex(d.tree)
}

func closeIndex[T any](t index.Index[T]) error {
	if c, ok := any(t).(io.Closer); ok {
		return c.Close()
	}
	return nil
}
