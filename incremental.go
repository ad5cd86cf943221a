package mccatch

import (
	"fmt"
	"math"

	"mccatch/internal/core"
	"mccatch/internal/index"
	"mccatch/internal/metric"
	"mccatch/internal/segment"
)

// Incremental is a mutable MCCATCH detector: a dataset that accepts
// Insert and Delete between detections, indexed by an LSM-style layer —
// a small mutable memtable in front of frozen immutable index segments.
// The segments answer point queries (Probe, Radii) as exact merges
// without rebuilding anything; Detect, a full scan, bulk-builds one
// fresh index over the live set and runs the batch pipeline on it.
//
// Detect is EXACTLY equivalent to a one-shot run over the current live
// set: inserts and deletes never change the answer, only the work done
// to produce it. Element indices in the Result (Microcluster.Members,
// PointScores, the Oracle plot) refer to the live elements in insertion
// order, i.e. the slice a fresh run would have been given.
//
// An Incremental is not safe for concurrent mutation; the worker fan-out
// inside one Detect call is.
type Incremental[T any] struct {
	m        *segment.Mutable[T]
	builder  index.Builder[T]
	params   core.Params
	validate func(T) error
	// dist and euclidean feed Detect's fresh build over the live set;
	// euclidean marks the vector constructor so a sharded Detect
	// (WithShards > 1) can cut the live set into tiles.
	dist      Distance[T]
	euclidean bool

	// Radii cache, valid while radiiEpoch matches the live-set epoch:
	// deriving the schedule costs a diameter estimate over the live set,
	// far too much to repeat per probe on an unchanged dataset.
	radii      []float64
	radiiEpoch uint64
	radiiSet   bool
}

// NewIncremental returns an empty mutable detector over the metric dist,
// indexing with the same bulk-loaded slim-tree a one-shot Run uses (so
// Detect matches Run on the live set bit for bit). Options are validated
// here, fixed at construction, and apply to every Detect.
func NewIncremental[T any](dist Distance[T], opts ...Option) (*Incremental[T], error) {
	var p core.Params
	if err := applyOptions(&p, opts); err != nil {
		return nil, err
	}
	resolveSlimCapacity(&p)
	builder := core.SlimBuilder(dist, p)
	return &Incremental[T]{
		m:       segment.NewMutable(dist, builder, 0),
		builder: builder,
		params:  p,
		dist:    dist,
	}, nil
}

// NewIncrementalVectors returns an empty mutable detector for
// dim-dimensional vectors under the Euclidean distance, with the
// transformation cost set to the dimensionality — the incremental
// counterpart of RunVectors, down to the same backend choice (STR
// bulk-loaded R-tree unless WithTreeCapacity is passed), so
// Detect matches RunVectors over the live set bit for bit. Insert
// rejects points of the wrong dimension or with non-finite values.
func NewIncrementalVectors(dim int, opts ...Option) (*Incremental[[]float64], error) {
	var p core.Params
	if err := applyOptions(&p, append([]Option{WithVectorCost(dim)}, opts...)); err != nil {
		return nil, err
	}
	builder := vectorBuilder(&p)
	inc := &Incremental[[]float64]{
		m:         segment.NewMutable(metric.Euclidean, builder, 0),
		builder:   builder,
		params:    p,
		dist:      metric.Euclidean,
		euclidean: true,
	}
	// Euclidean distance is coordinate-monotone, so the live set's
	// diameter estimate is its bounding-box corner distance — unlock the
	// O(dim) incremental box path for the per-epoch radii refresh.
	inc.m.DeclareMonotone()
	inc.validate = func(x []float64) error {
		if len(x) != dim {
			return fmt.Errorf("mccatch: point has dimension %d, want %d", len(x), dim)
		}
		for j, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("mccatch: point has non-finite value at feature %d", j)
			}
		}
		return nil
	}
	return inc, nil
}

// Insert adds x to the live set and returns its permanent handle, usable
// with Delete at any later time. The element lands in the memtable; when
// the memtable reaches its cap it is automatically frozen into a new
// immutable segment.
func (inc *Incremental[T]) Insert(x T) (int64, error) {
	if inc.validate != nil {
		if err := inc.validate(x); err != nil {
			return 0, err
		}
	}
	return inc.m.Insert(x), nil
}

// Delete removes the element behind handle from the live set and reports
// whether it was present. Frozen elements become tombstones that every
// probe subtracts exactly until the next Compact.
func (inc *Incremental[T]) Delete(handle int64) bool { return inc.m.Delete(handle) }

// Freeze forces the current memtable into a new immutable segment (no-op
// when empty), so subsequent probes run entirely over frozen arenas.
func (inc *Incremental[T]) Freeze() { inc.m.Freeze() }

// Compact rebuilds all segments and the memtable into one fresh segment
// over the live set, dropping every tombstone — after which the index is
// indistinguishable from a fresh bulk build.
func (inc *Incremental[T]) Compact() { inc.m.Compact() }

// Len returns the number of live elements.
func (inc *Incremental[T]) Len() int { return inc.m.Size() }

// Segments reports the current frozen-segment count.
func (inc *Incremental[T]) Segments() int { return inc.m.Segments() }

// Tombstones reports the number of deleted-but-not-yet-compacted
// elements across all segments.
func (inc *Incremental[T]) Tombstones() int { return inc.m.Tombstones() }

// SetMemtableCap sets the memtable size at which Insert auto-freezes a
// segment (n ≤ 0 restores the default).
func (inc *Incremental[T]) SetMemtableCap(n int) { inc.m.SetMemtableCap(n) }

// Detect runs MCCATCH over a snapshot of the current live set: one bulk
// build of the detector's full index over the live elements
// (core.BuildIndex, so under WithShards(n), n > 1, one tree per part of
// a fresh deterministic partition), then the batch pipeline, exactly as
// a one-shot run over them. The Result is therefore identical to that
// run's. Detect reads the incremental layer without reorganizing it:
// segments, tombstones, the memtable and the epoch are the same
// afterwards, and so is every Probe answer.
func (inc *Incremental[T]) Detect() (*Result, error) {
	live := inc.m.Live()
	if len(live) == 0 {
		return nil, core.ErrEmptyDataset
	}
	return core.RunPrebuilt(live, core.BuildIndex(live, inc.dist, inc.builder, inc.params, inc.euclidean), inc.builder, inc.params)
}

// Epoch returns the live-set mutation counter: it changes exactly when
// Insert or a successful Delete changes the live set, and stays put
// across Freeze and Compact. Two calls returning the same epoch bracket
// a window in which every Detect, Probe and Radii answer was identical —
// the serving layer keys its result caches on it.
func (inc *Incremental[T]) Epoch() uint64 { return inc.m.Epoch() }

// Radii returns the radii schedule (Step I of the pipeline) a Detect
// over the current live set would use: a logarithmically spaced radii
// derived from the live set's estimated diameter. Returns nil while the
// live set has fewer than two elements. The schedule is cached per epoch
// — probes between mutations pay for the diameter estimate once.
func (inc *Incremental[T]) Radii() []float64 {
	if e := inc.m.Epoch(); !inc.radiiSet || e != inc.radiiEpoch {
		inc.radii = nil
		a := inc.params.NumRadii
		if a == 0 {
			a = core.DefaultNumRadii
		}
		if l := inc.m.DiameterEstimate(); l > 0 {
			inc.radii = core.MakeRadii(l, a)
		}
		inc.radiiEpoch, inc.radiiSet = e, true
	}
	return inc.radii
}

// Probe returns q's neighbor-count curve: for each radius of the current
// schedule, how many live elements lie within that radius of q (q itself
// counts when it is in the live set). See ProbeAppend.
func (inc *Incremental[T]) Probe(q T) ([]int, error) { return inc.ProbeAppend(q, nil) }

// ProbeAppend appends q's neighbor-count curve to dst, reusing dst's
// capacity — the allocation-free form of Probe, answered as one merged
// multi-radius traversal across the frozen segments and the memtable. A
// query the detector rejects (wrong dimension, non-finite value) returns
// dst unchanged with the error, so a caller recycling one buffer keeps
// it. Like every other method it is not safe concurrently with mutation.
func (inc *Incremental[T]) ProbeAppend(q T, dst []int) ([]int, error) {
	if inc.validate != nil {
		if err := inc.validate(q); err != nil {
			return dst, err
		}
	}
	return inc.m.RangeCountMultiAppend(q, inc.Radii(), dst), nil
}

// DeriveWordCost returns the WithWordCost option computed from the data
// itself (distinct runes, longest word) — the same derivation RunStrings
// applies, exported so an incremental run over strings can match a
// one-shot RunStrings on the same words bit for bit.
func DeriveWordCost(words []string) Option {
	distinct := map[rune]bool{}
	longest := 0
	for _, w := range words {
		runes := []rune(w)
		if len(runes) > longest {
			longest = len(runes)
		}
		for _, r := range runes {
			distinct[r] = true
		}
	}
	return WithWordCost(len(distinct), longest)
}
