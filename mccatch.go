// Package mccatch detects microclusters of outliers in any metric dataset —
// dimensional (vectors) or nondimensional (strings, graphs, point sets,
// anything with a distance function) — and ranks singleton ('one-off')
// outliers and nonsingleton microclusters together by principled,
// compression-based anomaly scores.
//
// It implements MCCATCH from "MCCATCH: Scalable Microcluster Detection in
// Dimensional and Nondimensional Datasets" (Sánchez Vinces, Cordeiro,
// Faloutsos; ICDE 2024). The method is deterministic, needs no manual
// tuning (its three hyperparameters have data-driven defaults used in every
// experiment of the paper), and runs in subquadratic time
// O(n·n^(1-1/u)) on data of intrinsic dimension u.
//
// # Quick start
//
//	points := [][]float64{ ... }
//	res, err := mccatch.RunVectors(points)
//	for _, mc := range res.Microclusters { // most-strange-first
//		fmt.Println(mc.Members, mc.Score)
//	}
//
// For nondimensional data provide any metric:
//
//	res, err := mccatch.Run(words, mccatch.Levenshtein,
//		mccatch.WithWordCost(26, 12))
//
// # Concurrency
//
// Every run fans its per-point work (range-count curves, gelling range
// queries, bridge searches, scoring) out across runtime.GOMAXPROCS(0)
// workers by default, and all three index backends — the bulk-loaded
// slim-tree, the kd-tree and the R-tree — build their trees in parallel
// too. Use WithWorkers to pin the worker count —
// WithWorkers(1) forces a fully serial run. The result is byte-identical
// for every worker count; see WithWorkers for the determinism guarantee.
package mccatch

import (
	"fmt"
	"math"

	"mccatch/internal/core"
	"mccatch/internal/metric"
)

// Microcluster is one detected microcluster. Members are indices into the
// input dataset; Score is the anomaly score s_j (bits per point, larger is
// more anomalous); Bridge is the smallest distance from a member to its
// nearest inlier.
type Microcluster = core.Microcluster

// Result carries the ranked microclusters, per-point scores, and the
// explainability artifacts ('Oracle' plot, radii, histogram, MDL cutoff).
type Result = core.Result

// Distance is a metric between two elements. It must be symmetric,
// non-negative, zero on identical arguments, and satisfy the triangle
// inequality.
type Distance[T any] = metric.Distance[T]

// Ready-made metrics re-exported for callers.
var (
	// Euclidean is the L2 distance between equal-length vectors.
	Euclidean = metric.Euclidean
	// Manhattan is the L1 distance between equal-length vectors.
	Manhattan = metric.Manhattan
	// Levenshtein is the edit distance between strings.
	Levenshtein = metric.Levenshtein
	// Hausdorff is the Hausdorff distance between point sets.
	Hausdorff = metric.Hausdorff
	// GraphDistance is a graph-edit-distance surrogate between graphs.
	GraphDistance = metric.GraphDistance
	// TreeEditDistance is the exact Zhang-Shasha edit distance between
	// rooted ordered labeled trees.
	TreeEditDistance = metric.TreeEditDistance
	// SoundexDistance compares words by the edit distance of their Soundex
	// phonetic codes.
	SoundexDistance = metric.SoundexDistance
)

// MetricTree re-exports the rooted ordered tree type for TreeEditDistance.
type MetricTree = metric.Tree

// Graph re-exports the graph element type used with GraphDistance.
type Graph = metric.Graph

// PointSet re-exports the point-set element type used with Hausdorff.
type PointSet = metric.PointSet

// NewGraph builds a Graph on n nodes from an undirected edge list.
func NewGraph(n int, edges [][2]int) Graph { return metric.NewGraph(n, edges) }

// Option configures a run or a Detector. Every option validates its
// argument eagerly and surfaces a descriptive error from the constructor
// it is passed to (Run*, Build*, Open*, NewIncremental*) before any work
// is done — an explicit WithRadii(0) is a caller bug, not a request for
// the default, so it is rejected rather than silently replaced.
type Option func(*core.Params) error

// applyOptions is the one place option lists are folded into parameters:
// every public entry point funnels through it, so validation behaves
// identically everywhere.
func applyOptions(p *core.Params, opts []Option) error {
	for _, o := range opts {
		if err := o(p); err != nil {
			return err
		}
	}
	return nil
}

// WithRadii sets a, the number of neighborhood radii (default 15).
// a must be at least 2 (the schedule needs a smallest and a largest
// radius to interpolate between).
func WithRadii(a int) Option {
	return func(p *core.Params) error {
		if a < 2 {
			return fmt.Errorf("mccatch: WithRadii: need at least 2 radii, got %d", a)
		}
		p.NumRadii = a
		return nil
	}
}

// WithMaxSlope sets b, the maximum plateau slope (default 0.1). b must
// be finite and ≥ 0; zero demands strictly flat plateaus.
func WithMaxSlope(b float64) Option {
	return func(p *core.Params) error {
		if math.IsNaN(b) || math.IsInf(b, 0) || b < 0 {
			return fmt.Errorf("mccatch: WithMaxSlope: slope must be finite and ≥ 0, got %v", b)
		}
		p.MaxSlope = b
		return nil
	}
}

// WithMaxCardinality sets c, the maximum microcluster cardinality
// (default ⌈n·0.1⌉). c must be ≥ 1.
func WithMaxCardinality(c int) Option {
	return func(p *core.Params) error {
		if c < 1 {
			return fmt.Errorf("mccatch: WithMaxCardinality: cardinality must be ≥ 1, got %d", c)
		}
		p.MaxCardinality = c
		return nil
	}
}

// WithVectorCost sets the transformation cost t for a dim-dimensional
// vector space (Def. 7: t = dimensionality). dim must be ≥ 1.
func WithVectorCost(dim int) Option {
	return func(p *core.Params) error {
		if dim < 1 {
			return fmt.Errorf("mccatch: WithVectorCost: dimension must be ≥ 1, got %d", dim)
		}
		p.Cost = metric.VectorCost(dim)
		return nil
	}
}

// WithWordCost sets t for strings under the edit distance (Def. 7).
// Both the alphabet size and the longest word length must be ≥ 1.
func WithWordCost(distinctChars, longestWordLen int) Option {
	return func(p *core.Params) error {
		if distinctChars < 1 || longestWordLen < 1 {
			return fmt.Errorf("mccatch: WithWordCost: need ≥ 1 distinct characters and word length, got (%d, %d)",
				distinctChars, longestWordLen)
		}
		p.Cost = metric.WordCost(distinctChars, longestWordLen)
		return nil
	}
}

// WithCustomCost sets t to a caller-supplied bits-per-unit-distance cost
// for any other metric space. The cost must be finite and > 0.
func WithCustomCost(bitsPerUnit float64) Option {
	return func(p *core.Params) error {
		if math.IsNaN(bitsPerUnit) || math.IsInf(bitsPerUnit, 0) || bitsPerUnit <= 0 {
			return fmt.Errorf("mccatch: WithCustomCost: cost must be finite and > 0, got %v", bitsPerUnit)
		}
		p.Cost = metric.CustomCost(bitsPerUnit)
		return nil
	}
}

// WithTreeCapacity sets the slim-tree node capacity (default 32). The
// capacity must be at least 4: the slim-tree treats smaller values as
// unset and would silently build at the default instead.
func WithTreeCapacity(k int) Option {
	return func(p *core.Params) error {
		if k < 4 {
			return fmt.Errorf("mccatch: WithTreeCapacity: capacity must be ≥ 4, got %d", k)
		}
		p.TreeCapacity = k
		return nil
	}
}

// WithWorkers sets the number of concurrent workers the pipeline uses for
// its per-point work: the Step II neighbor-count curves, the Step III
// gelling range queries, the Step IV bridge searches and scoring, and the
// index builds (the bulk-loaded slim-tree, the kd-tree and the R-tree).
// n = 0 (the default) means runtime.GOMAXPROCS(0); n = 1 forces a fully
// serial run; negative counts are rejected.
//
// Determinism guarantee: the Result is byte-identical for every worker
// count. Workers write into preallocated per-index slots, every
// floating-point reduction happens in a fixed order inside a single unit
// of work, and all tiebreaks (microcluster ranking, index construction)
// are deterministic — so WithWorkers trades only wall-clock time, never
// output.
func WithWorkers(n int) Option {
	return func(p *core.Params) error {
		if n < 0 {
			return fmt.Errorf("mccatch: WithWorkers: worker count must be ≥ 0 (0 = all cores), got %d", n)
		}
		p.Workers = n
		return nil
	}
}

// WithShards cuts the dataset into n shards, each indexed by its own
// tree, built concurrently, and the detection runs its one pipeline
// over them as one index over their union (n = 1, the default, is the
// single-index path). Vector data under the Euclidean distance is cut
// into STR-style tiles; any other metric is cut into pivot Voronoi
// cells around deterministically sampled pivots. Shards never replicate
// border points: Step II's self join is each shard's own self join plus
// one cross join against every other shard, concurrently across shards,
// which accounts for every across-the-cut neighbor pair exactly. Steps
// III and IV build their small throwaway trees exactly as an unsharded
// run does.
//
// Determinism guarantee: like WithWorkers, WithShards trades only
// wall-clock time, never output — the Result is byte-identical for
// every shard count, because the union's neighbor counts are exact
// integer sums over the shards (no floating-point reduction ever
// crosses a shard boundary). Sharding helps when per-shard work
// dominates the cross-shard border (clustered or spread-out data,
// larger n); it hurts on tiny datasets or cuts where most points are
// near a border, where the k² cross-shard joins outweigh the split
// build. Sharded detectors have no on-disk format, so WithShards
// conflicts with Save/WriteFile and the Open* paths.
func WithShards(n int) Option {
	return func(p *core.Params) error {
		if n < 1 {
			return fmt.Errorf("mccatch: WithShards: shard count must be ≥ 1, got %d", n)
		}
		p.Shards = n
		return nil
	}
}

// Run executes MCCATCH on items under dist with the given options and
// returns the ranked microclusters, their scores, and a score per point.
// It is Build followed by one Detect; hold a Detector instead when the
// same dataset will be queried or detected more than once.
func Run[T any](items []T, dist Distance[T], opts ...Option) (*Result, error) {
	d, err := Build(items, dist, opts...)
	if err != nil {
		return nil, err
	}
	return d.Detect()
}

// RunVectors runs MCCATCH on vector data under the Euclidean distance with
// the transformation cost set to the dimensionality, the paper's default
// configuration for dimensional datasets. Points must share one dimension
// and be free of NaN/Inf values; otherwise an error is returned before any
// work is done.
//
// The index backend defaults to the STR bulk-loaded R-tree. In the
// README's serial backend sweep the kd-tree wins both 2d cells, while
// the R-tree wins every 8d and 32d cell, where the absolute cost is
// largest, by 1.09–1.23× over the kd-tree; the slim-tree pays
// generic-metric overhead that coordinate trees avoid. The Result is
// byte-identical across backends on vector data — all three answer exact
// range counts and share one radii schedule — so only the constants
// change. The slim-tree remains available three ways: RunVectorsSlim,
// the generic Run(points, mccatch.Euclidean, ...), and implicitly
// whenever the slim-tree-specific WithTreeCapacity is passed, so that
// option keeps its meaning.
func RunVectors(points [][]float64, opts ...Option) (*Result, error) {
	d, err := BuildVectors(points, opts...)
	if err != nil {
		return nil, err
	}
	return d.Detect()
}

// RunVectorsSlim is RunVectors pinned to the slim-tree index — the
// metric-tree default of every release before the R-tree became the
// vector default, kept reachable for callers who want one access method
// across dimensional and nondimensional data. Results are identical to
// RunVectors; only the constant factors differ.
func RunVectorsSlim(points [][]float64, opts ...Option) (*Result, error) {
	d, err := BuildVectorsSlim(points, opts...)
	if err != nil {
		return nil, err
	}
	return d.Detect()
}

// validateVectors checks dimensional consistency and finiteness; metric
// trees silently misbehave on NaN distances, so bad input is rejected up
// front.
func validateVectors(points [][]float64) (dim int, err error) {
	if len(points) == 0 {
		return 0, nil // core returns ErrEmptyDataset with full context
	}
	dim = len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return 0, fmt.Errorf("mccatch: point %d has dimension %d, want %d", i, len(p), dim)
		}
		for j, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("mccatch: point %d has non-finite value at feature %d", i, j)
			}
		}
	}
	return dim, nil
}

// RunVectorsKD is RunVectors with the index swapped from the slim-tree to
// a kd-tree — the paper's footnote-4 recommendation for main-memory vector
// data. Results are identical (both indexes answer exact range counts);
// only the constant factors differ.
func RunVectorsKD(points [][]float64, opts ...Option) (*Result, error) {
	d, err := BuildVectorsKD(points, opts...)
	if err != nil {
		return nil, err
	}
	return d.Detect()
}

// RunVectorsR is RunVectors with the index swapped to an STR bulk-loaded
// R-tree — the paper's disk-oriented choice for vector data (Alg. 1's
// "Slim-tree, M-tree, or R-tree"). Like RunVectorsKD, only constant
// factors change.
func RunVectorsR(points [][]float64, opts ...Option) (*Result, error) {
	d, err := BuildVectorsR(points, opts...)
	if err != nil {
		return nil, err
	}
	return d.Detect()
}

// RunStrings runs MCCATCH on strings under the Levenshtein edit distance,
// deriving the word transformation cost (alphabet size, longest word) from
// the data itself.
func RunStrings(words []string, opts ...Option) (*Result, error) {
	d, err := BuildStrings(words, opts...)
	if err != nil {
		return nil, err
	}
	return d.Detect()
}
