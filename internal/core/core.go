// Package core implements MCCATCH (Algs. 1-4 of the paper): a hands-off,
// scalable detector that finds microclusters of outliers — singleton
// ('one-off' outliers) and nonsingleton alike — in any metric dataset, and
// ranks them by principled, compression-based anomaly scores.
//
// The pipeline has four steps:
//
//  1. define neighborhood radii from the dataset diameter (Alg. 1 L1-3),
//  2. build the 'Oracle' plot of 1NN Distance × Group 1NN Distance from
//     plateaus in each point's neighbor-count curve (Alg. 2),
//  3. spot microclusters with an MDL-chosen cutoff and neighborhood-graph
//     gelling (Alg. 3), and
//  4. score each microcluster by the cost of describing it in terms of its
//     nearest inlier (Alg. 4, Def. 7).
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"mccatch/internal/index"
	"mccatch/internal/metric"
	"mccatch/internal/slimtree"
)

// Default hyperparameter values (paper Alg. 1). The paper used these in
// every experiment except the explicit sensitivity study.
const (
	DefaultNumRadii = 15  // a
	DefaultMaxSlope = 0.1 // b
	// The default Maximum Microcluster Cardinality is ⌈n·0.1⌉, computed at
	// run time; DefaultCardinalityFraction is that 0.1.
	DefaultCardinalityFraction = 0.1
)

// Params are MCCATCH's hyperparameters.
type Params struct {
	// NumRadii is a, the number of neighborhood radii (≥ 2). 0 → 15.
	NumRadii int
	// MaxSlope is b, the maximum plateau slope (≥ 0). Negative → error;
	// zero is valid (strict plateaus). NaN → default 0.1.
	MaxSlope float64
	// MaxCardinality is c, the maximum microcluster cardinality (≥ 1).
	// 0 → ⌈n·0.1⌉.
	MaxCardinality int
	// Cost is the transformation cost t of the metric space (Def. 7).
	// 0 → 1 bit per unit distance.
	Cost metric.TransformationCost
	// TreeCapacity is the slim-tree node capacity. 0 → default.
	TreeCapacity int
	// Workers is the number of concurrent workers the pipeline fans
	// per-point work out on (joins, plateau extraction, scoring, bulk
	// index builds). ≤ 0 → runtime.GOMAXPROCS(0); 1 → fully serial.
	// Results are identical for every value: workers write into
	// preallocated per-index slots and no reduction order is observable.
	Workers int
	// Shards is the number of disjoint parts the full index is cut
	// into, one tree per part, joined as one index over their union
	// (BuildIndex). 0 → 1; 1 is the single-index path. The Result is
	// deep-equal for every value — sharding, like Workers, only moves
	// where the work happens.
	Shards int
}

// withDefaults validates p and fills zero values, given the dataset size n.
func (p Params) withDefaults(n int) (Params, error) {
	if p.NumRadii == 0 {
		p.NumRadii = DefaultNumRadii
	}
	if p.NumRadii < 2 {
		return p, fmt.Errorf("core: NumRadii must be ≥ 2, got %d", p.NumRadii)
	}
	if math.IsNaN(p.MaxSlope) {
		p.MaxSlope = DefaultMaxSlope
	}
	if p.MaxSlope < 0 {
		return p, fmt.Errorf("core: MaxSlope must be ≥ 0, got %v", p.MaxSlope)
	}
	if p.MaxCardinality == 0 {
		p.MaxCardinality = int(math.Ceil(float64(n) * DefaultCardinalityFraction))
		if p.MaxCardinality < 1 {
			p.MaxCardinality = 1
		}
	}
	if p.MaxCardinality < 1 {
		return p, fmt.Errorf("core: MaxCardinality must be ≥ 1, got %d", p.MaxCardinality)
	}
	if p.Cost <= 0 {
		p.Cost = 1
	}
	if p.Shards == 0 {
		p.Shards = 1
	}
	if p.Shards < 1 {
		return p, fmt.Errorf("core: Shards must be ≥ 1, got %d", p.Shards)
	}
	return p, nil
}

// Microcluster is one detected microcluster: a set of outlying elements
// that are close to each other but far from the rest (singletons have one
// member).
type Microcluster struct {
	// Members are indices into the input dataset, in increasing order.
	Members []int
	// Score is the anomaly score s_j: the average number of bits per point
	// needed to describe the microcluster in terms of its nearest inlier
	// (Def. 7). Larger is more anomalous.
	Score float64
	// Bridge is the 'Bridge's Length' ĝ(j): the smallest distance between
	// any member and that member's nearest inlier.
	Bridge float64
}

// Result is everything MCCATCH reports, including the artifacts that make
// its decisions explainable (the 'Oracle' plot, the radii, the histogram
// and the MDL cutoff).
type Result struct {
	// Microclusters, ranked most-strange-first (descending Score; ties
	// break on the smallest member index, so results are deterministic).
	Microclusters []Microcluster
	// PointScores has one score w_i > 0 per input element (Alg. 4 L21-24),
	// for applications needing a full ranking of the points.
	PointScores []float64
	// OracleX is the 1NN Distance x_i of every point (first-plateau
	// length); OracleY is the Group 1NN Distance y_i (middle-plateau
	// length, 0 when absent). Together they are the 'Oracle' plot.
	OracleX, OracleY []float64
	// Radii is the neighborhood radii schedule R (ascending; last = diameter).
	Radii []float64
	// Histogram is the Histogram of 1NN Distances (one bin per radius).
	Histogram []int
	// Cutoff is d: the minimum distance between a microcluster and its
	// nearest inlier, found by MDL partitioning (Def. 6). CutoffIndex is
	// its position in Radii.
	Cutoff      float64
	CutoffIndex int
	// Diameter is the estimated dataset diameter l.
	Diameter float64
	// Params are the hyperparameters after defaulting.
	Params Params
}

// ErrEmptyDataset is returned when Run receives no elements.
var ErrEmptyDataset = errors.New("core: empty dataset")

// Run executes MCCATCH (Alg. 1) on items under dist, indexing with a
// bulk-loaded slim-tree — the paper's choice for metric (and general)
// data.
func Run[T any](items []T, dist metric.Distance[T], params Params) (*Result, error) {
	return RunWithIndex(items, dist, SlimBuilder(dist, params), params)
}

// SlimBuilder returns the slim-tree index builder Run uses under params —
// exported so the incremental layer can freeze its segments, and build
// its Detect's full index, with exactly the builder a one-shot run would
// use, which is what makes incremental-vs-fresh equivalence exact.
func SlimBuilder[T any](dist metric.Distance[T], params Params) index.Builder[T] {
	return func(sub []T) index.Index[T] {
		return slimtree.NewWithWorkers(dist, params.TreeCapacity, sub, params.Workers)
	}
}

// RunWithIndex executes MCCATCH using a caller-supplied access method —
// e.g. a kd-tree for main-memory vector data (paper footnote 4). The
// builder is invoked for the full dataset (through BuildIndex, so
// Params.Shards > 1 cuts it into pivot Voronoi cells) and for the
// sub-sets the algorithm indexes along the way (group candidates,
// inliers).
func RunWithIndex[T any](items []T, dist metric.Distance[T], builder index.Builder[T], params Params) (*Result, error) {
	if len(items) == 0 {
		return nil, ErrEmptyDataset
	}
	return RunPrebuilt(items, BuildIndex(items, dist, builder, params, false), builder, params)
}

// RunPrebuilt is the four-step driver every detection runs: MCCATCH
// over an ALREADY-BUILT full index — fresh from RunWithIndex, held by
// the public Detector handle, or a mapping over an index file. items
// must be the indexed elements in id order; builder is used only for
// the small throwaway trees of Step III's gelling and Step IV's inlier
// index, and must match the access method of tree for the Result to be
// byte-identical with a fresh RunWithIndex over the same items (all
// backends agree on vector data, so there it only moves constants).
func RunPrebuilt[T any](items []T, tree index.Index[T], builder index.Builder[T], params Params) (*Result, error) {
	n := len(items)
	if n == 0 {
		return nil, ErrEmptyDataset
	}
	p, err := params.withDefaults(n)
	if err != nil {
		return nil, err
	}

	// Step I — define the neighborhood radii (Alg. 1 L1-3).
	l := tree.DiameterEstimate()
	res := &Result{
		PointScores: make([]float64, n),
		OracleX:     make([]float64, n),
		OracleY:     make([]float64, n),
		Diameter:    l,
		Params:      p,
	}
	if l <= 0 {
		// Zero diameter (n==1 or all duplicates): nothing can be an
		// outlier; every point gets the minimal score.
		for i := range res.PointScores {
			res.PointScores[i] = pointScore(0, 1)
		}
		return res, nil
	}
	res.Radii = MakeRadii(l, p.NumRadii)

	// Step II — build the 'Oracle' plot (Alg. 2).
	buildOraclePlot(tree, items, p, res)

	// Step III — spot the microclusters (Alg. 3).
	mcs := spotMCs(items, builder, p.Workers, res)

	// Step IV — compute the anomaly scores (Alg. 4).
	scoreMCs(items, builder, mcs, p, res)

	sortMicroclusters(res.Microclusters)
	return res, nil
}

// MakeRadii returns R = {l/2^(a-1), ..., l/2, l} (Alg. 1 L3), ascending.
func MakeRadii(l float64, a int) []float64 {
	radii := make([]float64, a)
	for e := 0; e < a; e++ {
		radii[e] = l / math.Pow(2, float64(a-1-e))
	}
	return radii
}

// sortMicroclusters orders most-strange-first with a deterministic
// tiebreak on the smallest member index.
func sortMicroclusters(mcs []Microcluster) {
	sort.SliceStable(mcs, func(i, j int) bool {
		if mcs[i].Score != mcs[j].Score {
			return mcs[i].Score > mcs[j].Score
		}
		return mcs[i].Members[0] < mcs[j].Members[0]
	})
}
