// Package metric defines the distance functions MCCATCH runs on. MCCATCH
// needs nothing but a metric d(a,b) between data elements — never
// coordinates — so every detector and index in this repository is generic
// over a Distance. The package ships the Lp family for vector data, the
// Levenshtein edit distance for strings, a Hausdorff distance for point
// sets (fingerprint ridges), and a graph dissimilarity for skeleton graphs,
// plus the per-space transformation costs of the paper's Def. 7.
//
// Levenshtein runs a bit-parallel recurrence (Myers 1999, Hyyrö 2003) on
// ASCII strings whose shorter side fits one 64-bit word, and a rune DP
// otherwise. Its LevenshteinPattern prepares one string for many
// evaluations; internal/slimtree uses it when a tree runs
// metric.Levenshtein itself.
package metric

import "math"

// Distance is a metric (or pseudometric) between two elements of type T.
// Implementations must be symmetric, non-negative, return 0 for identical
// arguments, and satisfy the triangle inequality — the metric-tree pruning
// in internal/slimtree relies on it.
type Distance[T any] func(a, b T) float64

// Euclidean returns the L2 distance between two equal-length vectors.
func Euclidean(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Manhattan returns the L1 distance between two equal-length vectors.
func Manhattan(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// Chebyshev returns the L∞ distance between two equal-length vectors.
func Chebyshev(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// Minkowski returns the Lp distance for p ≥ 1 between equal-length vectors.
func Minkowski(p float64) Distance[[]float64] {
	return func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			s += math.Pow(math.Abs(a[i]-b[i]), p)
		}
		return math.Pow(s, 1/p)
	}
}

// SquaredEuclidean returns the squared L2 distance. It is NOT a metric (the
// triangle inequality fails); it exists for detectors like k-means that only
// compare distances, never prune with them.
func SquaredEuclidean(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
