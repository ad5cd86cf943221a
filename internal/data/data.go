// Package data generates every dataset family of the paper's Tab. III as a
// deterministic synthetic stand-in: the axiom scenarios of Fig. 2, the
// popular outlier-detection benchmarks (matched in cardinality, embedding
// dimension and outlier rate), the satellite-tile showcases, the scalability
// sets (Uniform, Diagonal), and the nondimensional sets (Last Names,
// Fingerprints, Skeletons). The originals are not redistributable and the
// module is offline; each generator's doc comment names the dataset it
// stands in for and what it matches.
//
// Every generator takes an explicit seed and is deterministic given it.
package data

import "math/rand"

// Vector is a labeled vector dataset. Labels[i] is true when point i is a
// planted outlier; Labels is nil when ground truth is unknown (the
// satellite showcases).
type Vector struct {
	Name   string
	Points [][]float64
	Labels []bool
}

// NumOutliers counts the planted outliers.
func (v *Vector) NumOutliers() int {
	n := 0
	for _, l := range v.Labels {
		if l {
			n++
		}
	}
	return n
}

// Dim returns the embedding dimension.
func (v *Vector) Dim() int {
	if len(v.Points) == 0 {
		return 0
	}
	return len(v.Points[0])
}

// gaussianPoint draws a point from N(center, σ²I) in len(center) dims.
func gaussianPoint(rng *rand.Rand, center []float64, sigma float64) []float64 {
	p := make([]float64, len(center))
	for j := range p {
		p[j] = center[j] + rng.NormFloat64()*sigma
	}
	return p
}

// uniformPoint draws a point uniformly from [lo, hi]^dim.
func uniformPoint(rng *rand.Rand, dim int, lo, hi float64) []float64 {
	p := make([]float64, dim)
	for j := range p {
		p[j] = lo + rng.Float64()*(hi-lo)
	}
	return p
}

// Uniform returns n points uniform in [0,100]^dim — the scalability dataset
// whose fractal dimension equals its embedding dimension (Fig. 7).
func Uniform(n, dim int, seed int64) *Vector {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = uniformPoint(rng, dim, 0, 100)
	}
	return &Vector{Name: "Uniform", Points: pts, Labels: make([]bool, n)}
}

// Diagonal returns n points on the main diagonal of [0,100]^dim with tiny
// jitter — the scalability dataset of fractal dimension 1 regardless of
// embedding dimension (Fig. 7).
func Diagonal(n, dim int, seed int64) *Vector {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		v := rng.Float64() * 100
		p := make([]float64, dim)
		for j := range p {
			p[j] = v + rng.NormFloat64()*1e-3
		}
		pts[i] = p
	}
	return &Vector{Name: "Diagonal", Points: pts, Labels: make([]bool, n)}
}
