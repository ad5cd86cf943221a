package baselines

import (
	"fmt"
	"math"
)

// RDA stands in for the Robust Deep Autoencoder of Zhou & Paffenroth
// (KDD 2017): the anomaly score is the reconstruction error of the point
// under a low-rank linear autoencoder, i.e. projection onto the top-k
// principal components (a linear autoencoder's optimum is the PCA
// subspace), which keeps the detector deterministic and stdlib-only.
// Components is the latent dimensionality (Tab. II's network shrinks the
// dimension by dimdecay; k plays the same role).
type RDA struct {
	Components int
}

// Name implements Detector.
func (d RDA) Name() string { return fmt.Sprintf("RDA(k=%d)", d.Components) }

// Score implements Detector.
func (d RDA) Score(points [][]float64) []float64 {
	n := len(points)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	dim := len(points[0])
	k := d.Components
	if k <= 0 || k >= dim {
		k = maxInt(1, dim/2)
	}

	// Center the data.
	mean := make([]float64, dim)
	for _, p := range points {
		for j, v := range p {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	x := make([][]float64, n)
	for i, p := range points {
		x[i] = make([]float64, dim)
		for j, v := range p {
			x[i][j] = v - mean[j]
		}
	}

	// Top-k principal directions by power iteration with deflation.
	comps := make([][]float64, 0, k)
	for c := 0; c < k; c++ {
		v := powerIteration(x, comps)
		if v == nil {
			break
		}
		comps = append(comps, v)
	}

	// Reconstruction error: squared norm minus squared norm of the
	// projection onto the principal subspace.
	for i, xi := range x {
		total := dot(xi, xi)
		proj := 0.0
		for _, v := range comps {
			p := dot(xi, v)
			proj += p * p
		}
		e := total - proj
		if e < 0 {
			e = 0
		}
		out[i] = math.Sqrt(e)
	}
	return out
}

// powerIteration finds the dominant eigenvector of the covariance of x,
// orthogonal to the already-found components; nil when the residual
// variance vanishes.
func powerIteration(x [][]float64, prev [][]float64) []float64 {
	dim := len(x[0])
	// Deterministic start: spread over all coordinates.
	v := make([]float64, dim)
	for j := range v {
		v[j] = 1 / math.Sqrt(float64(dim)+float64(j))
	}
	orthonormalize(v, prev)
	for iter := 0; iter < 100; iter++ {
		// w = Cov·v computed as Xᵀ(Xv)/n without materializing Cov.
		xv := make([]float64, len(x))
		for i, xi := range x {
			xv[i] = dot(xi, v)
		}
		w := make([]float64, dim)
		for i, xi := range x {
			for j, xij := range xi {
				w[j] += xv[i] * xij
			}
		}
		orthonormalize(w, prev)
		nw := norm(w)
		if nw < 1e-12 {
			return nil
		}
		for j := range w {
			w[j] /= nw
		}
		// Converged when the direction stops moving.
		if math.Abs(math.Abs(dot(w, v))-1) < 1e-10 {
			return w
		}
		v = w
	}
	return v
}

// orthonormalize removes the projections of v onto each basis vector.
func orthonormalize(v []float64, basis [][]float64) {
	for _, b := range basis {
		p := dot(v, b)
		for j := range v {
			v[j] -= p * b[j]
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
