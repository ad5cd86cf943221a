package baselines

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// SCiForest is the Split-selection Criterion iForest of Liu, Ting & Zhou
// (ECML 2010), the paper's clustered-anomaly-aware isolation method: trees
// split on random hyperplanes over attribute pairs, choosing among
// candidates the split with the best standard-deviation gain, which lets
// isolation surfaces wrap clustered anomalies that axis-parallel iForest
// splits leak through.
type SCiForest struct {
	Trees int
	Psi   int
	Tau   int // candidate hyperplanes per node (default 10)
	Seed  int64
}

// Name implements Detector.
func (d SCiForest) Name() string { return fmt.Sprintf("SCiForest(t=%d)", d.Trees) }

type scNode struct {
	attrs       [2]int
	coef        [2]float64
	split       float64
	size        int
	left, right *scNode
}

// Score implements Detector.
func (d SCiForest) Score(points [][]float64) []float64 {
	n := len(points)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	dim := len(points[0])
	trees := d.Trees
	if trees <= 0 {
		trees = 100
	}
	psi := d.Psi
	if psi <= 1 || psi > n {
		psi = min(256, n)
	}
	if psi < 2 || dim == 0 {
		for i := range out {
			out[i] = 0.5
		}
		return out
	}
	tau := d.Tau
	if tau <= 0 {
		tau = 10
	}
	rng := rand.New(rand.NewSource(d.Seed))
	maxDepth := int(math.Ceil(math.Log2(float64(psi))))
	forest := make([]*scNode, trees)
	for t := range forest {
		idx := rng.Perm(n)[:psi]
		forest[t] = buildSCTree(points, idx, 0, maxDepth, tau, dim, rng)
	}
	cn := avgPathLen(psi)
	for i, p := range points {
		sum := 0.0
		for _, tree := range forest {
			sum += scPathLen(tree, p, 0)
		}
		out[i] = math.Pow(2, -(sum/float64(trees))/cn)
	}
	return out
}

func buildSCTree(points [][]float64, idx []int, depth, maxDepth, tau, dim int, rng *rand.Rand) *scNode {
	if len(idx) <= 1 || depth >= maxDepth {
		return &scNode{size: len(idx)}
	}
	bestGain := -1.0
	var bestNode *scNode
	var bestL, bestR []int
	proj := make([]float64, len(idx))
	for c := 0; c < tau; c++ {
		a1 := rng.Intn(dim)
		a2 := rng.Intn(dim)
		theta := rng.Float64() * 2 * math.Pi
		c1, c2 := math.Cos(theta), math.Sin(theta)
		for k, i := range idx {
			proj[k] = c1*points[i][a1] + c2*points[i][a2]
		}
		lo, hi := proj[0], proj[0]
		for _, v := range proj {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi <= lo {
			continue
		}
		split := lo + rng.Float64()*(hi-lo)
		var l, r []int
		var sl, sr []float64
		for k, i := range idx {
			if proj[k] < split {
				l = append(l, i)
				sl = append(sl, proj[k])
			} else {
				r = append(r, i)
				sr = append(sr, proj[k])
			}
		}
		if len(l) == 0 || len(r) == 0 {
			continue
		}
		// Sdgain: reduction of pooled standard deviation.
		sdAll := stddevOf(proj)
		if sdAll == 0 {
			continue
		}
		gain := (sdAll - (stddevOf(sl)+stddevOf(sr))/2) / sdAll
		if gain > bestGain {
			bestGain = gain
			bestNode = &scNode{attrs: [2]int{a1, a2}, coef: [2]float64{c1, c2}, split: split}
			bestL, bestR = l, r
		}
	}
	if bestNode == nil {
		return &scNode{size: len(idx)}
	}
	bestNode.left = buildSCTree(points, bestL, depth+1, maxDepth, tau, dim, rng)
	bestNode.right = buildSCTree(points, bestR, depth+1, maxDepth, tau, dim, rng)
	return bestNode
}

func scPathLen(n *scNode, p []float64, depth int) float64 {
	if n.left == nil {
		return float64(depth) + avgPathLen(n.size)
	}
	v := n.coef[0]*p[n.attrs[0]] + n.coef[1]*p[n.attrs[1]]
	if v < n.split {
		return scPathLen(n.left, p, depth+1)
	}
	return scPathLen(n.right, p, depth+1)
}

// PLDOF is the pruned LDOF of Pamula, Deka & Nandi (EAIT 2011): k-means
// first prunes the points that sit close to a populous centroid (they
// cannot be top outliers), then LDOF is computed only for the surviving
// candidates; pruned points score below every candidate.
type PLDOF struct {
	K    int // clusters for the pruning phase
	KNN  int // neighbors for the LDOF phase
	Seed int64
}

// Name implements Detector.
func (d PLDOF) Name() string { return fmt.Sprintf("PLDOF(k=%d)", d.K) }

// Score implements Detector.
func (d PLDOF) Score(points [][]float64) []float64 {
	n := len(points)
	out := make([]float64, n)
	if n < 3 {
		return out
	}
	// Phase 1: k-means distances prune the safe points.
	base := KMeansMM{K: d.K, Seed: d.Seed}.Score(points)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return base[order[a]] > base[order[b]] })
	keep := n / 4
	if keep < 2 {
		keep = min(2, n)
	}
	candidates := order[:keep]

	// Phase 2: LDOF over the full dataset, evaluated for candidates only.
	ldof := LDOF{K: d.KNN}.Score(points)
	maxBase := 0.0
	for _, s := range base {
		if s > maxBase {
			maxBase = s
		}
	}
	if maxBase == 0 {
		maxBase = 1
	}
	for i := range out {
		// Pruned points keep a sub-1 score proportional to the phase-1
		// distance; candidates get 1 + LDOF so they always rank above.
		out[i] = base[i] / maxBase
	}
	for _, i := range candidates {
		out[i] = 1 + ldof[i]
	}
	return out
}

// DeepSVDD stands in for Deep SVDD (Ruff et al., ICML 2018) without a
// neural feature map: the linear-kernel SVDD optimum is the minimum
// enclosing ball, approximated by the Bădoiu–Clarkson core-set iteration;
// the score is the distance to the ball's center. The substitution keeps
// the baseline's evaluation role: a one-class boundary that misses
// microclusters near the boundary.
type DeepSVDD struct {
	Iters int
}

// Name implements Detector.
func (DeepSVDD) Name() string { return "DeepSVDD(MEB)" }

// Score implements Detector.
func (d DeepSVDD) Score(points [][]float64) []float64 {
	n := len(points)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	iters := d.Iters
	if iters <= 0 {
		iters = 100
	}
	center := append([]float64(nil), points[0]...)
	for it := 1; it <= iters; it++ {
		// Farthest point from the current center.
		far, fd := 0, -1.0
		for i, p := range points {
			if dd := euclid(center, p); dd > fd {
				far, fd = i, dd
			}
		}
		step := 1 / float64(it+1)
		for j := range center {
			center[j] += (points[far][j] - center[j]) * step
		}
	}
	for i, p := range points {
		out[i] = euclid(center, p)
	}
	return out
}

// Sparkx stands in for Sparx (Zhang, Ursekar & Akoglu, KDD 2022), the
// distributed half-space-chains detector, on a single node: K random
// projection chains each halve a random direction's range L times, and a
// point's score is its average log-inverse bin density over chains and
// depths — sparse cells at fine granularity mean anomalous points.
type Sparkx struct {
	Chains int // K projections (default 20)
	Depth  int // L halvings per chain (default 8)
	Seed   int64
}

// Name implements Detector.
func (d Sparkx) Name() string { return fmt.Sprintf("Sparkx(K=%d)", d.Chains) }

// Score implements Detector.
func (d Sparkx) Score(points [][]float64) []float64 {
	n := len(points)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	dim := len(points[0])
	chains := d.Chains
	if chains <= 0 {
		chains = 20
	}
	depth := d.Depth
	if depth <= 0 {
		depth = 8
	}
	rng := rand.New(rand.NewSource(d.Seed))
	for c := 0; c < chains; c++ {
		// Random unit direction.
		dir := make([]float64, dim)
		norm2 := 0.0
		for j := range dir {
			dir[j] = rng.NormFloat64()
			norm2 += dir[j] * dir[j]
		}
		if norm2 == 0 {
			continue
		}
		inv := 1 / math.Sqrt(norm2)
		proj := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, p := range points {
			v := 0.0
			for j := range dir {
				v += dir[j] * p[j]
			}
			proj[i] = v * inv
			if proj[i] < lo {
				lo = proj[i]
			}
			if proj[i] > hi {
				hi = proj[i]
			}
		}
		if hi <= lo {
			continue
		}
		span := hi - lo
		for l := 1; l <= depth; l++ {
			bins := 1 << l
			counts := make([]int, bins)
			cell := make([]int, n)
			for i, v := range proj {
				b := int((v - lo) / span * float64(bins))
				if b >= bins {
					b = bins - 1
				}
				cell[i] = b
				counts[b]++
			}
			for i := range points {
				out[i] += math.Log2(float64(n)/float64(counts[cell[i]])) / float64(depth*chains)
			}
		}
	}
	return out
}
