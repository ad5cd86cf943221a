package join

import (
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"mccatch/internal/data"
	"mccatch/internal/index"
	"mccatch/internal/kdtree"
	"mccatch/internal/metric"
	"mccatch/internal/rtree"
	"mccatch/internal/slimtree"
)

// The staged Step II (SelfClippedCounts) must return exactly the matrix
// one CountAllMulti over the whole schedule followed by GateCounts and
// ClipCounts gives, at EVERY split index, not just the one the sample
// decision picks. These tests force every k through the unexported
// stagedCounts.

// gatedReference is the one-traversal unclipped Step II: true counts at
// every radius, then the gating rule.
func gatedReference(smc index.SelfMultiCounter, n int, radii []float64, cap int, lastIsDiameter bool) [][]int {
	q := smc.CountAllMulti(radii, 1)
	GateCounts(q, n, cap, lastIsDiameter, 1)
	return q
}

// clippedReference is gatedReference followed by the clip for slope b;
// for b = +Inf, which clips nothing, it is gatedReference alone, so the
// unclipped checks never go through ClipCounts.
func clippedReference(smc index.SelfMultiCounter, n int, radii []float64, cap int, b float64, lastIsDiameter bool) [][]int {
	q := gatedReference(smc, n, radii, cap, lastIsDiameter)
	if !math.IsInf(b, 1) {
		ClipCounts(q, cap, b, lastIsDiameter, 1)
	}
	return q
}

// stagedSlopes are the slopes b the staged checks clip with: the
// strict plateau, the default, two loose ones and no clip at all.
var stagedSlopes = []float64{0, 0.1, 1, 5, math.Inf(1)}

// halvingRadii is the pipeline's schedule shape: a radii halving down
// from l.
func halvingRadii(l float64, a int) []float64 {
	radii := make([]float64, a)
	for e := a - 1; e >= 0; e-- {
		radii[e] = l
		l /= 2
	}
	return radii
}

// clusteredPoints draws n points in dim dimensions from a few Gaussian
// clusters of different spreads plus uniform noise, so counts cross a
// cap at many different radii.
func clusteredPoints(rng *rand.Rand, n, dim int) [][]float64 {
	centers := randPoints(rng, 4, dim)
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		if i%5 == 0 {
			for j := range p {
				p[j] = rng.Float64() * 100
			}
		} else {
			c, s := centers[i%4], 0.5*float64(1+i%4)
			for j := range p {
				p[j] = c[j] + rng.NormFloat64()*s
			}
		}
		pts[i] = p
	}
	return pts
}

// checkEverySplit runs stagedCounts at every k from 0 (no self-join) to
// one past the last probed radius (the one-traversal fallback) for
// every cap, every slope of stagedSlopes, both lastIsDiameter settings
// and workers 1, 2 and 8, against the one-traversal reference over the
// same index.
func checkEverySplit[T any](t *testing.T, label string, items []T, tr index.Index[T], radii []float64, caps []int) {
	t.Helper()
	n := len(items)
	for _, cap := range caps {
		for _, b := range stagedSlopes {
			for _, lastIsDiameter := range []bool{true, false} {
				want := clippedReference(tr.(index.SelfMultiCounter), n, radii, cap, b, lastIsDiameter)
				probeHi := probedRadii(len(radii), lastIsDiameter)
				for _, workers := range []int{1, 2, 8} {
					for k := 0; k <= probeHi; k++ {
						got := stagedCounts(tr, items, radii, cap, b, lastIsDiameter, workers, k)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: cap=%d b=%v lastIsDiameter=%v workers=%d k=%d: staged counts differ from CountAllMulti+GateCounts+ClipCounts\ngot:  %v\nwant: %v",
								label, cap, b, lastIsDiameter, workers, k, got, want)
						}
					}
				}
			}
		}
	}
}

func TestStagedCountsEverySplitVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := clusteredPoints(rng, 250, 2)
	for name, tr := range map[string]index.Index[[]float64]{
		"kdtree":   kdtree.New(pts),
		"rtree":    rtree.New(pts, 0),
		"slimtree": slimtree.New(metric.Euclidean, 0, pts),
	} {
		radii := halvingRadii(tr.DiameterEstimate(), 9)
		// Tight: most points are excused within a few radii. Default:
		// the pipeline's ⌈0.1·n⌉. Loose: nobody is ever excused.
		caps := []int{3, 25, len(pts)}
		checkEverySplit(t, "vectors/"+name, pts, tr, radii, caps)
	}
}

func TestStagedCountsEverySplitStrings(t *testing.T) {
	// Edit distances are integers, so a short schedule keeps every
	// radius distinct in the counts.
	words := data.LastNames(120, 3, 1).Words
	tr := slimtree.New(metric.Levenshtein, 0, words)
	radii := halvingRadii(tr.DiameterEstimate(), 7)
	checkEverySplit[string](t, "strings/slimtree", words, tr, radii, []int{2, 13, len(words)})
}

// TestStagedCountsCoincidentPoints pins both entries on coincident
// points under caps small enough that counts exceed them at the first
// radius, where a clip has no earlier count to grow from: the unclipped
// SelfMultiRadiusCounts still returns the true r₀ count of 3 for each
// of three coincident points, and every split agrees with the
// references at every slope.
func TestStagedCountsCoincidentPoints(t *testing.T) {
	pts := [][]float64{{0, 0}, {0, 0}, {0, 0}, {5, 5}, {5, 5}, {1, 0}, {9, 3}, {2, 7}}
	for name, tr := range map[string]index.Index[[]float64]{
		"kdtree":   kdtree.New(pts),
		"rtree":    rtree.New(pts, 0),
		"slimtree": slimtree.New(metric.Euclidean, 0, pts),
	} {
		radii := halvingRadii(tr.DiameterEstimate(), 6)
		for _, cap := range []int{0, 1, 2} {
			want := gatedReference(tr.(index.SelfMultiCounter), len(pts), radii, cap, true)
			for _, workers := range []int{1, 2} {
				got := SelfMultiRadiusCounts(tr, pts, radii, cap, true, workers)
				if got[0][0] != 3 || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: cap=%d workers=%d: SelfMultiRadiusCounts r₀ count %d (want 3), matrix %v, want %v", name, cap, workers, got[0][0], got, want)
				}
			}
		}
		checkEverySplit(t, "coincident/"+name, pts, tr, radii, []int{0, 1, 2})
	}
}

// selfOnly exposes a backend's self-join but hides its CrossCounter and
// CappedCounter, as an index from a custom builder might.
type selfOnly struct{ noCross }

func (s selfOnly) CountAllMulti(radii []float64, workers int) [][]int {
	return s.inner.(index.SelfMultiCounter).CountAllMulti(radii, workers)
}

// TestStagedCountsWithoutCrossCounter pins the fallback: an index with a
// self-join but neither a native CrossCounter nor a CappedCounter
// stages like a bundled tree, counting the survivors with per-item
// capped probes, and returns the reference counts through both entry
// points.
func TestStagedCountsWithoutCrossCounter(t *testing.T) {
	d := data.HTTPLike(0.001, 1)
	tr := rtree.New(d.Points, 0)
	hidden := selfOnly{noCross{tr}}
	radii := halvingRadii(tr.DiameterEstimate(), 15)
	cap := int(math.Ceil(0.1 * float64(len(d.Points))))
	k := splitIndex[[]float64](tr, d.Points, radii, cap, 0.1, true, 1)
	if k >= probedRadii(len(radii), true) {
		t.Fatalf("the native R-tree should stage on this data (k=%d), or the fallback below tests nothing", k)
	}
	if got := splitIndex[[]float64](hidden, d.Points, radii, cap, 0.1, true, 1); got != k {
		t.Fatalf("an index without CrossCounter got split index %d, the R-tree %d", got, k)
	}
	unclipped := gatedReference(tr, len(d.Points), radii, cap, true)
	clipped := clippedReference(tr, len(d.Points), radii, cap, 0.1, true)
	for _, workers := range []int{1, 2, 8} {
		for _, ix := range []struct {
			name string
			tr   index.Index[[]float64]
		}{{"SelfMultiRadiusCounts without CrossCounter", hidden}, {"staged SelfMultiRadiusCounts", tr}} {
			if got := SelfMultiRadiusCounts(ix.tr, d.Points, radii, cap, true, workers); !reflect.DeepEqual(got, unclipped) {
				t.Fatalf("workers=%d: %s differs from CountAllMulti+GateCounts", workers, ix.name)
			}
			if got := SelfClippedCounts(ix.tr, d.Points, radii, cap, 0.1, true, workers); !reflect.DeepEqual(got, clipped) {
				t.Fatalf("workers=%d: %s clipped at b = 0.1 differs from CountAllMulti+GateCounts+ClipCounts", workers, ix.name)
			}
		}
	}
}

// countingSlim builds a serial slim-tree over items whose metric counts
// every evaluation: traversals, the split decision's probes, and the
// throwaway query trees the cross joins bulk-load.
func countingSlim[T any](dist metric.Distance[T], items []T) (*slimtree.Tree[T], *atomic.Int64) {
	var calls atomic.Int64
	counted := func(a, b T) float64 {
		calls.Add(1)
		return dist(a, b)
	}
	return slimtree.NewWithWorkers(counted, 0, items, 1), &calls
}

// stepIIEvaluations returns the metric evaluations of one serial
// CountAllMulti over the pipeline's default schedule, of one serial
// SelfClippedCounts over it at the default slope, and of the split
// decision alone.
func stepIIEvaluations[T any](dist metric.Distance[T], items []T) (full, staged, decision int64, k, probeHi int) {
	tr, calls := countingSlim(dist, items)
	radii := halvingRadii(tr.DiameterEstimate(), 15)
	cap := int(math.Ceil(0.1 * float64(len(items))))
	calls.Store(0)
	tr.CountAllMulti(radii, 1)
	full = calls.Swap(0)
	SelfClippedCounts[T](tr, items, radii, cap, 0.1, true, 1)
	staged = calls.Swap(0)
	k = splitIndex[T](tr, items, radii, cap, 0.1, true, 1)
	decision = calls.Swap(0)
	return full, staged, decision, k, probedRadii(len(radii), true)
}

// TestStagedCountsEvaluations pins the staging's work in metric
// evaluations, which repeat exactly on any hardware: on the HTTP scene
// it stages and saves evaluations; on Last Names no eighth of the
// sample is excused before the second-to-last probed radius, so it adds
// exactly the decision's probes to one CountAllMulti, within 5%.
func TestStagedCountsEvaluations(t *testing.T) {
	full, staged, _, k, probeHi := stepIIEvaluations(metric.Euclidean, data.HTTPLike(0.02, 1).Points)
	if k >= probeHi {
		t.Errorf("HTTPLike(0.02): split index %d, want staging (below %d)", k, probeHi)
	}
	if staged >= full {
		t.Errorf("HTTPLike(0.02): staged Step II made %d metric evaluations, one CountAllMulti %d; want fewer", staged, full)
	}
	t.Logf("HTTPLike(0.02): k=%d, %d evaluations staged vs %d in one CountAllMulti", k, staged, full)

	full, staged, decision, k, probeHi := stepIIEvaluations(metric.Levenshtein, data.LastNames(1000, 10, 1).Words)
	if k != probeHi {
		t.Errorf("LastNames(1000, 10): split index %d, want no staging (%d)", k, probeHi)
	}
	if staged != full+decision {
		t.Errorf("LastNames(1000, 10): staged Step II made %d metric evaluations, want one CountAllMulti (%d) plus the decision (%d)", staged, full, decision)
	}
	if 100*staged > 105*full {
		t.Errorf("LastNames(1000, 10): staged Step II made %d metric evaluations, over 5%% above one CountAllMulti's %d", staged, full)
	}
	t.Logf("LastNames(1000, 10): %d evaluations staged vs %d in one CountAllMulti (decision %d)", staged, full, decision)
}
