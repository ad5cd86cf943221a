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

// The staged Step II (SelfMultiRadiusCounts) must return exactly the
// matrix one CountAllMulti over the whole schedule followed by
// GateCounts gives, at EVERY split index, not just the one the sample
// decision picks. These tests force every k through the unexported
// stagedCounts.

// gatedReference is the one-traversal Step II: true counts at every
// radius, then the gating rule.
func gatedReference(smc index.SelfMultiCounter, n int, radii []float64, cap int, lastIsDiameter bool) [][]int {
	q := smc.CountAllMulti(radii, 1)
	GateCounts(q, n, cap, lastIsDiameter, 1)
	return q
}

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

// checkEverySplit runs stagedCounts at every k from 1 to one past the
// last probed radius (the one-traversal fallback) for every cap, both
// lastIsDiameter settings and workers 1, 2 and 8, against the
// one-traversal reference over the same index.
func checkEverySplit[T any](t *testing.T, label string, items []T, tr index.Index[T], radii []float64, caps []int) {
	t.Helper()
	n := len(items)
	for _, cap := range caps {
		for _, lastIsDiameter := range []bool{true, false} {
			want := gatedReference(tr.(index.SelfMultiCounter), n, radii, cap, lastIsDiameter)
			probeHi := probedRadii(len(radii), lastIsDiameter)
			for _, workers := range []int{1, 2, 8} {
				for k := 1; k <= probeHi; k++ {
					got := stagedCounts(tr, items, radii, cap, lastIsDiameter, workers, k)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: cap=%d lastIsDiameter=%v workers=%d k=%d: staged counts differ from CountAllMulti+GateCounts\ngot:  %v\nwant: %v",
							label, cap, lastIsDiameter, workers, k, got, want)
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

// selfOnly exposes a backend's self-join but hides its CrossCounter, as
// an index from a custom builder might.
type selfOnly struct{ noCross }

func (s selfOnly) CountAllMulti(radii []float64, workers int) [][]int {
	return s.inner.(index.SelfMultiCounter).CountAllMulti(radii, workers)
}

// TestStagedCountsWithoutCrossCounter pins the fallback: an index with a
// self-join but no native CrossCounter never stages, and still returns
// the reference counts through both entry points.
func TestStagedCountsWithoutCrossCounter(t *testing.T) {
	d := data.HTTPLike(0.001, 1)
	tr := rtree.New(d.Points, 0)
	hidden := selfOnly{noCross{tr}}
	radii := halvingRadii(tr.DiameterEstimate(), 15)
	cap := int(math.Ceil(0.1 * float64(len(d.Points))))
	if k := splitIndex[[]float64](tr, d.Points, radii, cap, true, 1); k >= probedRadii(len(radii), true) {
		t.Fatalf("the native R-tree should stage on this data (k=%d), or the fallback below tests nothing", k)
	}
	if k := splitIndex[[]float64](hidden, d.Points, radii, cap, true, 1); k != probedRadii(len(radii), true) {
		t.Fatalf("an index without CrossCounter got split index %d, want the one-traversal %d", k, probedRadii(len(radii), true))
	}
	want := gatedReference(tr, len(d.Points), radii, cap, true)
	for _, workers := range []int{1, 2, 8} {
		if got := SelfMultiRadiusCounts[[]float64](hidden, d.Points, radii, cap, true, workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: SelfMultiRadiusCounts without CrossCounter differs from the reference", workers)
		}
		if got := SelfMultiRadiusCounts[[]float64](tr, d.Points, radii, cap, true, workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: staged SelfMultiRadiusCounts differs from the reference", workers)
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
// SelfMultiRadiusCounts over it, and of the split decision alone.
func stepIIEvaluations[T any](dist metric.Distance[T], items []T) (full, staged, decision int64, k, probeHi int) {
	tr, calls := countingSlim(dist, items)
	radii := halvingRadii(tr.DiameterEstimate(), 15)
	cap := int(math.Ceil(0.1 * float64(len(items))))
	calls.Store(0)
	tr.CountAllMulti(radii, 1)
	full = calls.Swap(0)
	SelfMultiRadiusCounts[T](tr, items, radii, cap, true, 1)
	staged = calls.Swap(0)
	k = splitIndex[T](tr, items, radii, cap, true, 1)
	decision = calls.Swap(0)
	return full, staged, decision, k, probedRadii(len(radii), true)
}

// TestStagedCountsEvaluations pins the staging's work in metric
// evaluations, which repeat exactly on any hardware: on the HTTP scene
// it stages and saves evaluations; on Last Names no half of the sample
// is excused before the last probed radius, so it adds exactly the
// decision's probes to one CountAllMulti, within 5%.
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
