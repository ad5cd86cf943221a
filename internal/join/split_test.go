package join

import (
	"math"
	"testing"

	"mccatch/internal/data"
	"mccatch/internal/index"
	"mccatch/internal/metric"
	"mccatch/internal/rtree"
	"mccatch/internal/slimtree"
)

// TestSplitIndexPinned pins the split index the shipped rule picks on
// the pipeline's defaults (15 radii down from the index's diameter
// estimate, c = ⌈0.1·n⌉, b = 0.1) for fixed inputs. The choice reads
// only the input, so it is exact: on the HTTP scene it stages from r₉
// or r₁₀, on uniform 2-d data from r₁₂, and in high dimensions and on
// Last Names, where no eighth of the sample is excused before the
// second-to-last probed radius, it does not stage.
func TestSplitIndexPinned(t *testing.T) {
	vectors := func(pts [][]float64) (index.Index[[]float64], [][]float64) { return rtree.New(pts, 0), pts }
	cases := []struct {
		name  string
		build func() (index.Index[[]float64], [][]float64)
		want  int
	}{
		{"HTTPLike(0.1, 1)", func() (index.Index[[]float64], [][]float64) { return vectors(data.HTTPLike(0.1, 1).Points) }, 10},
		{"HTTPLike(0.1, 5)", func() (index.Index[[]float64], [][]float64) { return vectors(data.HTTPLike(0.1, 5).Points) }, 9},
		{"HTTPLike(0.1, 21)", func() (index.Index[[]float64], [][]float64) { return vectors(data.HTTPLike(0.1, 21).Points) }, 9},
		{"Uniform(10000, 2, 1)", func() (index.Index[[]float64], [][]float64) { return vectors(data.Uniform(10000, 2, 1).Points) }, 12},
		{"Uniform(4000, 20, 1)", func() (index.Index[[]float64], [][]float64) { return vectors(data.Uniform(4000, 20, 1).Points) }, 14},
		{"Uniform(4000, 8, 1)", func() (index.Index[[]float64], [][]float64) { return vectors(data.Uniform(4000, 8, 1).Points) }, 14},
	}
	for _, tc := range cases {
		tr, pts := tc.build()
		radii := halvingRadii(tr.DiameterEstimate(), 15)
		cap := int(math.Ceil(0.1 * float64(len(pts))))
		if k := splitIndex(tr, pts, radii, cap, 0.1, true, 2); k != tc.want {
			t.Errorf("%s: split index %d, want %d", tc.name, k, tc.want)
		}
	}
	words := data.LastNames(5000, 50, 1).Words
	tr := slimtree.New(metric.Levenshtein, 0, words)
	radii := halvingRadii(tr.DiameterEstimate(), 15)
	cap := int(math.Ceil(0.1 * float64(len(words))))
	if k := splitIndex[string](tr, words, radii, cap, 0.1, true, 2); k != 14 {
		t.Errorf("LastNames(5000, 50, 1): split index %d, want 14 (no staging)", k)
	}
}
