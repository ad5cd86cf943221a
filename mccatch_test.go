package mccatch

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestRunVectorsEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var pts [][]float64
	for i := 0; i < 500; i++ {
		pts = append(pts, []float64{rng.NormFloat64(), rng.NormFloat64()})
	}
	// Plant a 4-point microcluster and a lone outlier.
	for i := 0; i < 4; i++ {
		pts = append(pts, []float64{40 + rng.Float64()*0.1, 40 + rng.Float64()*0.1})
	}
	pts = append(pts, []float64{-40, 40})

	res, err := RunVectors(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Microclusters) == 0 {
		t.Fatal("no microclusters found")
	}
	foundMC, foundSingle := false, false
	for _, mc := range res.Microclusters {
		if len(mc.Members) == 4 && mc.Members[0] == 500 {
			foundMC = true
		}
		if len(mc.Members) == 1 && mc.Members[0] == 504 {
			foundSingle = true
		}
	}
	if !foundMC {
		t.Errorf("planted 4-point mc not found: %v", res.Microclusters)
	}
	if !foundSingle {
		t.Errorf("planted singleton not found: %v", res.Microclusters)
	}
	if len(res.PointScores) != len(pts) {
		t.Error("missing point scores")
	}
}

func TestRunStringsEndToEnd(t *testing.T) {
	var words []string
	for i := 0; i < 30; i++ {
		words = append(words, "johnson", "jonson", "johnsen")
	}
	words = append(words, "przybyszewski")
	res, err := RunStrings(words)
	if err != nil {
		t.Fatal(err)
	}
	caught := false
	for _, mc := range res.Microclusters {
		for _, m := range mc.Members {
			if m == len(words)-1 {
				caught = true
			}
		}
	}
	if !caught {
		t.Errorf("string outlier not caught: %v", res.Microclusters)
	}
}

func TestOptionsArePassedThrough(t *testing.T) {
	pts := [][]float64{{0, 0}, {1, 1}, {2, 2}, {3, 3}, {50, 50}}
	res, err := RunVectors(pts, WithRadii(10), WithMaxSlope(0.2), WithMaxCardinality(2), WithTreeCapacity(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Params.NumRadii != 10 || res.Params.MaxSlope != 0.2 || res.Params.MaxCardinality != 2 {
		t.Errorf("options not applied: %+v", res.Params)
	}
	if len(res.Radii) != 10 {
		t.Errorf("expected 10 radii, got %d", len(res.Radii))
	}
}

func TestRunGraphs(t *testing.T) {
	// Many path graphs plus a few stars: the stars should stand out.
	var graphs []Graph
	for i := 0; i < 40; i++ {
		graphs = append(graphs, NewGraph(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}))
	}
	starStart := len(graphs)
	for i := 0; i < 2; i++ {
		graphs = append(graphs, NewGraph(8, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}, {0, 7}}))
	}
	res, err := Run(graphs, GraphDistance, WithCustomCost(4))
	if err != nil {
		t.Fatal(err)
	}
	caught := map[int]bool{}
	for _, mc := range res.Microclusters {
		for _, m := range mc.Members {
			caught[m] = true
		}
	}
	for i := starStart; i < len(graphs); i++ {
		if !caught[i] {
			t.Errorf("star graph %d not flagged; mcs=%v", i, res.Microclusters)
		}
	}
}

func TestRunPointSets(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var sets []PointSet
	for i := 0; i < 40; i++ {
		s := make(PointSet, 20)
		for j := range s {
			s[j] = []float64{float64(j) + rng.Float64()*0.05, 0}
		}
		sets = append(sets, s)
	}
	// A "partial print": only a quarter of the points.
	partial := make(PointSet, 5)
	for j := range partial {
		partial[j] = []float64{float64(j), 0}
	}
	sets = append(sets, partial)
	res, err := Run(sets, Hausdorff, WithCustomCost(2))
	if err != nil {
		t.Fatal(err)
	}
	caught := false
	for _, mc := range res.Microclusters {
		for _, m := range mc.Members {
			if m == len(sets)-1 {
				caught = true
			}
		}
	}
	if !caught {
		t.Errorf("partial point set not flagged; mcs=%v", res.Microclusters)
	}
}

func TestKDTreeIndexMatchesSlimTree(t *testing.T) {
	// Both indexes answer exact range counts, so the pipeline must produce
	// identical microclusters and scores whichever one backs it.
	rng := rand.New(rand.NewSource(9))
	var pts [][]float64
	for i := 0; i < 800; i++ {
		pts = append(pts, []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3})
	}
	for i := 0; i < 4; i++ {
		pts = append(pts, []float64{60 + rng.Float64()*0.1, 60 + rng.Float64()*0.1})
	}
	pts = append(pts, []float64{-70, 0})

	slim, err := RunVectors(pts)
	if err != nil {
		t.Fatal(err)
	}
	kd, err := RunVectorsKD(pts)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := RunVectorsR(pts)
	if err != nil {
		t.Fatal(err)
	}
	// The diameter estimates differ (pivot-based vs bounding box), so the
	// radii schedules and cutoffs can differ slightly; what must agree is
	// the recovered planted structure: the 4-point mc and the singleton.
	for name, r := range map[string]*Result{"slim": slim, "kd": kd, "r": rt} {
		var gotMC, gotSingle bool
		for _, mc := range r.Microclusters {
			if len(mc.Members) == 4 && mc.Members[0] == 800 {
				gotMC = true
			}
			if len(mc.Members) == 1 && mc.Members[0] == 804 {
				gotSingle = true
			}
		}
		if !gotMC || !gotSingle {
			t.Errorf("%s-tree run missed planted structure: mc=%v single=%v (mcs=%v)",
				name, gotMC, gotSingle, r.Microclusters)
		}
	}
}

// TestRunVectorsDefaultBackend pins the backend dispatch of RunVectors:
// by default it runs on the R-tree (byte-identical to RunVectorsR), a
// slim-specific option pins it back to the slim-tree (byte-identical to
// RunVectorsSlim with the same option), and RunVectorsSlim is the
// always-slim path (byte-identical to the generic Run under the
// Euclidean metric with the vector cost).
func TestRunVectorsDefaultBackend(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var pts [][]float64
	for i := 0; i < 300; i++ {
		pts = append(pts, []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3})
	}
	pts = append(pts, []float64{55, 55})

	def, err := RunVectors(pts)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := RunVectorsR(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def, rt) {
		t.Error("RunVectors must run on the R-tree by default (Result differs from RunVectorsR)")
	}

	slim, err := RunVectorsSlim(pts, WithTreeCapacity(16))
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := RunVectors(pts, WithTreeCapacity(16))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(slim, pinned) {
		t.Error("a slim-specific option must pin RunVectors to the slim-tree")
	}

	gen, err := Run(pts, Euclidean, WithVectorCost(2))
	if err != nil {
		t.Fatal(err)
	}
	slimPlain, err := RunVectorsSlim(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gen, slimPlain) {
		t.Error("RunVectorsSlim must match the generic slim-tree Run")
	}

	// And the backends agree on the detected structure end to end.
	if !reflect.DeepEqual(def.Microclusters, slimPlain.Microclusters) {
		t.Error("R-tree and slim-tree runs disagree on the microclusters")
	}
}

func TestRunVectorsRejectsBadInput(t *testing.T) {
	if _, err := RunVectors([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged dimensions should error")
	}
	if _, err := RunVectors([][]float64{{1, math.NaN()}, {3, 4}}); err == nil {
		t.Error("NaN values should error")
	}
	if _, err := RunVectors([][]float64{{1, 2}, {math.Inf(1), 4}}); err == nil {
		t.Error("Inf values should error")
	}
	if _, err := RunVectorsKD([][]float64{{1}, {2, 3}}); err == nil {
		t.Error("KD variant should validate too")
	}
	if _, err := RunVectors(nil); err == nil {
		t.Error("empty input should error")
	}
}

func TestRunTreesWithEditDistance(t *testing.T) {
	// Rooted skeleton trees under the exact Zhang-Shasha distance: the
	// quadrupeds must be flagged among the bipeds.
	mk := func(arms, legs int, tail bool) *MetricTree {
		root := &MetricTree{Label: 't'}
		chain := func(l rune, n int) *MetricTree {
			t := &MetricTree{Label: l}
			cur := t
			for i := 1; i < n; i++ {
				c := &MetricTree{Label: l}
				cur.Children = []*MetricTree{c}
				cur = c
			}
			return t
		}
		for i := 0; i < arms; i++ {
			root.Children = append(root.Children, chain('a', 3))
		}
		for i := 0; i < legs; i++ {
			root.Children = append(root.Children, chain('l', 3))
		}
		if tail {
			root.Children = append(root.Children, chain('q', 3))
		}
		return root
	}
	var trees []*MetricTree
	for i := 0; i < 40; i++ {
		trees = append(trees, mk(2, 2, false)) // bipeds
	}
	wildStart := len(trees)
	trees = append(trees, mk(0, 4, true), mk(0, 4, true)) // quadrupeds with tails
	res, err := Run(trees, TreeEditDistance, WithCustomCost(3))
	if err != nil {
		t.Fatal(err)
	}
	caught := map[int]bool{}
	for _, mc := range res.Microclusters {
		for _, m := range mc.Members {
			caught[m] = true
		}
	}
	for i := wildStart; i < len(trees); i++ {
		if !caught[i] {
			t.Errorf("quadruped tree %d not flagged; mcs=%v", i, res.Microclusters)
		}
	}
}

// TestWithWorkersIdenticalResults exercises the public plumbing of the
// concurrency option end to end: for each Run* entry point, WithWorkers(k)
// must return a Result deep-equal to the serial run (the exhaustive
// per-backend property tests live in internal/core; this guards the
// Option → Params → builder wiring).
func TestWithWorkersIdenticalResults(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var pts [][]float64
	for i := 0; i < 900; i++ {
		pts = append(pts, []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3})
	}
	for i := 0; i < 3; i++ {
		pts = append(pts, []float64{55 + rng.Float64()*0.1, 55 + rng.Float64()*0.1})
	}
	words := []string{"anna", "anne", "annie", "anna", "hannah", "ann", "anina",
		"bob", "bobby", "robert", "roberta", "xqzwjvk9017253"}

	runs := map[string]func(k int) (*Result, error){
		"RunVectors":   func(k int) (*Result, error) { return RunVectors(pts, WithWorkers(k)) },
		"RunVectorsKD": func(k int) (*Result, error) { return RunVectorsKD(pts, WithWorkers(k)) },
		"RunVectorsR":  func(k int) (*Result, error) { return RunVectorsR(pts, WithWorkers(k)) },
		"RunStrings":   func(k int) (*Result, error) { return RunStrings(words, WithWorkers(k)) },
	}
	for name, run := range runs {
		serial, err := run(1)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		for _, k := range []int{2, 8} {
			par, err := run(k)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, k, err)
			}
			serial.Params.Workers, par.Params.Workers = 0, 0
			if !reflect.DeepEqual(serial, par) {
				t.Errorf("%s: workers=%d differs from serial", name, k)
			}
		}
	}
}
