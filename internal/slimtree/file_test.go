package slimtree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"mccatch/internal/arena"
	"mccatch/internal/metric"
)

func filePoints(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.NormFloat64() * 10
		}
		pts[i] = row
	}
	return pts
}

func fileWords(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	words := make([]string, n)
	for i := range words {
		b := make([]byte, 3+rng.Intn(6))
		for j := range b {
			b[j] = byte('a' + rng.Intn(6))
		}
		words[i] = string(b)
	}
	return words
}

// fileQueryEquivalent drives every query path on both trees and demands
// identical answers.
func fileQueryEquivalent[T any](t *testing.T, label string, want, got *Tree[T], queries []T, radii []float64) {
	t.Helper()
	if want.Size() != got.Size() || want.Height() != got.Height() {
		t.Fatalf("%s: shape mismatch", label)
	}
	if d1, d2 := want.DiameterEstimate(), got.DiameterEstimate(); d1 != d2 {
		t.Errorf("%s: diameter %v vs %v", label, d1, d2)
	}
	for qi, q := range queries {
		for _, r := range radii {
			if c1, c2 := want.RangeCount(q, r), got.RangeCount(q, r); c1 != c2 {
				t.Fatalf("%s: RangeCount(q%d, %v) %d vs %d", label, qi, r, c1, c2)
			}
			if i1, i2 := want.RangeQuery(q, r), got.RangeQuery(q, r); !reflect.DeepEqual(i1, i2) {
				t.Fatalf("%s: RangeQuery(q%d, %v) mismatch", label, qi, r)
			}
		}
		if m1, m2 := want.RangeCountMulti(q, radii), got.RangeCountMulti(q, radii); !reflect.DeepEqual(m1, m2) {
			t.Fatalf("%s: RangeCountMulti(q%d) %v vs %v", label, qi, m1, m2)
		}
		i1, d1 := want.KNN(q, 5)
		i2, d2 := got.KNN(q, 5)
		if !reflect.DeepEqual(i1, i2) || !reflect.DeepEqual(d1, d2) {
			t.Fatalf("%s: KNN(q%d) mismatch", label, qi)
		}
	}
	if a1, a2 := want.CountAllMulti(radii, 2), got.CountAllMulti(radii, 2); !reflect.DeepEqual(a1, a2) {
		t.Errorf("%s: CountAllMulti mismatch", label)
	}
	if b1, b2 := want.BridgeFirsts(queries, radii, 2), got.BridgeFirsts(queries, radii, 2); !reflect.DeepEqual(b1, b2) {
		t.Errorf("%s: BridgeFirsts mismatch", label)
	}
}

func TestFileRoundTripVec(t *testing.T) {
	for _, n := range []int{1, 40, 300} {
		pts := filePoints(n, 3, int64(n))
		built := New(metric.Euclidean, 8, pts)
		queries := filePoints(8, 3, 99)
		radii := []float64{0.5, 2, 8, 32}

		path := filepath.Join(t.TempDir(), "slim.mcidx")
		if err := built.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []struct {
			label string
			opts  []arena.Option
		}{{"mmap", nil}, {"heap", []arena.Option{arena.WithHeap()}}} {
			label := fmt.Sprintf("n=%d %s", n, mode.label)
			opened, err := OpenVec(path, mode.opts...)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if opened.kc == nil {
				t.Errorf("%s: kernel column not attached", label)
			}
			fileQueryEquivalent(t, label, built, opened, queries, radii)
			var first, second bytes.Buffer
			if err := built.Save(&first); err != nil {
				t.Fatal(err)
			}
			if err := opened.Save(&second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Errorf("%s: re-save not byte-identical", label)
			}
			if err := opened.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestFileRoundTripStr(t *testing.T) {
	words := fileWords(120, 7)
	built := New(metric.Levenshtein, 8, words)
	queries := fileWords(8, 11)
	radii := []float64{1, 2, 3, 5}

	path := filepath.Join(t.TempDir(), "slimstr.mcidx")
	if err := built.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		label string
		opts  []arena.Option
	}{{"mmap", nil}, {"heap", []arena.Option{arena.WithHeap()}}} {
		opened, err := OpenStr(path, metric.Levenshtein, mode.opts...)
		if err != nil {
			t.Fatalf("%s: %v", mode.label, err)
		}
		fileQueryEquivalent(t, mode.label, built, opened, queries, radii)
		// The stored diameter must round-trip without re-running the
		// estimator: a second estimate would re-call the metric.
		before := opened.DistCalls()
		if d := opened.DiameterEstimate(); d != built.DiameterEstimate() {
			t.Errorf("%s: diameter %v vs %v", mode.label, d, built.DiameterEstimate())
		}
		if calls := opened.DistCalls() - before; calls != 0 {
			t.Errorf("%s: stored diameter still cost %d metric calls", mode.label, calls)
		}
		if err := opened.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFileRefusesUnsupported(t *testing.T) {
	// A custom Euclidean clone is not metric.Euclidean itself: the tree
	// stays unkernelized and has no faithful on-disk form.
	clone := func(a, b []float64) float64 { return metric.Euclidean(a, b) }
	tr := New(clone, 8, filePoints(10, 2, 3))
	if err := tr.Save(&bytes.Buffer{}); err == nil {
		t.Error("custom-metric vector tree saved")
	}
	// Element types beyond []float64 and string have no format at all.
	g := New(metric.GraphDistance, 8, []metric.Graph{
		metric.NewGraph(2, [][2]int{{0, 1}}),
		metric.NewGraph(3, [][2]int{{0, 1}, {1, 2}}),
	})
	if err := g.Save(&bytes.Buffer{}); err == nil {
		t.Error("graph tree saved")
	}
}

func TestFileEmptyTrees(t *testing.T) {
	for _, save := range []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return New[[]float64](metric.Euclidean, 8, nil).Save(b) },
		func(b *bytes.Buffer) error { return New[string](metric.Levenshtein, 8, nil).Save(b) },
	} {
		var buf bytes.Buffer
		if err := save(&buf); err != nil {
			t.Fatal(err)
		}
		f, err := arena.Decode(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		switch f.Kind {
		case arena.KindSlimVec:
			tr, err := FromFileVec(f)
			if err != nil || tr.Size() != 0 {
				t.Errorf("empty vec round trip: %v", err)
			}
		case arena.KindSlimStr:
			tr, err := FromFileStr(f, metric.Levenshtein)
			if err != nil || tr.Size() != 0 {
				t.Errorf("empty str round trip: %v", err)
			}
		}
	}
}

// TestFileStructuralValidation corrupts arena invariants in ways the
// checksums cannot catch (the writer recomputes CRCs over the corrupted
// slices) and checks open refuses each file rather than recursing
// forever or indexing out of bounds later.
func TestFileStructuralValidation(t *testing.T) {
	pts := filePoints(100, 2, 5)
	for name, mutate := range map[string]func(*Tree[[]float64]){
		"root parent":     func(tr *Tree[[]float64]) { tr.parent[0] = 0 },
		"root elems":      func(tr *Tree[[]float64]) { tr.elemLast[0] = 7 },
		"entry gap":       func(tr *Tree[[]float64]) { tr.entFirst[1]++ },
		"child cycle":     func(tr *Tree[[]float64]) { tr.eChild[firstInternalEntry(tr)] = 0 },
		"child overflow":  func(tr *Tree[[]float64]) { tr.eChild[firstInternalEntry(tr)] = int32(len(tr.leaf)) + 3 },
		"count mismatch":  func(tr *Tree[[]float64]) { tr.eCount[firstInternalEntry(tr)]++ },
		"leaf child":      func(tr *Tree[[]float64]) { k := firstLeafEntry(tr); tr.eChild[k] = int32(len(tr.leaf) - 1) },
		"leaf count":      func(tr *Tree[[]float64]) { tr.eCount[firstLeafEntry(tr)] = 2 },
		"pos mismatch":    func(tr *Tree[[]float64]) { tr.ePos[firstLeafEntry(tr)]++ },
		"duplicate id":    func(tr *Tree[[]float64]) { k := firstLeafEntry(tr); tr.eID[k] = tr.eID[k+1] },
		"packed mismatch": func(tr *Tree[[]float64]) { tr.leafIDs[0], tr.leafIDs[1] = tr.leafIDs[1], tr.leafIDs[0] },
		"bad capacity":    func(tr *Tree[[]float64]) { tr.capacity = 1 },
	} {
		t.Run(name, func(t *testing.T) {
			tr := New(metric.Euclidean, 4, pts)
			// Pin the diameter so Save's header pass never re-runs the
			// estimator over deliberately corrupted id columns.
			tr.diam, tr.diamValid = 1, true
			mutate(tr)
			var buf bytes.Buffer
			if err := tr.Save(&buf); err != nil {
				t.Fatal(err)
			}
			f, err := arena.Decode(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := FromFileVec(f); !errors.Is(err, arena.ErrBadIndexFile) {
				t.Errorf("corrupted %s accepted: %v", name, err)
			}
		})
	}
}

func firstInternalEntry(tr *Tree[[]float64]) int32 {
	for k, c := range tr.eChild {
		if c >= 0 {
			return int32(k)
		}
	}
	return 0
}

func firstLeafEntry(tr *Tree[[]float64]) int32 {
	for k, c := range tr.eChild {
		if c < 0 {
			return int32(k)
		}
	}
	return 0
}

func TestFileKindMismatchSlim(t *testing.T) {
	tr := New(metric.Euclidean, 8, filePoints(8, 2, 1))
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	f, err := arena.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromFileStr(f, metric.Levenshtein); !errors.Is(err, arena.ErrIndexKind) {
		t.Errorf("vec file opened as str: %v", err)
	}
}
