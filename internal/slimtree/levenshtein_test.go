package slimtree

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mccatch/internal/data"
	"mccatch/internal/metric"
)

// levenshteinClone has metric.Levenshtein's distances under another code
// pointer, so a tree built with it keeps the generic per-pair path.
func levenshteinClone(a, b string) float64 { return metric.Levenshtein(a, b) }

// mixedWords returns names together with the strings the prepared
// patterns cannot hold: non-ASCII words, words of 63 to 65 bytes and
// words far over 64 bytes, each with near neighbours so they meet in
// leaves and probes.
func mixedWords() []string {
	words := data.LastNames(300, 5, 2).Words
	var extra []string
	for i, w := range words[:60] {
		switch i % 4 {
		case 0:
			extra = append(extra, w+"é", "ñ"+w)
		case 1:
			long := strings.Repeat(w, 1+70/max(len(w), 1))
			extra = append(extra, long, long[1:]+"x")
		case 2:
			pad := strings.Repeat("a", 64)
			extra = append(extra, (w + pad)[:63], (w + pad)[:64], (w + pad)[:65])
		default:
			extra = append(extra, strings.ToUpper(w)+"ø"+w)
		}
	}
	return append(append(words, extra...), "")
}

// TestLevenshteinDetection pins which trees prepare patterns: string
// trees under metric.Levenshtein itself, built or opened; a clone of it
// keeps the generic path.
func TestLevenshteinDetection(t *testing.T) {
	words := data.LastNames(200, 5, 1).Words
	bulk := New(metric.Levenshtein, 8, words)
	if bulk.lp == nil || len(bulk.lp) != len(bulk.ePivot) {
		t.Fatal("bulk-loaded Levenshtein tree should prepare patterns over every pivot")
	}
	if cl := New(levenshteinClone, 8, words); cl.lp != nil {
		t.Fatal("a Levenshtein clone must keep the generic path")
	}
	if sd := New(metric.SoundexDistance, 8, words); sd.lp != nil {
		t.Fatal("another string metric must keep the generic path")
	}
	path := t.TempDir() + "/names.idx"
	if err := bulk.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	opened, err := OpenStr(path, metric.Levenshtein)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	if opened.lp == nil {
		t.Fatal("an opened Levenshtein index should prepare patterns")
	}
}

// TestLevenshteinPreparedEquivalence builds the same strings under
// metric.Levenshtein (prepared patterns) and under a clone of it (the
// generic path) and demands identical self-join counts, probe answers
// and DistCalls totals at every worker count — the contract that lets
// the prepared path replace the generic one silently. Probes run from
// `workers` goroutines at once over the shared trees.
func TestLevenshteinPreparedEquivalence(t *testing.T) {
	radii := []float64{0, 0.5, 1, 1.5, 2, 3, 4, 5, 6, 8, 11, 16, 24, 40, 80}
	sets := map[string][]string{
		"lastnames": data.LastNames(1000, 10, 1).Words,
		"mixed":     mixedWords(),
	}
	for name, words := range sets {
		pt := New(metric.Levenshtein, 0, words)
		gt := New(levenshteinClone, 0, words)
		if pt.lp == nil || gt.lp != nil {
			t.Fatalf("%s: detection failed (prepared %v, generic %v)", name, pt.lp != nil, gt.lp != nil)
		}
		if pt.DistCalls() != gt.DistCalls() {
			t.Fatalf("%s: builds made %d vs %d metric calls", name, pt.DistCalls(), gt.DistCalls())
		}
		// Queries sample the whole set, the mixed set's tail of
		// non-ASCII and long words included, plus strings from outside.
		queries := []string{"", "zzzzzzzz", "müller", strings.Repeat("kowalski", 9)}
		for i := 0; i < len(words); i += len(words) / 40 {
			queries = append(queries, words[i])
		}
		for _, workers := range []int{1, 2, 8} {
			label := fmt.Sprintf("%s workers=%d", name, workers)
			pt.ResetDistCalls()
			gt.ResetDistCalls()
			if !reflect.DeepEqual(pt.CountAllMulti(radii, workers), gt.CountAllMulti(radii, workers)) {
				t.Fatalf("%s: CountAllMulti diverges", label)
			}
			if p, g := pt.DistCalls(), gt.DistCalls(); p != g {
				t.Fatalf("%s: self-join made %d metric calls, generic %d", label, p, g)
			}
			pt.ResetDistCalls()
			gt.ResetDistCalls()
			pa, ga := probeAll(pt, queries, radii, workers), probeAll(gt, queries, radii, workers)
			for i := range queries {
				if !reflect.DeepEqual(pa[i], ga[i]) {
					t.Fatalf("%s: probes of %q diverge:\n prepared %v\n generic  %v", label, queries[i], pa[i], ga[i])
				}
			}
			if p, g := pt.DistCalls(), gt.DistCalls(); p != g {
				t.Fatalf("%s: probes made %d metric calls, generic %d", label, p, g)
			}
		}
	}
}

// probeAnswers is every probe's answer for one query.
type probeAnswers struct {
	counts []int   // RangeCount at every third radius
	ids    [][]int // RangeQueryAppend at every third radius
	multi  []int   // RangeCountMultiAppend over the schedule
}

// probeAll answers every query with every probe from `workers`
// goroutines sharing the tree.
func probeAll(tr *Tree[string], queries []string, radii []float64, workers int) []probeAnswers {
	out := make([]probeAnswers, len(queries))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += workers {
				q := queries[i]
				a := &out[i]
				for k := 0; k < len(radii); k += 3 {
					r := radii[k]
					a.counts = append(a.counts, tr.RangeCount(q, r))
					a.ids = append(a.ids, tr.RangeQueryAppend(q, r, nil))
				}
				a.multi = tr.RangeCountMultiAppend(q, radii, nil)
			}
		}(w)
	}
	wg.Wait()
	return out
}

// TestLevenshteinPreparedAllocations pins that the prepared path
// allocates nothing the generic path does not. The self-join keeps one
// pattern on each traversal unit's stack and a probe keeps its own, so a
// pattern allocated per unit, per loop or per probe fails here on any
// machine: a per-unit one adds about 400 allocations to a serial string
// pipeline of 800 names, too few for the CI alloc pin's 1.25x margin.
func TestLevenshteinPreparedAllocations(t *testing.T) {
	words := data.LastNames(400, 5, 1).Words
	pt := New(metric.Levenshtein, 0, words)
	gt := New(levenshteinClone, 0, words)
	radii := []float64{1, 2, 3, 4, 6, 8}
	join := func(tr *Tree[string]) float64 {
		return testing.AllocsPerRun(3, func() { tr.CountAllMulti(radii, 1) })
	}
	if p, g := join(pt), join(gt); p != g {
		t.Errorf("serial self-join allocates %v times, the generic path %v", p, g)
	}
	counts := make([]int, 0, len(radii)+1)
	ids := make([]int, 0, len(words))
	queries := []string{words[7], "müller", strings.Repeat("kowalski", 9)}
	if n := testing.AllocsPerRun(50, func() {
		for _, q := range queries {
			pt.RangeCount(q, 3)
			ids = pt.RangeQueryAppend(q, 3, ids[:0])
			counts = pt.RangeCountMultiAppend(q, radii, counts[:0])
		}
	}); n != 0 {
		t.Errorf("prepared probes allocate %v times per run, want 0", n)
	}
}
