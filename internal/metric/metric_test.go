package metric

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func vecs(rng *rand.Rand, dim int) ([]float64, []float64, []float64) {
	a := make([]float64, dim)
	b := make([]float64, dim)
	c := make([]float64, dim)
	for i := 0; i < dim; i++ {
		a[i] = rng.NormFloat64() * 10
		b[i] = rng.NormFloat64() * 10
		c[i] = rng.NormFloat64() * 10
	}
	return a, b, c
}

// checkMetricAxioms verifies symmetry, identity, non-negativity and the
// triangle inequality on random triples.
func checkMetricAxioms(t *testing.T, name string, d Distance[[]float64]) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		dim := 1 + rng.Intn(8)
		a, b, c := vecs(rng, dim)
		if d(a, a) != 0 {
			t.Fatalf("%s: d(a,a) = %v != 0", name, d(a, a))
		}
		if math.Abs(d(a, b)-d(b, a)) > 1e-9 {
			t.Fatalf("%s: not symmetric", name)
		}
		if d(a, b) < 0 {
			t.Fatalf("%s: negative distance", name)
		}
		if d(a, c) > d(a, b)+d(b, c)+1e-9 {
			t.Fatalf("%s: triangle inequality violated: d(a,c)=%v > %v", name, d(a, c), d(a, b)+d(b, c))
		}
	}
}

func TestMetricAxioms(t *testing.T) {
	checkMetricAxioms(t, "Euclidean", Euclidean)
	checkMetricAxioms(t, "Manhattan", Manhattan)
	checkMetricAxioms(t, "Chebyshev", Chebyshev)
	checkMetricAxioms(t, "Minkowski(3)", Minkowski(3))
	checkMetricAxioms(t, "Minkowski(1.5)", Minkowski(1.5))
}

func TestEuclideanKnownValues(t *testing.T) {
	if got := Euclidean([]float64{0, 0}, []float64{3, 4}); got != 5 {
		t.Errorf("Euclidean 3-4-5 = %v", got)
	}
	if got := Manhattan([]float64{1, 2}, []float64{4, 6}); got != 7 {
		t.Errorf("Manhattan = %v, want 7", got)
	}
	if got := Chebyshev([]float64{1, 2}, []float64{4, 6}); got != 4 {
		t.Errorf("Chebyshev = %v, want 4", got)
	}
}

func TestMinkowskiLimits(t *testing.T) {
	a := []float64{0, 0, 0}
	b := []float64{1, 2, 3}
	if math.Abs(Minkowski(1)(a, b)-Manhattan(a, b)) > 1e-9 {
		t.Error("Minkowski(1) != Manhattan")
	}
	if math.Abs(Minkowski(2)(a, b)-Euclidean(a, b)) > 1e-9 {
		t.Error("Minkowski(2) != Euclidean")
	}
}

func TestLevenshteinKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"smith", "smyth", 1},
		{"garcía", "garcia", 1}, // multibyte rune counts as one edit
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinMetricAxioms(t *testing.T) {
	f := func(a, b, c string) bool {
		if len(a) > 24 {
			a = a[:24]
		}
		if len(b) > 24 {
			b = b[:24]
		}
		if len(c) > 24 {
			c = c[:24]
		}
		dab := Levenshtein(a, b)
		dba := Levenshtein(b, a)
		dac := Levenshtein(a, c)
		dbc := Levenshtein(b, c)
		return dab == dba && Levenshtein(a, a) == 0 && dac <= dab+dbc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// levenshteinReference is the two-row rune DP: the Wagner–Fischer
// recurrence over converted rune slices, with both DP rows on the heap.
// It is the oracle that Levenshtein's single-row DP, its bit-parallel
// form and LevenshteinPattern must all match.
func levenshteinReference(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return float64(len(rb))
	}
	if len(rb) == 0 {
		return float64(len(ra))
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			sub := prev[j-1]
			if ra[i-1] != rb[j-1] {
				sub++
			}
			del := prev[j] + 1
			ins := cur[j-1] + 1
			m := sub
			if del < m {
				m = del
			}
			if ins < m {
				m = ins
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return float64(prev[len(rb)])
}

// randomWord draws a word of up to maxLen runes from a small alphabet
// mixing ASCII, Latin-1, Greek, CJK and an astral-plane rune, so random
// pairs share characters often enough for nontrivial alignments.
func randomWord(rng *rand.Rand, maxLen int) string {
	alphabet := []rune("abcdeéñçαβ漢字😀")
	w := make([]rune, rng.Intn(maxLen+1))
	for i := range w {
		w[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(w)
}

func TestLevenshteinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 3000; trial++ {
		// Every 10th pair draws words well past the stack buffers.
		maxLen := 12
		if trial%10 == 0 {
			maxLen = 3 * levenshteinStackRunes
		}
		a, b := randomWord(rng, maxLen), randomWord(rng, maxLen)
		if trial%7 == 0 {
			a = ""
		}
		if got, want := Levenshtein(a, b), levenshteinReference(a, b); got != want {
			t.Fatalf("Levenshtein(%q, %q) = %v, reference = %v", a, b, got, want)
		}
		if got, want := Levenshtein(b, a), levenshteinReference(b, a); got != want {
			t.Fatalf("Levenshtein(%q, %q) = %v, reference = %v", b, a, got, want)
		}
	}
	// Invalid UTF-8 decodes to one U+FFFD per bad byte in both.
	for _, p := range [][2]string{{"\xff\xfe", "\xff"}, {"a\xc3", "a\uFFFD"}, {"\xe6\xbc", "漢"}} {
		if got, want := Levenshtein(p[0], p[1]), levenshteinReference(p[0], p[1]); got != want {
			t.Errorf("Levenshtein(%q, %q) = %v, reference = %v", p[0], p[1], got, want)
		}
	}
}

// TestLevenshteinASCIIMatchesReference runs random ASCII pairs over a
// five-letter alphabet on both sides of the 64-byte pattern limit, one
// shot and through one LevenshteinPattern reset for every pair, against
// levenshteinReference.
func TestLevenshteinASCIIMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	word := func() string {
		w := make([]byte, rng.Intn(80))
		for i := range w {
			w[i] = "abcde"[rng.Intn(5)]
		}
		return string(w)
	}
	var p LevenshteinPattern
	for trial := 0; trial < 2000; trial++ {
		a, b := word(), word()
		want := levenshteinReference(a, b)
		if got := Levenshtein(a, b); got != want {
			t.Fatalf("Levenshtein(%q, %q) = %v, reference = %v", a, b, got, want)
		}
		p.Reset(a)
		if got := p.Dist(b); got != want {
			t.Fatalf("pattern %q: Dist(%q) = %v, reference = %v", a, b, got, want)
		}
	}
}

func TestLevenshteinAllocationFree(t *testing.T) {
	// b at exactly the stack limit; a is not bounded.
	long := strings.Repeat("ab", levenshteinStackRunes/2)
	longer := long + long
	var p LevenshteinPattern
	if n := testing.AllocsPerRun(100, func() {
		Levenshtein("brzezinski", "breszinsky")
		Levenshtein("漢字😀", "")
		Levenshtein(longer, long)
		Levenshtein("garcía", "garcia")
		// A prepared pattern: bit-parallel, the DP fallback for a
		// non-ASCII text, and the one-shot fallback for a pattern that
		// is too long or non-ASCII.
		p.Reset("brzezinski")
		p.Dist("breszinsky")
		p.Dist("garcía")
		p.Reset(longer)
		p.Dist(long)
		p.Reset("漢字")
		p.Dist("brzezinski")
	}); n != 0 {
		t.Errorf("Levenshtein allocates %v times per run, want 0", n)
	}
}

// fuzzLevCap bounds each fuzzed string, in bytes, so the quadratic
// reference stays cheap; it is well past the 64-byte pattern limit.
const fuzzLevCap = 200

// FuzzLevenshtein checks Levenshtein in both argument orders against
// levenshteinReference, and one LevenshteinPattern reused across
// successive resets: the longer input, then the shorter, then a
// non-ASCII string, then the longer input again. A reset that leaves the
// previous string's table entries behind corrupts the next distance, so
// every prepared string is checked against both inputs and itself.
//
// The committed corpus (testdata/fuzz/FuzzLevenshtein) covers empty
// strings, invalid UTF-8, non-ASCII text against an ASCII pattern, and
// strings of 63, 64 and 65 bytes around the one-word limit. The nightly
// workflow runs this target for 20s.
func FuzzLevenshtein(f *testing.F) {
	f.Add("kitten", "sitting")
	f.Add("", "abc")
	f.Add("garcía", "garcia")
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > fuzzLevCap {
			a = a[:fuzzLevCap]
		}
		if len(b) > fuzzLevCap {
			b = b[:fuzzLevCap]
		}
		if got, want := Levenshtein(a, b), levenshteinReference(a, b); got != want {
			t.Fatalf("Levenshtein(%q, %q) = %v, reference = %v", a, b, got, want)
		}
		if got, want := Levenshtein(b, a), levenshteinReference(b, a); got != want {
			t.Fatalf("Levenshtein(%q, %q) = %v, reference = %v", b, a, got, want)
		}
		long, short := a, b
		if len(long) < len(short) {
			long, short = short, long
		}
		var p LevenshteinPattern
		for _, s := range []string{long, short, short + "ñ", long} {
			p.Reset(s)
			for _, x := range []string{a, b, s} {
				if got, want := p.Dist(x), levenshteinReference(s, x); got != want {
					t.Fatalf("pattern %q: Dist(%q) = %v, reference = %v", s, x, got, want)
				}
			}
		}
	})
}

func TestHausdorffKnownValues(t *testing.T) {
	a := PointSet{{0, 0}, {1, 0}}
	b := PointSet{{0, 0}, {1, 0}}
	if got := Hausdorff(a, b); got != 0 {
		t.Errorf("identical sets: %v", got)
	}
	c := PointSet{{0, 0}, {4, 0}}
	if got := Hausdorff(a, c); got != 3 {
		t.Errorf("Hausdorff = %v, want 3", got)
	}
	// Asymmetric nearest distances: directed distances differ, metric takes max.
	d := PointSet{{0, 0}}
	e := PointSet{{0, 0}, {10, 0}}
	if got := Hausdorff(d, e); got != 10 {
		t.Errorf("Hausdorff = %v, want 10", got)
	}
}

func TestHausdorffEmptySets(t *testing.T) {
	if got := Hausdorff(nil, nil); got != 0 {
		t.Errorf("H(∅,∅) = %v, want 0", got)
	}
	a := PointSet{{0, 0}, {3, 4}}
	if got := Hausdorff(a, nil); got != 5 {
		t.Errorf("H(A,∅) = %v, want diameter 5", got)
	}
	if got := Hausdorff(nil, PointSet{{1, 1}}); got != 1 {
		t.Errorf("H(∅,{p}) = %v, want 1 fallback", got)
	}
}

func TestHausdorffSymmetryAndTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	randSet := func() PointSet {
		n := 1 + rng.Intn(6)
		s := make(PointSet, n)
		for i := range s {
			s[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
		}
		return s
	}
	for trial := 0; trial < 100; trial++ {
		a, b, c := randSet(), randSet(), randSet()
		if math.Abs(Hausdorff(a, b)-Hausdorff(b, a)) > 1e-9 {
			t.Fatal("Hausdorff not symmetric")
		}
		if Hausdorff(a, c) > Hausdorff(a, b)+Hausdorff(b, c)+1e-9 {
			t.Fatal("Hausdorff triangle inequality violated")
		}
	}
}

func TestGraphDistanceBasics(t *testing.T) {
	path3 := NewGraph(3, [][2]int{{0, 1}, {1, 2}})
	path3b := NewGraph(3, [][2]int{{2, 1}, {1, 0}}) // same graph, relabeled
	tri := NewGraph(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	if GraphDistance(path3, path3b) != 0 {
		t.Error("relabeled isomorphic graphs should be at distance 0")
	}
	if GraphDistance(path3, tri) == 0 {
		t.Error("path and triangle should differ")
	}
	if GraphDistance(path3, tri) != GraphDistance(tri, path3) {
		t.Error("GraphDistance not symmetric")
	}
}

func TestGraphDistanceTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randGraph := func() Graph {
		n := 2 + rng.Intn(8)
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.4 {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		return NewGraph(n, edges)
	}
	for trial := 0; trial < 200; trial++ {
		a, b, c := randGraph(), randGraph(), randGraph()
		if GraphDistance(a, c) > GraphDistance(a, b)+GraphDistance(b, c)+1e-9 {
			t.Fatal("GraphDistance triangle inequality violated")
		}
		if GraphDistance(a, a) != 0 {
			t.Fatal("GraphDistance(a,a) != 0")
		}
	}
}

func TestGraphNumEdges(t *testing.T) {
	g := NewGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if g.NumEdges() != 4 {
		t.Errorf("NumEdges = %d, want 4", g.NumEdges())
	}
	if NewGraph(3, nil).NumEdges() != 0 {
		t.Error("empty graph should have 0 edges")
	}
}

func TestTransformationCosts(t *testing.T) {
	if VectorCost(3) != 3 {
		t.Errorf("VectorCost(3) = %v", VectorCost(3))
	}
	if VectorCost(0) != 1 {
		t.Errorf("VectorCost(0) should clamp to 1, got %v", VectorCost(0))
	}
	wc := WordCost(26, 12)
	if wc <= 0 {
		t.Errorf("WordCost should be positive, got %v", wc)
	}
	if CustomCost(-2) != 1 {
		t.Errorf("CustomCost should clamp nonpositive to 1")
	}
	if CustomCost(7.5) != 7.5 {
		t.Errorf("CustomCost(7.5) = %v", CustomCost(7.5))
	}
}

func TestSquaredEuclidean(t *testing.T) {
	if got := SquaredEuclidean([]float64{0, 0}, []float64{3, 4}); got != 25 {
		t.Errorf("SquaredEuclidean = %v, want 25", got)
	}
}
