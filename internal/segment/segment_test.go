package segment

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mccatch/internal/index"
	"mccatch/internal/metric"
	"mccatch/internal/rtree"
	"mccatch/internal/slimtree"
)

func rtreeBuilder(sub [][]float64) index.Index[[]float64] { return rtree.New(sub, 0) }

func slimBuilder(sub [][]float64) index.Index[[]float64] {
	return slimtree.New(metric.Euclidean, 0, sub)
}

func randPoint(rng *rand.Rand, dim int) []float64 {
	p := make([]float64, dim)
	for j := range p {
		p[j] = math.Round(rng.Float64()*40-20) / 2 // quantized, exact
	}
	return p
}

// countAt returns m's merged live-neighbor count of q within r.
func countAt(m *Mutable[[]float64], q []float64, r float64) int {
	return m.RangeCountMultiAppend(q, []float64{r}, nil)[0]
}

// checkAgainstOracle compares every merged query of m against brute force
// over the live set and against a fresh bulk build.
func checkAgainstOracle(t *testing.T, m *Mutable[[]float64], build index.Builder[[]float64], radii []float64, queries [][]float64) {
	t.Helper()
	live := m.Live()
	if m.Size() != len(live) {
		t.Fatalf("Size = %d, len(Live) = %d", m.Size(), len(live))
	}
	a := len(radii)

	for qi, q := range queries {
		// Brute-force multi-radius counts.
		want := make([]int, a)
		for _, x := range live {
			for e := sort.SearchFloat64s(radii, metric.Euclidean(q, x)); e < a; e++ {
				want[e]++
			}
		}
		// Appended after a prefix the call must leave alone.
		got := m.RangeCountMultiAppend(q, radii, []int{-1})
		if got[0] != -1 || !reflect.DeepEqual(got[1:], want) {
			t.Fatalf("query %d: RangeCountMultiAppend after [-1] = %v, brute force = %v", qi, got, want)
		}
		for e, r := range radii {
			if c := countAt(m, q, r); c != want[e] {
				t.Fatalf("query %d radius %v: single-radius count = %d, brute force = %d", qi, r, c, want[e])
			}
		}
	}

	// Diameter matches the fresh build's (radii schedules must agree).
	if len(live) > 0 {
		fresh := build(live)
		if g, w := m.DiameterEstimate(), fresh.DiameterEstimate(); g != w {
			t.Fatalf("DiameterEstimate = %v, fresh build = %v", g, w)
		}
	}
}

// TestMergedQueriesMatchBruteForce drives a random insert/delete script
// through a small-memtable Mutable (forcing several frozen segments,
// tombstones, and a live memtable) and checks every merged query at
// several checkpoints against brute force over the live set.
func TestMergedQueriesMatchBruteForce(t *testing.T) {
	for name, build := range map[string]index.Builder[[]float64]{
		"rtree": rtreeBuilder, "slimtree": slimBuilder,
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			m := NewMutable(metric.Euclidean, build, 8)
			radii := []float64{0.5, 1, 2, 4, 8, 16, 32}
			queries := make([][]float64, 6)
			for i := range queries {
				queries[i] = randPoint(rng, 2)
			}
			var handles []int64
			for step := 0; step < 120; step++ {
				if len(handles) > 0 && rng.Intn(4) == 0 {
					j := rng.Intn(len(handles))
					if !m.Delete(handles[j]) {
						t.Fatalf("step %d: Delete(%d) = false for a live handle", step, handles[j])
					}
					handles = append(handles[:j], handles[j+1:]...)
				} else {
					handles = append(handles, m.Insert(randPoint(rng, 2)))
				}
				if step%30 == 29 {
					checkAgainstOracle(t, m, build, radii, queries)
				}
			}
			if m.Segments() < 2 {
				t.Fatalf("script froze only %d segments; want ≥ 2 for a real merge", m.Segments())
			}
			checkAgainstOracle(t, m, build, radii, queries)
		})
	}
}

// TestEmptyMemtableAfterFreeze pins that queries are answered entirely
// from frozen segments when the memtable is empty.
func TestEmptyMemtableAfterFreeze(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewMutable(metric.Euclidean, rtreeBuilder, 100)
	for i := 0; i < 20; i++ {
		m.Insert(randPoint(rng, 2))
	}
	m.Freeze()
	if m.MemtableLen() != 0 || m.Segments() != 1 {
		t.Fatalf("after Freeze: memtable = %d, segments = %d", m.MemtableLen(), m.Segments())
	}
	checkAgainstOracle(t, m, rtreeBuilder, []float64{1, 4, 16}, [][]float64{{0, 0}, {9, -9}})
	m.Freeze() // no-op on empty memtable
	if m.Segments() != 1 {
		t.Fatalf("Freeze of empty memtable created a segment")
	}
}

// TestAllPointsDeletedSegment deletes every element of one frozen segment
// and checks the segment contributes nothing (and is skipped outright).
func TestAllPointsDeletedSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := NewMutable(metric.Euclidean, rtreeBuilder, 10)
	var first10 []int64
	for i := 0; i < 10; i++ {
		first10 = append(first10, m.Insert(randPoint(rng, 2)))
	}
	if m.Segments() != 1 {
		t.Fatalf("expected the cap-10 memtable to freeze, segments = %d", m.Segments())
	}
	for i := 0; i < 15; i++ {
		m.Insert(randPoint(rng, 2))
	}
	for _, h := range first10 {
		if !m.Delete(h) {
			t.Fatalf("Delete(%d) = false for a live frozen element", h)
		}
	}
	if m.Tombstones() != 10 {
		t.Fatalf("Tombstones = %d, want 10", m.Tombstones())
	}
	checkAgainstOracle(t, m, rtreeBuilder, []float64{1, 4, 16, 64}, [][]float64{{0, 0}, {-5, 5}})

	// Deleting everything leaves a working empty index.
	m2 := NewMutable(metric.Euclidean, rtreeBuilder, 4)
	var hs []int64
	for i := 0; i < 6; i++ {
		hs = append(hs, m2.Insert(randPoint(rng, 2)))
	}
	for _, h := range hs {
		m2.Delete(h)
	}
	if m2.Size() != 0 {
		t.Fatalf("Size after deleting everything = %d", m2.Size())
	}
	if got := countAt(m2, []float64{0, 0}, 100); got != 0 {
		t.Fatalf("count on empty live set = %d", got)
	}
	if d := m2.DiameterEstimate(); d != 0 {
		t.Fatalf("DiameterEstimate on empty live set = %v", d)
	}
	m2.Compact()
	if m2.Segments() != 0 || m2.Size() != 0 {
		t.Fatalf("Compact of empty live set: segments = %d size = %d", m2.Segments(), m2.Size())
	}
}

// TestDeleteThenReinsert pins handle semantics: a deleted handle stays
// dead (double Delete = false), and re-inserting the same element gets a
// fresh handle and full query visibility.
func TestDeleteThenReinsert(t *testing.T) {
	m := NewMutable(metric.Euclidean, rtreeBuilder, 4)
	p := []float64{1, 2}
	h1 := m.Insert(p)
	for i := 0; i < 6; i++ { // freeze h1's segment
		m.Insert([]float64{float64(10 + i), 0})
	}
	if !m.Delete(h1) {
		t.Fatal("Delete(h1) = false")
	}
	if m.Delete(h1) {
		t.Fatal("double Delete(h1) = true")
	}
	if m.Delete(999) {
		t.Fatal("Delete of unknown handle = true")
	}
	if got := countAt(m, p, 0.1); got != 0 {
		t.Fatalf("deleted element still counted: count = %d", got)
	}
	h2 := m.Insert(p)
	if h2 == h1 {
		t.Fatalf("reinsert returned the old handle %d", h1)
	}
	if got := countAt(m, p, 0.1); got != 1 {
		t.Fatalf("reinserted element not counted: count = %d", got)
	}
	if !m.Delete(h2) {
		t.Fatal("Delete(h2) = false")
	}
	if got := countAt(m, p, 0.1); got != 0 {
		t.Fatalf("after deleting the reinsert: count = %d", got)
	}
}

// TestQueryStraddlingCompaction pins that every query answers identically
// before and after Compact (same live set, same dense ids).
func TestQueryStraddlingCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := NewMutable(metric.Euclidean, rtreeBuilder, 6)
	var handles []int64
	for i := 0; i < 40; i++ {
		handles = append(handles, m.Insert(randPoint(rng, 2)))
	}
	for i := 0; i < 10; i++ {
		j := rng.Intn(len(handles))
		m.Delete(handles[j])
		handles = append(handles[:j], handles[j+1:]...)
	}
	radii := []float64{0.5, 2, 8, 32}
	queries := [][]float64{{0, 0}, {7, -3}, {-11, 4}}

	liveBefore := m.Live()
	counts := make([][]int, len(queries))
	for i, q := range queries {
		counts[i] = m.RangeCountMultiAppend(q, radii, nil)
	}
	diam := m.DiameterEstimate()

	m.Compact()
	if m.Segments() != 1 || m.Tombstones() != 0 || m.MemtableLen() != 0 {
		t.Fatalf("after Compact: segments=%d tombstones=%d memtable=%d",
			m.Segments(), m.Tombstones(), m.MemtableLen())
	}
	if !reflect.DeepEqual(m.Live(), liveBefore) {
		t.Fatal("Compact changed the live set or its order")
	}
	for i, q := range queries {
		if got := m.RangeCountMultiAppend(q, radii, nil); !reflect.DeepEqual(got, counts[i]) {
			t.Fatalf("query %d: counts changed across Compact: %v vs %v", i, got, counts[i])
		}
	}
	if got := m.DiameterEstimate(); got != diam {
		t.Fatalf("DiameterEstimate changed across Compact: %v vs %v", got, diam)
	}
	// Handles survive compaction.
	h := handles[0]
	if !m.Delete(h) {
		t.Fatal("Delete of a pre-compaction handle failed after Compact")
	}
}

// TestDiameterBoxPathMatchesEstimator pins the DeclareMonotone fast
// path: at every step of an insert/delete/freeze/compact history the
// box-maintained diameter must equal what the generic data-only
// estimator reports over the same live set — deletes must shrink the
// box back (lazy rebuild), and storage reorganization must not disturb
// it.
func TestDiameterBoxPathMatchesEstimator(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewMutable(metric.Euclidean, rtreeBuilder, 6) // small cap: history crosses freezes
	m.DeclareMonotone()
	plain := NewMutable(metric.Euclidean, rtreeBuilder, 6) // reference without the declaration

	check := func(step string) {
		t.Helper()
		if got, want := m.DiameterEstimate(), plain.DiameterEstimate(); got != want {
			t.Fatalf("%s: box diameter %v != estimator %v (n=%d)", step, got, want, m.Size())
		}
	}
	var handles, refHandles []int64
	check("empty")
	for i := 0; i < 120; i++ {
		p := []float64{rng.Float64() * 100, rng.Float64() * 100}
		handles = append(handles, m.Insert(p))
		refHandles = append(refHandles, plain.Insert(append([]float64(nil), p...)))
		check("insert")
		if i%7 == 6 { // delete a random live element, sometimes the extreme one
			j := rng.Intn(len(handles))
			if ok, ok2 := m.Delete(handles[j]), plain.Delete(refHandles[j]); !ok || !ok2 {
				t.Fatalf("delete of live handle failed (%v, %v)", ok, ok2)
			}
			handles = append(handles[:j], handles[j+1:]...)
			refHandles = append(refHandles[:j], refHandles[j+1:]...)
			check("delete")
		}
		if i%31 == 30 {
			m.Compact()
			plain.Compact()
			check("compact")
		}
	}
}
