package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mccatch/internal/data"
	"mccatch/internal/index"
	"mccatch/internal/join"
	"mccatch/internal/kdtree"
	"mccatch/internal/metric"
	"mccatch/internal/rtree"
)

// The sharding layer's contract is byte-identical output for every shard
// count (mccatch.WithShards doc): the partition's counts are exact
// integer sums over its parts, so the Result must be deep-equal to the
// single-index run for shards ∈ {1, 2, 8} × workers ∈ {1, 2, 8}, on both
// tile and Voronoi cuts. Run under -race to also prove the part joins
// are race-free.

var shardCounts = []int{1, 2, 8}

// normalizedSharded strips the knobs that legitimately differ between a
// sharded and an unsharded run (the requested shard and worker counts)
// so reflect.DeepEqual compares pure output.
func normalizedSharded(r *Result) *Result {
	c := *r
	c.Params.Workers = 0
	c.Params.Shards = 0
	return &c
}

// runSharded is one detection over the index BuildIndex cuts under
// p.Shards; euclidean selects the tile cut over the Voronoi one.
func runSharded[T any](items []T, dist metric.Distance[T], builder index.Builder[T], p Params, euclidean bool) (*Result, error) {
	return RunPrebuilt(items, BuildIndex(items, dist, builder, p, euclidean), builder, p)
}

func assertShardInvariant[T any](t *testing.T, label string, items []T, dist metric.Distance[T], builderFor func(workers int) index.Builder[T], euclidean bool) {
	t.Helper()
	base, err := RunWithIndex(items, dist, builderFor(1), Params{Workers: 1})
	if err != nil {
		t.Fatalf("%s: unsharded run failed: %v", label, err)
	}
	for _, shards := range shardCounts {
		for _, workers := range []int{1, 2, 8} {
			got, err := runSharded(items, dist, builderFor(workers), Params{Workers: workers, Shards: shards}, euclidean)
			if err != nil {
				t.Fatalf("%s: shards=%d workers=%d run failed: %v", label, shards, workers, err)
			}
			if !reflect.DeepEqual(normalizedSharded(base), normalizedSharded(got)) {
				t.Errorf("%s: shards=%d workers=%d result differs from unsharded\nbase:    %s\nsharded: %s",
					label, shards, workers, summarize(base), summarize(got))
			}
		}
	}
}

func TestShardInvarianceVectorsAllBackends(t *testing.T) {
	backends := map[string]func(workers int) index.Builder[[]float64]{
		"slimtree": slimBuilder[[]float64](metric.Euclidean),
		"kdtree": func(w int) index.Builder[[]float64] {
			return func(sub [][]float64) index.Index[[]float64] { return kdtree.NewWithWorkers(sub, w) }
		},
		"rtree": func(w int) index.Builder[[]float64] {
			return func(sub [][]float64) index.Index[[]float64] { return rtree.NewWithWorkers(sub, 0, w) }
		},
	}
	trials := 2
	if testing.Short() {
		trials = 1
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(5000 + trial)))
		pts := randomVectorDataset(rng)
		for name, builderFor := range backends {
			// Tile cut (the production vector path)...
			assertShardInvariant(t, fmt.Sprintf("vectors/%s/tiles/trial%d", name, trial),
				pts, metric.Euclidean, builderFor, true)
		}
		// ...and the Voronoi cut vectors take when the metric isn't
		// declared Euclidean (one backend keeps the run time in check).
		assertShardInvariant(t, fmt.Sprintf("vectors/kdtree/voronoi/trial%d", trial),
			pts, metric.Euclidean, backends["kdtree"], false)
	}
}

func TestShardInvarianceStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	words := make([]string, 0, 240)
	for i := 0; i < 200; i++ {
		stem := []byte("microclustering")
		for j := rng.Intn(4); j > 0; j-- {
			stem[rng.Intn(len(stem))] = byte('a' + rng.Intn(26))
		}
		words = append(words, string(stem[:8+rng.Intn(7)]))
	}
	for i := 0; i < 10; i++ {
		w := make([]byte, 20+rng.Intn(10))
		for j := range w {
			w[j] = byte('0' + rng.Intn(10))
		}
		words = append(words, string(w))
	}
	assertShardInvariant(t, "strings/slimtree", words, metric.Levenshtein,
		slimBuilder[string](metric.Levenshtein), false)
}

// TestShardInvarianceDegenerate covers the edge shapes: a single point,
// all-duplicate (zero-diameter) data, and n smaller than the shard
// count.
func TestShardInvarianceDegenerate(t *testing.T) {
	for _, pts := range [][][]float64{
		{{1, 2}},
		{{3, 3}, {3, 3}, {3, 3}, {3, 3}},
		{{0, 0}, {1, 1}, {100, 100}},
	} {
		assertShardInvariant(t, fmt.Sprintf("degenerate/n%d", len(pts)),
			pts, metric.Euclidean, slimBuilder[[]float64](metric.Euclidean), true)
	}
}

// TestShardsDefaulting pins the Params.Shards contract: 0 defaults to 1
// and negatives are rejected.
func TestShardsDefaulting(t *testing.T) {
	p, err := Params{}.withDefaults(100)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards != 1 {
		t.Errorf("Shards defaulted to %d, want 1", p.Shards)
	}
	if _, err := (Params{Shards: -2}).withDefaults(100); err == nil {
		t.Error("Shards=-2 accepted, want error")
	}
}

// TestPartitionMatchesOneIndex holds the index BuildIndex cuts into
// parts to the one builder(items) gives, query by query: every answer
// the pipeline and Detector.Probe ask of a full index must be the same,
// on both cuts, every backend and every worker count.
func TestPartitionMatchesOneIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	pts := randomVectorDataset(rng)
	queries := [][]float64{{-50, -50}, {100, 100}, {225, 225}, {400, 0}}
	for i := 0; i < len(pts); i += 17 {
		queries = append(queries, pts[i])
	}
	backends := map[string]func(workers int) index.Builder[[]float64]{
		"slimtree": slimBuilder[[]float64](metric.Euclidean),
		"kdtree": func(w int) index.Builder[[]float64] {
			return func(sub [][]float64) index.Index[[]float64] { return kdtree.NewWithWorkers(sub, w) }
		},
		"rtree": func(w int) index.Builder[[]float64] {
			return func(sub [][]float64) index.Index[[]float64] { return rtree.NewWithWorkers(sub, 0, w) }
		},
	}
	for name, builderFor := range backends {
		for _, euclidean := range []bool{true, false} {
			checkPartition(t, fmt.Sprintf("vectors/%s/euclidean=%v", name, euclidean), pts, queries, metric.Euclidean, builderFor, euclidean)
		}
	}
	words := data.LastNames(300, 6, 1).Words
	wordQueries := []string{"", "smith", "kowalczykowski", "zzzz"}
	for i := 0; i < len(words); i += 23 {
		wordQueries = append(wordQueries, words[i])
	}
	checkPartition(t, "strings/slimtree", words, wordQueries, metric.Levenshtein, slimBuilder[string](metric.Levenshtein), false)
}

func checkPartition[T any](t *testing.T, label string, items, queries []T, dist metric.Distance[T], builderFor func(workers int) index.Builder[T], euclidean bool) {
	t.Helper()
	one := builderFor(1)(items)
	radii := MakeRadii(one.DiameterEstimate(), 8)
	wantAll := one.(index.SelfMultiCounter).CountAllMulti(radii, 1)
	caps := []int{2, len(items) / 10, len(items)}
	wantStaged := make([][][]int, len(caps))
	wantClipped := make([][][]int, len(caps))
	for c, cap := range caps {
		wantStaged[c] = join.SelfMultiRadiusCounts(one, items, radii, cap, true, 1)
		wantClipped[c] = join.SelfClippedCounts(one, items, radii, cap, 0.1, true, 1)
	}
	// Limits from 0 (no count) to above n, spread over the elements.
	limits := make([]int, len(items))
	for i := range limits {
		limits[i] = (i * 7) % (len(items) + 2)
	}
	wantCapped := make([][]int, len(radii))
	for e, r := range radii {
		wantCapped[e] = make([]int, len(items))
		one.(index.CappedCounter[T]).CountAllCapped(r, limits, wantCapped[e], 1)
	}
	sortedQuery := func(tr index.Index[T], q T, r float64) []int {
		ids := tr.RangeQuery(q, r)
		sort.Ints(ids)
		return ids
	}
	for _, shards := range []int{2, 8} {
		for _, workers := range []int{1, 2, 8} {
			at := fmt.Sprintf("%s shards=%d workers=%d", label, shards, workers)
			tr := BuildIndex(items, dist, builderFor(workers), Params{Shards: shards, Workers: workers}, euclidean)
			if _, ok := tr.(*partition[T]); !ok {
				t.Fatalf("%s: BuildIndex returned %T, want a partition", at, tr)
			}
			if tr.Size() != one.Size() || tr.DiameterEstimate() != one.DiameterEstimate() {
				t.Fatalf("%s: size %d, diameter %v; one index: %d, %v", at, tr.Size(), tr.DiameterEstimate(), one.Size(), one.DiameterEstimate())
			}
			for qi, q := range queries {
				for _, r := range radii {
					if got, want := tr.RangeCount(q, r), one.RangeCount(q, r); got != want {
						t.Fatalf("%s: query %d r=%v: RangeCount %d, one index %d", at, qi, r, got, want)
					}
					if got, want := sortedQuery(tr, q, r), sortedQuery(one, q, r); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: query %d r=%v: RangeQuery %v, one index %v", at, qi, r, got, want)
					}
					for _, limit := range []int{0, 1, 5, len(items)} {
						if got, want := index.RangeCountCapped(tr, q, r, limit), min(one.RangeCount(q, r), limit); got != want {
							t.Fatalf("%s: query %d r=%v limit %d: RangeCountCapped %d, want %d", at, qi, r, limit, got, want)
						}
					}
				}
				// A non-empty dst checks that the parts' curves sum past
				// what the caller already holds.
				got := index.RangeCountMultiAppend(tr, q, radii, []int{-1})
				if want := index.RangeCountMultiAppend(one, q, radii, []int{-1}); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: query %d: RangeCountMultiAppend %v, one index %v", at, qi, got, want)
				}
			}
			if got := tr.(index.SelfMultiCounter).CountAllMulti(radii, workers); !reflect.DeepEqual(got, wantAll) {
				t.Fatalf("%s: CountAllMulti differs from the one index's", at)
			}
			for e, r := range radii {
				got := make([]int, len(items))
				tr.(index.CappedCounter[T]).CountAllCapped(r, limits, got, workers)
				if !reflect.DeepEqual(got, wantCapped[e]) {
					t.Fatalf("%s: CountAllCapped at r=%v differs from the one index's", at, r)
				}
			}
			for c, cap := range caps {
				if got := join.SelfMultiRadiusCounts(tr, items, radii, cap, true, workers); !reflect.DeepEqual(got, wantStaged[c]) {
					t.Fatalf("%s: SelfMultiRadiusCounts at cap %d differs from the one index's", at, cap)
				}
				if got := join.SelfClippedCounts(tr, items, radii, cap, 0.1, true, workers); !reflect.DeepEqual(got, wantClipped[c]) {
					t.Fatalf("%s: SelfClippedCounts at cap %d differs from the one index's", at, cap)
				}
			}
		}
	}
}
