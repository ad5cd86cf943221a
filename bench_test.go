// Benchmarks regenerating every table and figure of the paper's evaluation
// (Sec. V) at CI-friendly scales, plus micro-benchmarks of the substrates
// and the ablations called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks print their table/series via b.Log on the
// first iteration; cmd/experiments regenerates the full-size versions.
package mccatch_test

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"mccatch"
	"mccatch/internal/data"
	"mccatch/internal/eval"
	"mccatch/internal/experiments"
	"mccatch/internal/fractal"
	"mccatch/internal/index"
	"mccatch/internal/join"
	"mccatch/internal/kdtree"
	"mccatch/internal/kernel"
	"mccatch/internal/metric"
	"mccatch/internal/rtree"
	"mccatch/internal/segment"
	"mccatch/internal/slimtree"
)

func benchConfig() experiments.Config {
	return experiments.Config{Scale: 0.004, Seed: 1, Runs: 1}
}

// logged runs an experiment printer once per iteration and logs the first
// output so `-v` shows the regenerated rows.
func logged(b *testing.B, f func(buf *bytes.Buffer)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		f(&buf)
		if i == 0 {
			b.Log(buf.String())
		}
	}
}

// --- One benchmark per table ---

func BenchmarkTable1Specs(b *testing.B) {
	logged(b, func(buf *bytes.Buffer) { experiments.Table1Specs(buf) })
}

func BenchmarkTable2Hyperparams(b *testing.B) {
	logged(b, func(buf *bytes.Buffer) { experiments.Table2Hyperparams(buf) })
}

func BenchmarkTable3Datasets(b *testing.B) {
	logged(b, func(buf *bytes.Buffer) { experiments.Table3Datasets(buf, benchConfig()) })
}

func BenchmarkTable4Accuracy(b *testing.B) {
	logged(b, func(buf *bytes.Buffer) { experiments.AccuracyReport(buf, benchConfig()) })
}

func BenchmarkTable5Axioms(b *testing.B) {
	logged(b, func(buf *bytes.Buffer) { experiments.Table5Axioms(buf, benchConfig(), 3) })
}

func BenchmarkTable6Runtime(b *testing.B) {
	logged(b, func(buf *bytes.Buffer) { experiments.Table6Runtime(buf, benchConfig()) })
}

// --- One benchmark per figure ---

func BenchmarkFig1Showcase(b *testing.B) {
	logged(b, func(buf *bytes.Buffer) { experiments.Fig1Showcase(buf, benchConfig()) })
}

func BenchmarkFig2Axioms(b *testing.B) {
	logged(b, func(buf *bytes.Buffer) { experiments.Fig2Axioms(buf, benchConfig()) })
}

func BenchmarkFig3OraclePlot(b *testing.B) {
	logged(b, func(buf *bytes.Buffer) { experiments.Fig3OraclePlot(buf, benchConfig()) })
}

func BenchmarkFig7Scalability(b *testing.B) {
	logged(b, func(buf *bytes.Buffer) { experiments.Fig7Scalability(buf, benchConfig(), 4000) })
}

func BenchmarkFig8Showcase(b *testing.B) {
	logged(b, func(buf *bytes.Buffer) { experiments.Fig8Showcase(buf, benchConfig()) })
}

func BenchmarkFig9Sensitivity(b *testing.B) {
	logged(b, func(buf *bytes.Buffer) { experiments.Fig9Sensitivity(buf, benchConfig()) })
}

// Beyond the paper: the full detector roster, including the Tab. I methods
// the paper lists but does not benchmark.
func BenchmarkExtendedAccuracy(b *testing.B) {
	logged(b, func(buf *bytes.Buffer) { experiments.ExtendedAccuracy(buf, benchConfig()) })
}

// --- Core pipeline at increasing sizes (the Fig. 7 microscope) ---

func benchPipeline(b *testing.B, n, dim int) {
	b.Helper()
	b.ReportAllocs()
	pts := data.Uniform(n, dim, 1).Points
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mccatch.RunVectors(pts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineN1k2d(b *testing.B)  { benchPipeline(b, 1000, 2) }
func BenchmarkPipelineN4k2d(b *testing.B)  { benchPipeline(b, 4000, 2) }
func BenchmarkPipelineN16k2d(b *testing.B) { benchPipeline(b, 16000, 2) }
func BenchmarkPipelineN4k20d(b *testing.B) { benchPipeline(b, 4000, 20) }

// --- Serial vs parallel pairs (the WithWorkers speedup microscope) ---
//
// Each pair runs the identical workload once pinned to a single worker and
// once across all cores; compare the pair's ns/op to read the speedup. On
// a machine with ≥ 4 cores the parallel RunVectors on 10k points runs ≥ 2×
// faster than its serial twin.

func benchPipelineWorkers(b *testing.B, n, dim, workers int) {
	b.Helper()
	b.ReportAllocs()
	pts := data.Uniform(n, dim, 1).Points
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mccatch.RunVectors(pts, mccatch.WithWorkers(workers)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineN10k2dSerial(b *testing.B)   { benchPipelineWorkers(b, 10000, 2, 1) }
func BenchmarkPipelineN10k2dParallel(b *testing.B) { benchPipelineWorkers(b, 10000, 2, 0) }
func BenchmarkPipelineN4k20dSerial(b *testing.B)   { benchPipelineWorkers(b, 4000, 20, 1) }
func BenchmarkPipelineN4k20dParallel(b *testing.B) { benchPipelineWorkers(b, 4000, 20, 0) }

// --- Shard-parallel pipeline (the WithShards microscope) ---
//
// The identical 10k x 2d workload as the Parallel pair above, run
// through the sharded entry point: Sharded1 routes through the exact
// same single-index pipeline (WithShards(1) is the default path), so
// the CI pair gate 'Sharded1 < 1.1*Parallel' pins the option's
// dispatch overhead near zero, while the 2- and 8-shard cells price
// the partition build plus the cross-shard merge. Results are
// deep-equal across all four benchmarks — only the work layout moves.

func benchPipelineSharded(b *testing.B, shards int) {
	b.Helper()
	b.ReportAllocs()
	pts := data.Uniform(10000, 2, 1).Points
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mccatch.RunVectors(pts, mccatch.WithShards(shards)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineSharded1(b *testing.B) { benchPipelineSharded(b, 1) }
func BenchmarkPipelineSharded2(b *testing.B) { benchPipelineSharded(b, 2) }
func BenchmarkPipelineSharded8(b *testing.B) { benchPipelineSharded(b, 8) }

func benchKDPipelineWorkers(b *testing.B, n, dim, workers int) {
	b.Helper()
	b.ReportAllocs()
	pts := data.Uniform(n, dim, 1).Points
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mccatch.RunVectorsKD(pts, mccatch.WithWorkers(workers)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineKDN10k2dSerial(b *testing.B)   { benchKDPipelineWorkers(b, 10000, 2, 1) }
func BenchmarkPipelineKDN10k2dParallel(b *testing.B) { benchKDPipelineWorkers(b, 10000, 2, 0) }

func BenchmarkKDTreeBuild100kSerial(b *testing.B)   { benchKDBuild(b, 1) }
func BenchmarkKDTreeBuild100kParallel(b *testing.B) { benchKDBuild(b, 0) }

func benchKDBuild(b *testing.B, workers int) {
	b.Helper()
	b.ReportAllocs()
	pts := randPoints(100000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kdtree.NewWithWorkers(pts, workers)
	}
}

func BenchmarkRTreeBuild100kSerial(b *testing.B)   { benchRBuild(b, 1) }
func BenchmarkRTreeBuild100kParallel(b *testing.B) { benchRBuild(b, 0) }

func benchRBuild(b *testing.B, workers int) {
	b.Helper()
	b.ReportAllocs()
	pts := randPoints(100000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rtree.NewWithWorkers(pts, 0, workers)
	}
}

// BenchmarkPipelineStrings exercises the nondimensional path end to end.
func BenchmarkPipelineStrings(b *testing.B) {
	b.ReportAllocs()
	d := data.LastNames(800, 12, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mccatch.RunStrings(d.Words); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineStringsSerial is BenchmarkPipelineStrings on one
// worker, so its allocs/op do not depend on the runner's cores. CI pins
// them. The slim-tree's prepared Levenshtein patterns live on the
// traversal's stack: one allocated per preparation multiplies the count
// here, while internal/slimtree's TestLevenshteinPreparedAllocations
// pins the per-unit and per-probe cases exactly.
func BenchmarkPipelineStringsSerial(b *testing.B) {
	b.ReportAllocs()
	d := data.LastNames(800, 12, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mccatch.RunStrings(d.Words, mccatch.WithWorkers(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benchmarks ---

func randPoints(n, dim int) [][]float64 {
	rng := rand.New(rand.NewSource(7))
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.Float64() * 100
		}
		pts[i] = p
	}
	return pts
}

// The build pair the CI bench gate watches: the bulk load must stay well
// ahead of the incremental insert path it replaced as the default.
func BenchmarkSlimTreeBuildInsert10k(b *testing.B) {
	b.ReportAllocs()
	pts := randPoints(10000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slimtree.New(metric.Euclidean, 0, pts)
	}
}

func BenchmarkSlimTreeBuildBulk10k(b *testing.B) {
	b.ReportAllocs()
	pts := randPoints(10000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slimtree.NewBulk(metric.Euclidean, 0, pts)
	}
}

// BenchmarkSlimTreeBuildBulk4k is the scale where the bulk loader's
// shared global pivot sample pays off (its cost model builds the shared
// matrix only when it undercuts the per-node matrices it replaces; at
// 10k×2d with the default capacity it declines, at 4k it cuts the
// build's metric evaluations by ~15%).
func BenchmarkSlimTreeBuildBulk4k(b *testing.B) {
	b.ReportAllocs()
	pts := randPoints(4000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slimtree.NewBulk(metric.Euclidean, 0, pts)
	}
}

// The legacy insertion-built pipeline against the bulk-loaded default —
// the end-to-end read on what the low-overlap tree buys Step II-IV.
func BenchmarkPipelineN10k2dInsertionBuild(b *testing.B) {
	b.ReportAllocs()
	pts := data.Uniform(10000, 2, 1).Points
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mccatch.RunVectors(pts, mccatch.WithWorkers(1), mccatch.WithInsertionBuild()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSlimTreeRangeQuery(b *testing.B) {
	b.ReportAllocs()
	pts := randPoints(10000, 2)
	t := slimtree.New(metric.Euclidean, 0, pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.RangeCount(pts[i%len(pts)], 3.0)
	}
}

func BenchmarkSlimTreeKNN(b *testing.B) {
	b.ReportAllocs()
	pts := randPoints(10000, 2)
	t := slimtree.New(metric.Euclidean, 0, pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.KNN(pts[i%len(pts)], 10)
	}
}

// Ablation (DESIGN.md): the kd-tree index against the slim-tree on the
// same vector workload — the paper's footnote 4 trade-off.
func BenchmarkAblationKDTreeRangeQuery(b *testing.B) {
	b.ReportAllocs()
	pts := randPoints(10000, 2)
	t := kdtree.New(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.RangeCount(pts[i%len(pts)], 3.0)
	}
}

// Ablation: slim-tree node capacity (split cost vs pruning power).
func BenchmarkAblationTreeCapacity8(b *testing.B)  { benchCapacity(b, 8) }
func BenchmarkAblationTreeCapacity64(b *testing.B) { benchCapacity(b, 64) }

func benchCapacity(b *testing.B, capacity int) {
	b.Helper()
	b.ReportAllocs()
	pts := randPoints(4000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mccatch.RunVectors(pts, mccatch.WithTreeCapacity(capacity)); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: the sparse-focused multi-radius join against naive per-radius
// full self-joins (Sec. IV-G's main speed-up principle).
func BenchmarkJoinSparseFocused(b *testing.B) {
	b.ReportAllocs()
	pts := randPoints(4000, 2)
	t := slimtree.New(metric.Euclidean, 0, pts)
	radii := geomRadii(t.DiameterEstimate(), 15)
	cap := len(pts) / 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		join.MultiRadiusCounts(t, pts, radii, cap, true, 0)
	}
}

func BenchmarkJoinNaiveAllRadii(b *testing.B) {
	b.ReportAllocs()
	pts := randPoints(4000, 2)
	t := slimtree.New(metric.Euclidean, 0, pts)
	radii := geomRadii(t.DiameterEstimate(), 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range radii {
			join.SelfCounts(t, pts, r, 0)
		}
	}
}

// The single-traversal counter against one RangeCount per radius, on each
// backend — the amortization RangeCountMulti buys at a = 15 nested radii.
// The batched side probes through the buffer-reusing append API, the way
// the joins do: with the arena layouts and pooled traversal scratch a
// steady-state probe performs ZERO allocations (the CI bench gate pins
// allocs/op for these benchmarks).
func BenchmarkMultiCountBatchedSlim(b *testing.B)  { benchMultiCount(b, "slim", true) }
func BenchmarkMultiCountRepeatedSlim(b *testing.B) { benchMultiCount(b, "slim", false) }
func BenchmarkMultiCountBatchedKD(b *testing.B)    { benchMultiCount(b, "kd", true) }
func BenchmarkMultiCountRepeatedKD(b *testing.B)   { benchMultiCount(b, "kd", false) }
func BenchmarkMultiCountBatchedR(b *testing.B)     { benchMultiCount(b, "r", true) }
func BenchmarkMultiCountRepeatedR(b *testing.B)    { benchMultiCount(b, "r", false) }

func benchMultiCount(b *testing.B, kind string, batched bool) {
	b.Helper()
	b.ReportAllocs()
	pts := randPoints(10000, 2)
	var t index.Index[[]float64]
	switch kind {
	case "slim":
		t = slimtree.New(metric.Euclidean, 0, pts)
	case "kd":
		t = kdtree.New(pts)
	case "r":
		t = rtree.New(pts, 0)
	}
	radii := geomRadii(t.DiameterEstimate(), 15)
	buf := make([]int, 0, len(radii)+1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := pts[i%len(pts)]
		if batched {
			buf = index.RangeCountMultiAppend(t, q, radii, buf[:0])
		} else {
			for _, r := range radii {
				t.RangeCount(q, r)
			}
		}
	}
}

// The Step II self-join on each backend, gated per-point probes against
// the dual-tree traversal (all three trees implement
// index.SelfMultiCounter as of this PR). Identical matrices, very
// different traversal counts.
func BenchmarkSelfJoinGatedSlim(b *testing.B) { benchSelfJoin(b, "slim", false) }
func BenchmarkSelfJoinDualSlim(b *testing.B)  { benchSelfJoin(b, "slim", true) }
func BenchmarkSelfJoinGatedKD(b *testing.B)   { benchSelfJoin(b, "kd", false) }
func BenchmarkSelfJoinDualKD(b *testing.B)    { benchSelfJoin(b, "kd", true) }
func BenchmarkSelfJoinGatedR(b *testing.B)    { benchSelfJoin(b, "r", false) }
func BenchmarkSelfJoinDualR(b *testing.B)     { benchSelfJoin(b, "r", true) }

func benchSelfJoin(b *testing.B, kind string, dual bool) {
	b.Helper()
	b.ReportAllocs()
	pts := randPoints(10000, 2)
	var t index.Index[[]float64]
	switch kind {
	case "slim":
		t = slimtree.NewBulk(metric.Euclidean, 0, pts)
	case "kd":
		t = kdtree.New(pts)
	case "r":
		t = rtree.New(pts, 0)
	}
	radii := geomRadii(t.DiameterEstimate(), 15)
	cap := len(pts) / 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dual {
			join.SelfMultiRadiusCounts(t, pts, radii, cap, true, 1)
		} else {
			join.MultiRadiusCounts(t, pts, radii, cap, true, 1)
		}
	}
}

// The Step IV bridge search on each backend, per-point doubling-chunk
// probes against the cross-set dual-tree join (all three trees implement
// index.CrossMultiCounter as of this PR). 10k x 2d with ~10% outliers —
// the microcluster-heavy split Step IV sees — identical firsts, very
// different traversal counts. The CI bench gate asserts Dual < PerPoint
// per backend within the same run.
func BenchmarkBridgePerPointSlim(b *testing.B) { benchBridge(b, "slim", false) }
func BenchmarkBridgeDualSlim(b *testing.B)     { benchBridge(b, "slim", true) }
func BenchmarkBridgePerPointKD(b *testing.B)   { benchBridge(b, "kd", false) }
func BenchmarkBridgeDualKD(b *testing.B)       { benchBridge(b, "kd", true) }
func BenchmarkBridgePerPointR(b *testing.B)    { benchBridge(b, "r", false) }
func BenchmarkBridgeDualR(b *testing.B)        { benchBridge(b, "r", true) }

// bridgeWorkload fabricates the inlier/outlier split Step IV scores on a
// 10k x 2d dataset: 9k uniform inliers, ~1k outliers in far microclusters
// plus scattered singletons, radii derived from the combined diameter the
// pipeline would use.
func bridgeWorkload() (in, out [][]float64, radii []float64) {
	rng := rand.New(rand.NewSource(17))
	in = make([][]float64, 0, 9000)
	for i := 0; i < 9000; i++ {
		in = append(in, []float64{rng.Float64() * 100, rng.Float64() * 100})
	}
	out = make([][]float64, 0, 1000)
	for len(out) < 950 { // tight microclusters on a far ring
		cx, cy := 150+rng.Float64()*150, 150+rng.Float64()*150
		for k := 2 + rng.Intn(4); k > 0 && len(out) < 950; k-- {
			out = append(out, []float64{cx + rng.NormFloat64()*0.2, cy + rng.NormFloat64()*0.2})
		}
	}
	for len(out) < 1000 { // scattered singletons, some near the inliers
		out = append(out, []float64{rng.Float64() * 300, rng.Float64() * 300})
	}
	lo, hi := []float64{0, 0}, []float64{0, 0}
	for _, p := range append(append([][]float64{}, in...), out...) {
		for j, v := range p {
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	return in, out, geomRadii(metric.Euclidean(lo, hi), 15)
}

func benchBridge(b *testing.B, kind string, dual bool) {
	b.Helper()
	b.ReportAllocs()
	in, out, radii := bridgeWorkload()
	var t index.Index[[]float64]
	switch kind {
	case "slim":
		t = slimtree.NewBulk(metric.Euclidean, 0, in)
	case "kd":
		t = kdtree.New(in)
	case "r":
		t = rtree.New(in, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dual {
			join.BridgeRadii(t, out, radii, 1)
		} else {
			join.BridgeRadiiPerPoint(t, out, radii, 1)
		}
	}
}

// The incremental-layer query pair the CI bench gate watches: a merged
// steady-state probe (one frozen 9.9k segment + a 100-point memtable,
// i.e. memtable = 1% of n) must stay within 1.3x of the identical probe
// against a single frozen arena, and both must stay at ZERO allocations
// per probe (the pooled scratch and cached memtable tree absorb the
// merge bookkeeping).
func BenchmarkIncrementalQueryFrozen(b *testing.B) {
	b.ReportAllocs()
	pts := randPoints(10000, 2)
	t := rtree.New(pts, 0)
	radii := geomRadii(t.DiameterEstimate(), 15)
	buf := make([]int, 0, len(radii)+1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = index.RangeCountMultiAppend(t, pts[i%len(pts)], radii, buf[:0])
	}
}

func BenchmarkIncrementalQueryMerged(b *testing.B) {
	b.ReportAllocs()
	pts := randPoints(10000, 2)
	m := segment.NewMutable(metric.Euclidean, func(sub [][]float64) index.Index[[]float64] {
		return rtree.New(sub, 0)
	}, len(pts)+1)
	for _, p := range pts[:9900] {
		m.Insert(p)
	}
	m.Freeze()
	for _, p := range pts[9900:] {
		m.Insert(p)
	}
	radii := geomRadii(m.DiameterEstimate(), 15)
	buf := make([]int, 0, len(radii)+1)
	buf = m.RangeCountMultiAppend(pts[0], radii, buf[:0]) // warm the lazy memtable tree
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.RangeCountMultiAppend(pts[i%len(pts)], radii, buf[:0])
	}
}

// The Step II incremental self-join pair: CountAllMulti over the merged
// layout (the same one frozen 9.9k segment + 100-point memtable split as
// the query pair above) against the identical call on the compacted
// single-segment layout, whose clean segment answers through its native
// dual-tree self-join alone. The merged side resolves the memtable and
// the cross-segment pairs through segment-vs-segment dual-tree cross
// joins; the CI pair gate bounds its overhead at 1.5x the compacted
// twin, so the cross-join path can never rot back toward the per-element
// probe costs it replaced.
func BenchmarkIncrementalCountAllMerged(b *testing.B)    { benchIncrementalCountAll(b, false) }
func BenchmarkIncrementalCountAllCompacted(b *testing.B) { benchIncrementalCountAll(b, true) }

func benchIncrementalCountAll(b *testing.B, compact bool) {
	b.Helper()
	b.ReportAllocs()
	pts := randPoints(10000, 2)
	m := segment.NewMutable(metric.Euclidean, func(sub [][]float64) index.Index[[]float64] {
		return rtree.New(sub, 0)
	}, len(pts)+1)
	for _, p := range pts[:9900] {
		m.Insert(p)
	}
	m.Freeze()
	for _, p := range pts[9900:] {
		m.Insert(p)
	}
	if compact {
		m.Compact()
	}
	radii := geomRadii(m.DiameterEstimate(), 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.CountAllMulti(radii, 0)
	}
}

func geomRadii(l float64, a int) []float64 {
	radii := make([]float64, a)
	for e := 0; e < a; e++ {
		radii[e] = l
		for k := 0; k < a-1-e; k++ {
			radii[e] /= 2
		}
	}
	return radii
}

func BenchmarkFractalDimension(b *testing.B) {
	b.ReportAllocs()
	pts := randPoints(5000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fractal.Dimension(pts, metric.Euclidean, fractal.Options{Seed: 1})
	}
}

func BenchmarkLevenshtein(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		metric.Levenshtein("brzezinski", "breszinsky")
	}
}

func BenchmarkAUROC(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(9))
	scores := make([]float64, 100000)
	labels := make([]bool, len(scores))
	for i := range scores {
		scores[i] = rng.Float64()
		labels[i] = rng.Intn(100) == 0
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.AUROC(scores, labels)
	}
}

// Ablation: the Slim-tree's slim-down reorganization (paper substrate
// feature) against the plain build on clustered data.
func BenchmarkAblationSlimDownOff(b *testing.B) { benchSlimDown(b, 0) }
func BenchmarkAblationSlimDownOn(b *testing.B)  { benchSlimDown(b, 3) }

func benchSlimDown(b *testing.B, passes int) {
	b.Helper()
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(13))
	var pts [][]float64
	for len(pts) < 6000 {
		cx, cy := rng.Float64()*100, rng.Float64()*100
		for i := 0; i < 30; i++ {
			pts = append(pts, []float64{cx + rng.NormFloat64(), cy + rng.NormFloat64()})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var opts []mccatch.Option
		if passes > 0 {
			opts = append(opts, mccatch.WithSlimDown(passes))
		}
		if _, err := mccatch.RunVectors(pts, opts...); err != nil {
			b.Fatal(err)
		}
	}
}

// The backend sweep behind RunVectors' default choice (2d/8d x 4k/10k,
// serial so the numbers read as pure per-backend cost): the R-tree wins
// three of the four cells and nearly ties the kd-tree on the fourth,
// while the kd-tree collapses at 8 dimensions — see BENCH_5.json and
// the README backend notes for recorded medians.
func BenchmarkSweepSlim4k2d(b *testing.B)  { benchSweep(b, "slim", 4000, 2) }
func BenchmarkSweepKD4k2d(b *testing.B)    { benchSweep(b, "kd", 4000, 2) }
func BenchmarkSweepR4k2d(b *testing.B)     { benchSweep(b, "r", 4000, 2) }
func BenchmarkSweepSlim10k2d(b *testing.B) { benchSweep(b, "slim", 10000, 2) }
func BenchmarkSweepKD10k2d(b *testing.B)   { benchSweep(b, "kd", 10000, 2) }
func BenchmarkSweepR10k2d(b *testing.B)    { benchSweep(b, "r", 10000, 2) }
func BenchmarkSweepSlim4k8d(b *testing.B)  { benchSweep(b, "slim", 4000, 8) }
func BenchmarkSweepKD4k8d(b *testing.B)    { benchSweep(b, "kd", 4000, 8) }
func BenchmarkSweepR4k8d(b *testing.B)     { benchSweep(b, "r", 4000, 8) }
func BenchmarkSweepSlim10k8d(b *testing.B) { benchSweep(b, "slim", 10000, 8) }
func BenchmarkSweepKD10k8d(b *testing.B)   { benchSweep(b, "kd", 10000, 8) }
func BenchmarkSweepR10k8d(b *testing.B)    { benchSweep(b, "r", 10000, 8) }

// The 32d column re-measures the sweep far past the kd-tree's useful
// dimensionality (ROADMAP (g)): box-bound pruning is near-dead up here,
// so the cells mostly price raw leaf-scan arithmetic — the distance
// kernels' home turf.
func BenchmarkSweepSlim4k32d(b *testing.B) { benchSweep(b, "slim", 4000, 32) }
func BenchmarkSweepKD4k32d(b *testing.B)   { benchSweep(b, "kd", 4000, 32) }
func BenchmarkSweepR4k32d(b *testing.B)    { benchSweep(b, "r", 4000, 32) }

// The block kernels against the per-point scalar loop they replaced
// (PR 7): one query counted against 4096 contiguous arena slots at a
// mid-density radius. The Kernel side is kernel.CountRange with the
// freeze-time quantized summary — blocks the summary proves out of
// range never reach exact arithmetic — and the Scalar side is the
// metric.SquaredEuclidean-per-slot loop the leaf scans used to run. CI
// gates Kernel < Scalar per dimension (hardware-independent) on top of
// the absolute baselines.
func BenchmarkKernel2d(b *testing.B)       { benchKernel(b, 2, true) }
func BenchmarkKernelScalar2d(b *testing.B) { benchKernel(b, 2, false) }
func BenchmarkKernel8d(b *testing.B)       { benchKernel(b, 8, true) }
func BenchmarkKernelScalar8d(b *testing.B) { benchKernel(b, 8, false) }

// 32d exercises the generic (non-specialized) kernel fallback — the
// width the 4k×32d sweep cells run through. Not CI-gated.
func BenchmarkKernel32d(b *testing.B)       { benchKernel(b, 32, true) }
func BenchmarkKernelScalar32d(b *testing.B) { benchKernel(b, 32, false) }

func benchKernel(b *testing.B, dim int, kernelized bool) {
	b.Helper()
	b.ReportAllocs()
	const n = 4096
	pts := data.Uniform(n, dim, 1).Points
	// Strip-sort so consecutive slots are spatially local, as they are in
	// the arenas' preorder/STR layouts — without it every 8-slot block
	// spans the whole space and the summary can never prune.
	sort.Slice(pts, func(i, j int) bool {
		si, sj := math.Floor(pts[i][0]*16), math.Floor(pts[j][0]*16)
		if si != sj {
			return si < sj
		}
		return pts[i][1] < pts[j][1]
	})
	flat := make([]float64, 0, n*dim)
	for _, p := range pts {
		flat = append(flat, p...)
	}
	sum := kernel.NewSummary(flat, dim, n)
	q := pts[n/2]
	r2 := 0.02 * float64(dim)
	sink := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if kernelized {
			sink += kernel.CountRange(sum, q, flat, 0, n, r2)
		} else {
			c := 0
			for j := 0; j < n; j++ {
				if metric.SquaredEuclidean(q, flat[j*dim:(j+1)*dim]) <= r2 {
					c++
				}
			}
			sink += c
		}
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}

func benchSweep(b *testing.B, kind string, n, dim int) {
	b.Helper()
	b.ReportAllocs()
	pts := data.Uniform(n, dim, 1).Points
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		switch kind {
		case "slim":
			_, err = mccatch.RunVectorsSlim(pts, mccatch.WithWorkers(1))
		case "kd":
			_, err = mccatch.RunVectorsKD(pts, mccatch.WithWorkers(1))
		case "r":
			_, err = mccatch.RunVectorsR(pts, mccatch.WithWorkers(1))
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: the full pipeline on each of the three vector indexes the
// paper names (slim-tree, kd-tree, R-tree).
func BenchmarkAblationPipelineSlimTree(b *testing.B) { benchIndexPipeline(b, "slim") }
func BenchmarkAblationPipelineKDTree(b *testing.B)   { benchIndexPipeline(b, "kd") }
func BenchmarkAblationPipelineRTree(b *testing.B)    { benchIndexPipeline(b, "r") }

func benchIndexPipeline(b *testing.B, kind string) {
	b.Helper()
	b.ReportAllocs()
	pts := data.Uniform(4000, 2, 1).Points
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		switch kind {
		case "slim":
			_, err = mccatch.RunVectors(pts)
		case "kd":
			_, err = mccatch.RunVectorsKD(pts)
		case "r":
			_, err = mccatch.RunVectorsR(pts)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
