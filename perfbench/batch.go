package main

// The batch workloads build one Detector, then alternate a timed Detect
// with a round of timed Probe calls on fresh points (the score path of a
// built detector) until the measured window is used up.

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"time"

	"mccatch"
	"mccatch/internal/core"
	"mccatch/internal/data"
	"mccatch/internal/eval"
	"mccatch/internal/index"
	"mccatch/internal/metric"
	"mccatch/internal/parallel"
	"mccatch/internal/rtree"
	"mccatch/internal/shard"
)

const (
	// httpScale sizes the http workloads: data.HTTPLike(0.1) is 22,202
	// points. One Detect takes seconds there, against minutes at the
	// paper's full 222K (README.md has the scaling points).
	httpScale = 0.1
	// namesInliers and namesOutliers size the names workload as the
	// paper's Last Names set: 5,000 surnames plus 50 foreign ones.
	namesInliers, namesOutliers = 5000, 50
	// namesAUROCFloor is the least AUROC of PointScores against the
	// planted labels the names check accepts. Seeds 1..40 scored 0.774
	// to 0.953 (0.822 at seed 1; mean 0.85, standard deviation 0.04),
	// so the floor sits about four deviations below the mean and far
	// above a chance ranking's 0.5.
	namesAUROCFloor = 0.70
	// minSetups and setupBudget bound the repeated set-up whose median
	// is setup_s: at least minSetups builds, more while their total stays
	// under setupBudget, never more than maxSetups.
	minSetups, maxSetups = 5, 40
	setupBudget          = 1500 * time.Millisecond
)

// batchWorkload is one batch workload over element type T.
type batchWorkload[T any] struct {
	// queries are fresh inlier elements the score rounds probe, probes
	// of them a round: enough over a run's rounds for a score p99 with
	// ten samples beyond it. Planted outliers are left out of the
	// queries, where their different probe cost would sit right at
	// the p99.
	queries []T
	probes  int
	// build is the public constructor the workload measures.
	build func() (*mccatch.Detector[T], error)
	// check validates a Detect Result against the planted ground truth.
	check func(*mccatch.Result) error
	// The traced replay rebuilds the same index through the layers:
	// items under dist, cut into shards parts (1 = one index), each
	// built by builderFor(the Result's params).
	items      []T
	dist       metric.Distance[T]
	euclidean  bool
	shards     int
	builderFor func(core.Params) index.Builder[T]
}

func runHTTP(cfg config) (*outcome, error) { return runBatch(cfg, httpWorkload(cfg, 1)) }

// runHTTPSharded is http cut into one shard per core; it differs from
// http by the shard layer alone.
func runHTTPSharded(cfg config) (*outcome, error) {
	return runBatch(cfg, httpWorkload(cfg, max(2, cfg.workers)))
}

func httpWorkload(cfg config, shards int) batchWorkload[[]float64] {
	d := data.HTTPLike(httpScale, cfg.seed)
	opts := []mccatch.Option{mccatch.WithWorkers(cfg.workers)}
	if shards > 1 {
		opts = append(opts, mccatch.WithShards(shards))
	}
	return batchWorkload[[]float64]{
		queries: inliers(data.HTTPLike(0.01, subSeed(cfg.seed, 1))),
		probes:  1500,
		build:   func() (*mccatch.Detector[[]float64], error) { return mccatch.BuildVectors(d.Points, opts...) },
		check:   func(res *mccatch.Result) error { return checkPlanted(res, d.DoS) },
		items:   d.Points, dist: metric.Euclidean, euclidean: true, shards: shards,
		builderFor: func(p core.Params) index.Builder[[]float64] {
			return func(sub [][]float64) index.Index[[]float64] { return rtree.NewWithWorkers(sub, 0, p.Workers) }
		},
	}
}

func runNames(cfg config) (*outcome, error) {
	d := data.LastNames(namesInliers, namesOutliers, cfg.seed)
	auroc := 0.0
	o, err := runBatch(cfg, batchWorkload[string]{
		queries: data.LastNames(1000, 0, subSeed(cfg.seed, 1)).Words,
		probes:  400,
		build: func() (*mccatch.Detector[string], error) {
			return mccatch.BuildStrings(d.Words, mccatch.WithWorkers(cfg.workers))
		},
		check: func(res *mccatch.Result) error {
			var err error
			auroc, err = checkAUROC(res.PointScores, d.Labels, namesAUROCFloor)
			return err
		},
		items: d.Words, dist: metric.Levenshtein, shards: 1,
		builderFor: func(p core.Params) index.Builder[string] { return core.SlimBuilder(metric.Levenshtein, p) },
	})
	if err == nil {
		o.note("AUROC        %.4f   (floor %.2f)", auroc, namesAUROCFloor)
	}
	return o, err
}

// inliers returns the points of d not labeled as planted outliers.
func inliers(d *data.HTTPLikeData) [][]float64 {
	var out [][]float64
	for i, p := range d.Points {
		if !d.Labels[i] {
			out = append(out, p)
		}
	}
	return out
}

// subSeed derives the seed of a workload's k-th auxiliary input stream.
func subSeed(seed int64, k int64) int64 { return seed*1000003 + k }

// checkPlanted requires the planted attack points to form exactly one
// microcluster, with no other member.
func checkPlanted(res *mccatch.Result, planted []int) error {
	want := append([]int(nil), planted...)
	sort.Ints(want)
	for _, mc := range res.Microclusters {
		if reflect.DeepEqual(mc.Members, want) {
			return nil
		}
	}
	return fmt.Errorf("the %d planted points do not form exactly one microcluster", len(want))
}

// checkAUROC returns the AUROC of scores against labels and requires it
// to reach floor.
func checkAUROC(scores []float64, labels []bool, floor float64) (float64, error) {
	a := eval.AUROC(scores, labels)
	if !(a >= floor) {
		return a, fmt.Errorf("AUROC %.4f is below the floor %.3f", a, floor)
	}
	return a, nil
}

// liveHeap is the heap in use after forced collections (two, so that
// sync.Pool victim caches are dropped too).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// repeatSetup runs setup, which returns the time its set-up took, at
// least minSetups times, more while the total stays under setupBudget,
// and returns the per-run seconds.
func repeatSetup(setup func() (time.Duration, error)) (samples, error) {
	var s samples
	total := time.Duration(0)
	for len(s) < minSetups || (total < setupBudget && len(s) < maxSetups) {
		d, err := setup()
		if err != nil {
			return nil, err
		}
		total += d
		s = append(s, d.Seconds())
	}
	return s, nil
}

func runBatch[T any](cfg config, wl batchWorkload[T]) (*outcome, error) {
	o := newOutcome()
	base := liveHeap()
	var det *mccatch.Detector[T]
	setups, err := repeatSetup(func() (time.Duration, error) {
		det = nil
		t0 := time.Now()
		d, err := wl.build()
		det = d
		return time.Since(t0), err
	})
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	indexMB := float64(liveHeap()-base) / mb
	if cfg.trace {
		return traceBatch(cfg, wl, det, o)
	}
	o.metrics["setup_s"] = setups.median()
	o.metrics["index_mb"] = indexMB
	o.note("setup_s      %.4f s   (median of %d builds)", setups.median(), len(setups))
	o.note("index_mb     %.2f MB", indexMB)

	var detects, allocs, probes samples
	var first *mccatch.Result
	next := 0
	start := time.Now()
	for {
		round := time.Now()
		// Each timed call starts from a collected heap, so that garbage
		// left by the previous phase does not land in its time.
		runtime.GC()
		a0 := allocBytes()
		t0 := time.Now()
		res, err := det.Detect()
		dt := time.Since(t0)
		allocs = append(allocs, float64(allocBytes()-a0)/mb)
		o.check(err)
		if err != nil {
			break
		}
		detects = append(detects, dt.Seconds())
		o.check(wl.check(res))
		if first == nil {
			first = res
		} else if !reflect.DeepEqual(first, res) {
			o.check(errors.New("repeated Detect calls returned different Results"))
		}
		runtime.GC()
		for k := 0; k < wl.probes; k++ {
			q := wl.queries[next%len(wl.queries)]
			next++
			t0 := time.Now()
			_, err := det.Probe(q)
			probes = append(probes, millis(time.Since(t0)))
			o.check(err)
		}
		if !another(start, round, cfg.window) {
			break
		}
	}
	o.metrics["detect_s"] = detects.median()
	o.metrics["detect_alloc_mb"] = allocs.median()
	o.metrics["score_p50_ms"] = probes.percentile(50)
	o.metrics["success_rate"] = successRate(o)
	o.note("detect_s     %.4f s   (median of %d detects)", detects.median(), len(detects))
	o.note("detect_alloc_mb %.2f MB (median of %d detects)", allocs.median(), len(allocs))
	o.note("score_p50_ms %.4f ms  score_p99_ms %.4f ms  (%d probes, %d beyond p99)",
		probes.percentile(50), probes.percentile(99), len(probes), tail(len(probes), 99))
	o.note("success_rate %.2f %%  (%d of %d operations and checks failed)", successRate(o), o.failed, o.attempted)
	return o, nil
}

// another reports whether a measured phase that began at start should
// run one more round like the one that began at round: it may overrun
// the window by at most half a round.
func another(start, round time.Time, window time.Duration) bool {
	return time.Since(start)+time.Since(round)/2 < window
}

func successRate(o *outcome) float64 {
	return 100 * float64(o.attempted-o.failed) / float64(o.attempted)
}

// traceBatch is the traced run of a batch workload: it alternates an
// untraced Detect with a traced replay of the same detection until the
// window is used up, and reports the per-layer breakdown of the replay
// whose total is the median. Before the first replay it replays the
// index build through the layers.
func traceBatch[T any](cfg config, wl batchWorkload[T], det *mccatch.Detector[T], o *outcome) (*outcome, error) {
	tr := newTracer()
	o.spans = tr
	var idx indexSet[T]
	var builder index.Builder[T]
	type iteration struct {
		root    int
		rp      *replayed
		st      stepStats
		detect  time.Duration
		replayT time.Duration
	}
	var its []iteration
	var p core.Params
	start := time.Now()
	for i := 0; ; i++ {
		round := time.Now()
		st := &stepStats{}
		var rp *replayed
		var root int
		replay := func() {
			runtime.GC()
			rp, root = replayDetect(tr, wl.items, idx, builder, p, st)
		}
		// Odd rounds replay first, so that neither side always runs
		// right after the other; the first round must detect first, as
		// its Result fixes the params the replay runs with.
		if i%2 == 1 {
			replay()
		}
		runtime.GC()
		t0 := time.Now()
		res, err := det.Detect()
		detect := time.Since(t0)
		o.check(err)
		if err != nil {
			break
		}
		o.check(wl.check(res))
		if builder == nil {
			p = res.Params
			builder = wl.builderFor(p)
			if idx, err = replayBuild(tr, wl, builder, p, o.metrics); err != nil {
				return nil, err
			}
		}
		if i%2 == 0 {
			replay()
		}
		o.check(checkReplay(rp, res))
		its = append(its, iteration{root: root, rp: rp, st: *st, detect: detect, replayT: tr.get(root).dur()})
		if !another(start, round, cfg.window) {
			break
		}
	}
	if len(its) == 0 {
		return o, nil
	}
	var detects samples
	for _, it := range its {
		detects = append(detects, it.detect.Seconds())
	}
	sort.Slice(its, func(i, j int) bool { return its[i].replayT < its[j].replayT })
	med := its[(len(its)-1)/2]
	stepDur := func(name string) time.Duration { return tr.sumByName(med.root, name) }
	total := tr.get(med.root).dur()
	m := o.metrics
	m["step1.diameter_s"] = stepDur("step1.diameter").Seconds()
	m["step1.dist_calls"] = float64(med.st.calls1)
	m["step2.selfjoin_s"] = stepDur("step2.selfjoin").Seconds()
	m["step2.dist_calls"] = float64(med.st.calls2)
	m["step2.alloc_mb"] = float64(med.st.alloc2) / mb
	m["step2.share"] = stepDur("step2.selfjoin").Seconds() / total.Seconds()
	m["step3.gel_s"] = stepDur("step3.gel").Seconds()
	m["step3.candidates"] = float64(med.rp.candidates)
	m["step3.pairs"] = float64(med.rp.pairs)
	m["step4.inlier_build_s"] = stepDur("step4.inlier_build").Seconds()
	m["step4.bridge_s"] = stepDur("step4.bridge").Seconds()
	m["step4.outliers"] = float64(med.rp.outliers)
	m["core.rest_s"] = tr.selfTime(med.root).Seconds()
	m["trace.detect_s"] = detects.median()
	m["trace.overhead_s"] = total.Seconds() - detects.median()
	m["trace.samples"] = float64(len(its))
	if wl.shards > 1 {
		shardStats(tr, med.root, m)
	}
	steps := 0.0
	for _, k := range []string{"step1.diameter_s", "step2.selfjoin_s", "step3.gel_s", "step4.inlier_build_s", "step4.bridge_s"} {
		steps += m[k]
	}
	o.note("traced replay %.4f s = steps %.4f s + core.rest %.4f s; untraced detect_s %.4f s (median of %d); tracing overhead %.4f s",
		total.Seconds(), steps, m["core.rest_s"], detects.median(), len(detects), m["trace.overhead_s"])
	return o, nil
}

// replayBuild rebuilds the workload's index through the layers, the
// partition and per-part builds of a sharded one under their own spans,
// repeated as the public set-up is, and returns the last build.
func replayBuild[T any](tr *tracer, wl batchWorkload[T], builder index.Builder[T], p core.Params, m map[string]float64) (indexSet[T], error) {
	var idx indexSet[T]
	var builds, parts, partBuilds, buildCalls samples
	_, err := repeatSetup(func() (time.Duration, error) {
		root := tr.begin("index.build", 0)
		idx = indexSet[T]{}
		if wl.shards <= 1 {
			idx.tree = builder(wl.items)
		} else {
			id := tr.begin("shard.partition", root)
			idx.set = shard.Build(wl.items, wl.dist, wl.shards, p.Workers, wl.euclidean)
			tr.end(id)
			id = tr.begin("shard.build", root)
			idx.parts = make([]index.Index[T], len(idx.set.Parts))
			parallel.For(p.Workers, len(idx.parts), func(s int) { idx.parts[s] = builder(idx.set.Parts[s].Items) })
			tr.end(id)
			parts = append(parts, tr.sumByName(root, "shard.partition").Seconds())
			partBuilds = append(partBuilds, tr.sumByName(root, "shard.build").Seconds())
		}
		tr.end(root)
		builds = append(builds, tr.get(root).dur().Seconds())
		buildCalls = append(buildCalls, float64(distCalls(idx.tree)))
		return tr.get(root).dur(), nil
	})
	m["index.build_s"] = builds.median()
	m["index.build_dist_calls"] = buildCalls.median()
	m["shard.partition_s"] = parts.median()
	m["shard.build_s"] = partBuilds.median()
	return idx, err
}

// shardStats fills the shard layer's Step II metrics from the median
// replay: busy time in per-shard self and cross joins, the cross share
// of it, and the slowest shard's busy time over the mean.
func shardStats(tr *tracer, root int, m map[string]float64) {
	var self, cross time.Duration
	var busy samples
	for _, step := range tr.children(root) {
		if step.Name != "step2.selfjoin" {
			continue
		}
		for _, sh := range tr.children(step.ID) {
			if sh.Name != "shard" {
				continue
			}
			self += tr.sumByName(sh.ID, "shard.self")
			cross += tr.sumByName(sh.ID, "shard.cross")
			busy = append(busy, sh.dur().Seconds())
		}
	}
	m["shard.self_s"] = self.Seconds()
	m["shard.cross_s"] = cross.Seconds()
	if self+cross > 0 {
		m["shard.cross_share"] = cross.Seconds() / (self + cross).Seconds()
	}
	if mean := busy.sum() / float64(len(busy)); mean > 0 {
		m["shard.imbalance"] = busy.max() / mean
	}
}

// distCalls is a tree's metric-evaluation count where the tree keeps
// one (the slim-tree); coordinate trees evaluate distances in block
// kernels the benchmark cannot see and report 0.
func distCalls[T any](t index.Index[T]) int64 {
	if c, ok := t.(interface{ DistCalls() int64 }); ok {
		return c.DistCalls()
	}
	return 0
}
