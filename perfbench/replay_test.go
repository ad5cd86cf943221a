package main

import (
	"testing"

	"mccatch"
	"mccatch/internal/core"
	"mccatch/internal/data"
	"mccatch/internal/index"
	"mccatch/internal/metric"
	"mccatch/internal/rtree"
	"mccatch/internal/shard"
)

// TestReplayMatchesDetect runs the traced replay beside the product's
// Detect on small inputs of each batch path and requires checkReplay to
// accept it.
func TestReplayMatchesDetect(t *testing.T) {
	pts := data.HTTPLike(0.01, 3).Points
	rtreeBuilder := func(p core.Params) index.Builder[[]float64] {
		return func(sub [][]float64) index.Index[[]float64] { return rtree.NewWithWorkers(sub, 0, p.Workers) }
	}
	for _, shards := range []int{1, 2, 3} {
		det, err := mccatch.BuildVectors(pts, mccatch.WithWorkers(2), mccatch.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		res, err := det.Detect()
		if err != nil {
			t.Fatal(err)
		}
		b := rtreeBuilder(res.Params)
		var set indexSet[[]float64]
		if shards == 1 {
			set.tree = b(pts)
		} else {
			set.set = shard.Build(pts, metric.Euclidean, shards, 2, true)
			for _, part := range set.set.Parts {
				set.parts = append(set.parts, b(part.Items))
			}
		}
		tr := newTracer()
		rp, root := replayDetect(tr, pts, set, b, res.Params, &stepStats{})
		if err := checkReplay(rp, res); err != nil {
			t.Errorf("shards=%d: %v", shards, err)
		}
		if len(rp.components) == 0 {
			t.Errorf("shards=%d: no nonsingleton microcluster to compare", shards)
		}
		if self := tr.selfTime(root); self < 0 || self > tr.get(root).dur() {
			t.Errorf("shards=%d: root self time %v out of range", shards, self)
		}
	}

	names := data.LastNames(400, 8, 5)
	det, err := mccatch.BuildStrings(names.Words, mccatch.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Detect()
	if err != nil {
		t.Fatal(err)
	}
	b := core.SlimBuilder(metric.Levenshtein, res.Params)
	st := &stepStats{}
	rp, _ := replayDetect(newTracer(), names.Words, indexSet[string]{tree: b(names.Words)}, b, res.Params, st)
	if err := checkReplay(rp, res); err != nil {
		t.Errorf("strings: %v", err)
	}
	if st.calls1 == 0 || st.calls2 == 0 {
		t.Errorf("strings: metric evaluations not counted: step I %d, step II %d", st.calls1, st.calls2)
	}
}
