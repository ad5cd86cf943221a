package mccatch

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mccatch/internal/core"
)

// TestIncrementalMatchesRunVectors pins the public contract: after any
// insert/delete sequence — segments, tombstones and a live memtable all
// present — Detect returns a Result deep-equal to RunVectors over the
// live points, under both the default R-tree backend and the slim-tree
// (selected implicitly by a slim-specific option).
func TestIncrementalMatchesRunVectors(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"rtree-default", nil},
		{"slimtree-via-capacity", []Option{WithTreeCapacity(16)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			inc, err := NewIncrementalVectors(2, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			inc.SetMemtableCap(10)
			type entry struct {
				h int64
				p []float64
			}
			var liveSet []entry
			for step := 0; step < 90; step++ {
				if len(liveSet) > 4 && rng.Intn(4) == 0 {
					j := rng.Intn(len(liveSet))
					if !inc.Delete(liveSet[j].h) {
						t.Fatalf("Delete of a live handle failed")
					}
					liveSet = append(liveSet[:j], liveSet[j+1:]...)
					continue
				}
				p := []float64{math.Round(rng.Float64()*40) / 2, math.Round(rng.Float64()*40) / 2}
				if rng.Intn(15) == 0 {
					p[0] += 300 // far outlier
				}
				h, err := inc.Insert(p)
				if err != nil {
					t.Fatal(err)
				}
				liveSet = append(liveSet, entry{h, p})
			}
			if inc.Segments() < 2 || inc.Tombstones() == 0 {
				t.Fatalf("script exercised no real merge: segments=%d tombstones=%d",
					inc.Segments(), inc.Tombstones())
			}
			live := make([][]float64, len(liveSet))
			for i, e := range liveSet {
				live[i] = e.p
			}
			if inc.Len() != len(live) {
				t.Fatalf("Len = %d, want %d", inc.Len(), len(live))
			}
			want, err := RunVectors(live, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := inc.Detect()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("incremental Detect differs from RunVectors\ngot:  %+v\nwant: %+v", got, want)
			}
			// And again after compaction (single fresh segment).
			inc.Compact()
			got, err = inc.Detect()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("post-Compact Detect differs from RunVectors")
			}
		})
	}
}

// TestIncrementalMatchesRunStrings pins the nondimensional path: an
// incremental run with DeriveWordCost matches RunStrings bit for bit.
func TestIncrementalMatchesRunStrings(t *testing.T) {
	words := []string{
		"smith", "smyth", "smithe", "smitt", "smith", "smiths",
		"jones", "joness", "jonas", "jone", "jons", "jonez",
		"zzzzzzzzzzzzzz", "qqqqqqqqqqqqqq",
	}
	inc, err := NewIncremental(Levenshtein, DeriveWordCost(words))
	if err != nil {
		t.Fatal(err)
	}
	inc.SetMemtableCap(5)
	for _, w := range words {
		if _, err := inc.Insert(w); err != nil {
			t.Fatal(err)
		}
	}
	want, err := RunStrings(words)
	if err != nil {
		t.Fatal(err)
	}
	got, err := inc.Detect()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("incremental Detect differs from RunStrings\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestIncrementalDetectEmpty pins the empty-live-set error path of both
// Detect branches: a new detector, and one whose every element was
// deleted, report core.ErrEmptyDataset.
func TestIncrementalDetectEmpty(t *testing.T) {
	for _, shards := range []int{1, 2} {
		inc, err := NewIncrementalVectors(2, WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		inc.SetMemtableCap(2)
		if _, err := inc.Detect(); !errors.Is(err, core.ErrEmptyDataset) {
			t.Fatalf("shards=%d: Detect on a new detector: err = %v, want ErrEmptyDataset", shards, err)
		}
		var hs []int64
		for i := 0; i < 5; i++ { // freezes segments, so deletes leave tombstones
			h, err := inc.Insert([]float64{float64(i), 1})
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, h)
		}
		for _, h := range hs {
			inc.Delete(h)
		}
		if _, err := inc.Detect(); !errors.Is(err, core.ErrEmptyDataset) {
			t.Fatalf("shards=%d: Detect after delete-all: err = %v, want ErrEmptyDataset", shards, err)
		}
	}
}

// TestIncrementalDetectReadOnly pins that Detect only reads the
// incremental layer: the storage layout (segments, tombstones,
// memtable), the epoch, the live set and every Probe answer are the same
// before and after it, at several worker counts and on both Detect
// branches. Run under -race it also checks that Detect's fan-out shares
// no unguarded state with the layer.
func TestIncrementalDetectReadOnly(t *testing.T) {
	type state struct {
		epoch                         uint64
		segs, tombs, memtable, length int
		live                          [][]float64
		radii                         []float64
		probes                        [][]int
	}
	for _, shards := range []int{1, 2} {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(41))
				inc, err := NewIncrementalVectors(2, WithWorkers(workers), WithShards(shards))
				if err != nil {
					t.Fatal(err)
				}
				inc.SetMemtableCap(16)
				var handles []int64
				var pts [][]float64
				for i := 0; i < 120; i++ {
					p := []float64{math.Round(rng.Float64()*60) / 2, math.Round(rng.Float64()*60) / 2}
					if i%40 == 39 {
						p[1] += 200 // far outlier
					}
					h, err := inc.Insert(p)
					if err != nil {
						t.Fatal(err)
					}
					handles, pts = append(handles, h), append(pts, p)
				}
				for _, j := range []int{100, 57, 30, 4} {
					inc.Delete(handles[j])
				}
				queries := append([][]float64{{15, 15}, {500, -500}}, pts[:20]...)
				snapshot := func() state {
					st := state{
						epoch: inc.Epoch(), segs: inc.Segments(), tombs: inc.Tombstones(),
						memtable: inc.m.MemtableLen(), length: inc.Len(),
						live: inc.m.Live(), radii: inc.Radii(),
					}
					for _, q := range queries {
						c, err := inc.Probe(q)
						if err != nil {
							t.Fatal(err)
						}
						st.probes = append(st.probes, c)
					}
					return st
				}
				before := snapshot()
				if before.segs < 2 || before.tombs == 0 || before.memtable == 0 {
					t.Fatalf("script left no merge to disturb: segments=%d tombstones=%d memtable=%d",
						before.segs, before.tombs, before.memtable)
				}
				first, err := inc.Detect()
				if err != nil {
					t.Fatal(err)
				}
				if after := snapshot(); !reflect.DeepEqual(after, before) {
					t.Fatalf("Detect changed the incremental state\nbefore: %+v\nafter:  %+v", before, after)
				}
				second, err := inc.Detect()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(second, first) {
					t.Fatal("a second Detect on an unchanged live set returned a different Result")
				}
			})
		}
	}
}

// TestIncrementalEpoch pins the cache-invalidation contract the serving
// layer depends on: the epoch moves exactly when the live set changes —
// Insert and successful Delete bump it; failed Delete, rejected Insert,
// Freeze and Compact leave it alone (storage reorganization cannot
// change a query answer, so caches keyed on the epoch stay valid).
func TestIncrementalEpoch(t *testing.T) {
	inc, err := NewIncrementalVectors(2)
	if err != nil {
		t.Fatal(err)
	}
	e0 := inc.Epoch()
	if _, err := inc.Insert([]float64{1, 2, 3}); err == nil {
		t.Fatal("wrong dimension should error")
	}
	if inc.Epoch() != e0 {
		t.Error("rejected Insert bumped the epoch")
	}
	h, err := inc.Insert([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	e1 := inc.Epoch()
	if e1 == e0 {
		t.Error("Insert did not bump the epoch")
	}
	inc.Freeze()
	inc.Compact()
	if inc.Epoch() != e1 {
		t.Error("Freeze/Compact bumped the epoch despite an unchanged live set")
	}
	if inc.Delete(h + 100) {
		t.Fatal("Delete of an unknown handle succeeded")
	}
	if inc.Epoch() != e1 {
		t.Error("failed Delete bumped the epoch")
	}
	if !inc.Delete(h) {
		t.Fatal("Delete of a live handle failed")
	}
	if inc.Epoch() == e1 {
		t.Error("successful Delete did not bump the epoch")
	}
}

// TestIncrementalProbeMatchesDetector pins the probe surface: after an
// insert/delete/freeze script, Probe and the radii schedule must equal a
// fresh-built Detector's over the same live set — the serving layer's
// score-point endpoint is exactly this equivalence. Also exercises the
// per-epoch radii cache across a mutation.
func TestIncrementalProbeMatchesDetector(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inc, err := NewIncrementalVectors(2)
	if err != nil {
		t.Fatal(err)
	}
	inc.SetMemtableCap(8)
	var handles []int64
	var live [][]float64
	for i := 0; i < 40; i++ {
		p := []float64{rng.Float64() * 20, rng.Float64() * 20}
		h, err := inc.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		handles, live = append(handles, h), append(live, p)
	}
	for _, j := range []int{35, 20, 3} {
		if !inc.Delete(handles[j]) {
			t.Fatal("delete failed")
		}
		handles, live = append(handles[:j], handles[j+1:]...), append(live[:j], live[j+1:]...)
	}
	d, err := BuildVectors(live)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if !reflect.DeepEqual(inc.Radii(), d.Radii()) {
		t.Fatalf("radii schedule diverged from fresh build:\ninc: %v\ndet: %v", inc.Radii(), d.Radii())
	}
	for _, q := range [][]float64{live[0], live[17], {100, 100}} {
		want, err := d.Probe(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := inc.Probe(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Probe(%v) = %v, want %v", q, got, want)
		}
		// ProbeAppend must append after existing entries, not clobber.
		withPrefix, err := inc.ProbeAppend(q, []int{-1})
		if err != nil {
			t.Fatal(err)
		}
		if withPrefix[0] != -1 || !reflect.DeepEqual(withPrefix[1:], want) {
			t.Fatalf("ProbeAppend with prefix = %v, want [-1 | %v]", withPrefix, want)
		}
	}
	if _, err := inc.Probe([]float64{1}); err == nil {
		t.Error("wrong-dimension probe should error")
	}
	// Mutate, then confirm the cached schedule refreshes: an inserted far
	// point stretches the diameter, so the radii must change.
	if _, err := inc.Insert([]float64{500, 500}); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(inc.Radii(), d.Radii()) {
		t.Error("radii cache survived a diameter-stretching insert")
	}
}

// TestIncrementalProbeAppendRejectKeepsBuffer: a query ProbeAppend
// rejects must hand the caller's buffer back unchanged with the error,
// as Detector.ProbeAppend does, so a loop recycling one buffer keeps it.
func TestIncrementalProbeAppendRejectKeepsBuffer(t *testing.T) {
	inc, err := NewIncrementalVectors(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := inc.Insert([]float64{float64(i), float64(i * i)}); err != nil {
			t.Fatal(err)
		}
	}
	for name, q := range map[string][]float64{
		"wrong dimension": {1, 2, 3},
		"NaN":             {1, math.NaN()},
	} {
		dst := append(make([]int, 0, 8), 7, -1, 42)
		got, err := inc.ProbeAppend(q, dst)
		if err == nil {
			t.Errorf("%s: ProbeAppend accepted the query", name)
		}
		if !reflect.DeepEqual(got, []int{7, -1, 42}) || cap(got) != cap(dst) || &got[0] != &dst[0] {
			t.Errorf("%s: ProbeAppend returned %v (cap %d), want the caller's buffer [7 -1 42] (cap %d)",
				name, got, cap(got), cap(dst))
		}
	}
}

// TestIncrementalVectorsValidation pins Insert's input checks.
func TestIncrementalVectorsValidation(t *testing.T) {
	inc, err := NewIncrementalVectors(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Insert([]float64{1, 2, 3}); err == nil {
		t.Error("wrong dimension should error")
	}
	if _, err := inc.Insert([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN should error")
	}
	if _, err := inc.Insert([]float64{math.Inf(1), 0}); err == nil {
		t.Error("Inf should error")
	}
	if inc.Len() != 0 {
		t.Fatalf("rejected inserts changed Len: %d", inc.Len())
	}
	if _, err := inc.Insert([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if inc.Len() != 1 {
		t.Fatalf("Len = %d, want 1", inc.Len())
	}
	if _, err := inc.Detect(); err != nil {
		t.Fatal(err)
	}
}
