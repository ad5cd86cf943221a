package mccatch

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"sync"
	"testing"

	"mccatch/internal/arena"
)

// heapArenaOptions forces the read-into-heap open path, so the lifecycle
// and concurrency suites cover both backings of an opened detector.
func heapArenaOptions() []arena.Option { return []arena.Option{arena.WithHeap()} }

func detectorPoints(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{
			math.Round(rng.Float64()*400) / 4,
			math.Round(rng.Float64()*400) / 4,
			math.Round(rng.Float64()*400) / 4,
		}
		if rng.Intn(20) == 0 {
			pts[i][0] += 500 // far outliers so microclusters exist
		}
	}
	return pts
}

// TestDetectorSaveOpenEquivalence pins the tentpole contract on the
// public API for every vector backend: Detect over an index saved to
// disk and reopened is deep-equal to Detect over the freshly built
// index, and Save of the reopened detector reproduces the file byte for
// byte.
func TestDetectorSaveOpenEquivalence(t *testing.T) {
	pts := detectorPoints(300, 11)
	dir := t.TempDir()
	for _, tc := range []struct {
		name  string
		build func() (*Detector[[]float64], error)
	}{
		{"kd", func() (*Detector[[]float64], error) { return BuildVectorsKD(pts) }},
		{"rtree", func() (*Detector[[]float64], error) { return BuildVectorsR(pts) }},
		{"slim", func() (*Detector[[]float64], error) { return BuildVectorsSlim(pts) }},
		{"default", func() (*Detector[[]float64], error) { return BuildVectors(pts) }},
		{"default-slim-via-option", func() (*Detector[[]float64], error) {
			return BuildVectors(pts, WithTreeCapacity(16))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			built, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			want, err := built.Detect()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, tc.name+".idx")
			if err := built.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			opened, err := OpenVectors(path)
			if err != nil {
				t.Fatal(err)
			}
			defer opened.Close()
			if opened.Size() != built.Size() {
				t.Fatalf("Size = %d, want %d", opened.Size(), built.Size())
			}
			got, err := opened.Detect()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("opened Detect differs from built Detect")
			}
			// Second detection over the same handle: the index is not
			// rebuilt, the result must not drift.
			again, err := opened.Detect()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again, want) {
				t.Fatalf("repeat Detect drifted")
			}
			var resaved bytes.Buffer
			if err := opened.Save(&resaved); err != nil {
				t.Fatal(err)
			}
			var original bytes.Buffer
			if err := built.Save(&original); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resaved.Bytes(), original.Bytes()) {
				t.Fatalf("re-saved file differs from original (%d vs %d bytes)",
					resaved.Len(), original.Len())
			}
		})
	}
}

// TestDetectorStringsSaveOpen pins the string path: BuildStrings →
// WriteFile → OpenStrings detects identically, with the word cost
// re-derived from the reconstructed words.
func TestDetectorStringsSaveOpen(t *testing.T) {
	words := []string{"szczepkowski"}
	for i := 0; i < 8; i++ {
		words = append(words, "smith", "smyth", "smithe", "smitt", "smitts", "smythe")
	}
	built, err := BuildStrings(words)
	if err != nil {
		t.Fatal(err)
	}
	want, err := built.Detect()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "words.idx")
	if err := built.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	opened, err := OpenStrings(path)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	if !reflect.DeepEqual(opened.Items(), words) {
		t.Fatalf("reconstructed words differ")
	}
	got, err := opened.Detect()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("opened Detect differs from built Detect")
	}
}

// TestDetectorGenericBuild pins Build over a custom metric: it matches
// Run, and Save reports a clear error for element types without an
// on-disk format.
func TestDetectorGenericBuild(t *testing.T) {
	sets := []PointSet{
		{{0, 0}, {1, 1}}, {{0.1, 0}, {1, 1.1}}, {{0, 0.2}, {0.9, 1}},
		{{40, 40}, {41, 41}},
	}
	d, err := Build(sets, Hausdorff, WithCustomCost(4))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(sets, Hausdorff, WithCustomCost(4))
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Detect()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Build+Detect differs from Run")
	}
	// Slim-trees persist only vectors and strings; a point-set tree must
	// refuse cleanly.
	if err := d.Save(&bytes.Buffer{}); err == nil {
		t.Fatal("Save of a point-set index should error")
	}
	if d.Close() != nil {
		t.Fatal("Close of an in-memory detector should be a no-op")
	}
}

// TestDetectorProbe pins Probe against the index contract: the counts
// are RangeCountMulti at the detector's own radii schedule, and Radii is
// cached and consistent.
func TestDetectorProbe(t *testing.T) {
	pts := detectorPoints(120, 5)
	d, err := BuildVectors(pts)
	if err != nil {
		t.Fatal(err)
	}
	radii := d.Radii()
	if len(radii) == 0 {
		t.Fatal("no radii over a non-degenerate dataset")
	}
	for k := 1; k < len(radii); k++ {
		if radii[k] <= radii[k-1] {
			t.Fatalf("radii not ascending at %d: %v", k, radii)
		}
	}
	counts, err := d.Probe(pts[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != len(radii) {
		t.Fatalf("Probe returned %d counts for %d radii", len(counts), len(radii))
	}
	// Brute-force oracle at every radius.
	for k, r := range radii {
		want := 0
		for _, p := range pts {
			if Euclidean(pts[0], p) <= r {
				want++
			}
		}
		if counts[k] != want {
			t.Fatalf("Probe count at radius %g = %d, want %d", r, counts[k], want)
		}
	}
	if counts[len(counts)-1] != len(pts) {
		t.Fatalf("count at the diameter radius = %d, want n = %d", counts[len(counts)-1], len(pts))
	}
}

// TestProbeAppendAllocationFree pins ProbeAppend's promise: with a
// reused dst a probe allocates nothing, on every backend, whether the
// index is one tree or cut into 2 or 8 parts, and the sharded curves
// match the unsharded ones.
func TestProbeAppendAllocationFree(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector drops pooled traversal scratch at random")
	}
	pts := detectorPoints(300, 11)
	queries := [][]float64{pts[3], {50, 50, 50}, {900, 10, 10}}
	words := make([]string, 0, 200)
	for i := 0; i < 200; i++ {
		words = append(words, fmt.Sprintf("w%03dx%d", (i*37)%211, i%7))
	}
	wordQueries := []string{words[5], "w100x3", "zzzzzzzzzzzz"}
	check := func(name string, probe func(shards int) func(dst []int) []int) {
		want := probe(1)(nil)
		for _, shards := range []int{1, 2, 8} {
			f := probe(shards)
			dst := f(nil)
			if !reflect.DeepEqual(dst, want) {
				t.Errorf("%s shards=%d: curve %v, unsharded %v", name, shards, dst, want)
			}
			if n := testing.AllocsPerRun(20, func() { dst = f(dst[:0]) }); n != 0 {
				t.Errorf("%s shards=%d: ProbeAppend allocates %v times per call with a reused dst, want 0", name, shards, n)
			}
		}
	}
	vectors := func(build func([][]float64, ...Option) (*Detector[[]float64], error)) func(int) func([]int) []int {
		return func(shards int) func([]int) []int {
			d, err := build(pts, WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			return func(dst []int) []int {
				for _, q := range queries {
					dst, _ = d.ProbeAppend(q, dst)
				}
				return dst
			}
		}
	}
	check("kd", vectors(BuildVectorsKD))
	check("r", vectors(BuildVectorsR))
	check("slim", vectors(BuildVectorsSlim))
	check("strings", func(shards int) func([]int) []int {
		d, err := BuildStrings(words, WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		return func(dst []int) []int {
			for _, q := range wordQueries {
				dst, _ = d.ProbeAppend(q, dst)
			}
			return dst
		}
	})
}

// raceEnabled reports whether the test binary runs under the race
// detector.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// openedDetectors builds one detector per lifecycle-relevant backing:
// in-memory build, mmap-backed open, and heap-backed open (the non-mmap
// platform fallback, forced through the internal arena option).
func openedDetectors(t *testing.T, pts [][]float64) map[string]func() *Detector[[]float64] {
	t.Helper()
	built, err := BuildVectors(pts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "life.idx")
	if err := built.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return map[string]func() *Detector[[]float64]{
		"built": func() *Detector[[]float64] {
			d, err := BuildVectors(pts)
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"mmap": func() *Detector[[]float64] {
			d, err := OpenVectors(path)
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"heap": func() *Detector[[]float64] {
			d, err := openVectors(path, heapArenaOptions(), nil)
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
	}
}

// TestDetectorCloseLifecycle pins the hardened lifecycle on every
// backing: Close is idempotent (the munmap path runs at most once), and
// every post-Close operation reports ErrDetectorClosed instead of
// touching the released mapping.
func TestDetectorCloseLifecycle(t *testing.T) {
	pts := detectorPoints(120, 21)
	for name, open := range openedDetectors(t, pts) {
		t.Run(name, func(t *testing.T) {
			d := open()
			if _, err := d.Probe(pts[0]); err != nil {
				t.Fatalf("Probe before Close: %v", err)
			}
			if err := d.Close(); err != nil {
				t.Fatalf("first Close: %v", err)
			}
			for i := 0; i < 3; i++ {
				if err := d.Close(); err != nil {
					t.Fatalf("repeat Close #%d: %v", i+1, err)
				}
			}
			if _, err := d.Detect(); !errors.Is(err, ErrDetectorClosed) {
				t.Fatalf("Detect after Close: got %v, want ErrDetectorClosed", err)
			}
			if _, err := d.Probe(pts[0]); !errors.Is(err, ErrDetectorClosed) {
				t.Fatalf("Probe after Close: got %v, want ErrDetectorClosed", err)
			}
			if _, err := d.ProbeAppend(pts[0], nil); !errors.Is(err, ErrDetectorClosed) {
				t.Fatalf("ProbeAppend after Close: got %v, want ErrDetectorClosed", err)
			}
			if err := d.Save(&bytes.Buffer{}); !errors.Is(err, ErrDetectorClosed) {
				t.Fatalf("Save after Close: got %v, want ErrDetectorClosed", err)
			}
			if err := d.WriteFile(filepath.Join(t.TempDir(), "x.idx")); !errors.Is(err, ErrDetectorClosed) {
				t.Fatalf("WriteFile after Close: got %v, want ErrDetectorClosed", err)
			}

			// Radii derived only AFTER Close must not touch the mapping:
			// it reports an empty schedule rather than faulting.
			fresh := open()
			if err := fresh.Close(); err != nil {
				t.Fatal(err)
			}
			if radii := fresh.Radii(); radii != nil {
				t.Fatalf("Radii first derived after Close = %v, want nil", radii)
			}
		})
	}
}

// TestDetectorConcurrentReads enforces the documented read-concurrency
// contract under -race: 8 goroutines hammer Detect, Probe and Radii on
// ONE shared detector — built, mmap-opened and heap-opened — and every
// result must equal the serial baseline (the lazily derived radii cache
// is the one piece of shared state; its initialization must be safe from
// any reader).
func TestDetectorConcurrentReads(t *testing.T) {
	pts := detectorPoints(160, 29)
	for name, open := range openedDetectors(t, pts) {
		t.Run(name, func(t *testing.T) {
			d := open()
			defer d.Close()
			wantRes, err := d.Detect()
			if err != nil {
				t.Fatal(err)
			}
			wantCounts := make([][]int, 4)
			for i := range wantCounts {
				if wantCounts[i], err = d.Probe(pts[i]); err != nil {
					t.Fatal(err)
				}
			}
			// Each attempt opens a fresh, never-probed detector and
			// releases all goroutines through a start barrier so every
			// one of them reaches the lazy FIRST derivation of the radii
			// schedule concurrently — the only shared-state hazard a
			// reader can trigger. Without the barrier and the fresh
			// detectors, goroutine 0 tends to finish the init before the
			// others are even scheduled and the race goes unexercised.
			const goroutines = 8
			for attempt := 0; attempt < 4; attempt++ {
				cold := open()
				var wg sync.WaitGroup
				start := make(chan struct{})
				errc := make(chan error, goroutines)
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						<-start
						if radii := cold.Radii(); !reflect.DeepEqual(radii, d.Radii()) {
							errc <- fmt.Errorf("goroutine %d: radii diverged", g)
							return
						}
						counts, err := cold.ProbeAppend(pts[g%4], nil)
						if err != nil {
							errc <- err
							return
						}
						if !reflect.DeepEqual(counts, wantCounts[g%4]) {
							errc <- fmt.Errorf("goroutine %d: probe counts diverged", g)
							return
						}
						res, err := d.Detect()
						if err != nil {
							errc <- err
							return
						}
						if !reflect.DeepEqual(res, wantRes) {
							errc <- fmt.Errorf("goroutine %d: Detect diverged", g)
							return
						}
					}(g)
				}
				close(start)
				wg.Wait()
				close(errc)
				for err := range errc {
					t.Fatal(err)
				}
				cold.Close()
			}
		})
	}
}

// TestDetectorOpenErrors pins the decode-failure surface of the public
// constructors: missing file, kind mismatch between the vector and
// string openers, and corruption classified under the exported
// sentinels.
func TestDetectorOpenErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenVectors(filepath.Join(dir, "nope.idx")); err == nil {
		t.Fatal("opening a missing file should error")
	}
	vec, err := BuildVectors(detectorPoints(40, 3))
	if err != nil {
		t.Fatal(err)
	}
	vecPath := filepath.Join(dir, "vec.idx")
	if err := vec.WriteFile(vecPath); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStrings(vecPath); !errors.Is(err, ErrIndexKind) {
		t.Fatalf("OpenStrings on a vector index: got %v, want ErrIndexKind", err)
	}
	str, err := BuildStrings([]string{"aa", "ab", "ba", "zzzz"})
	if err != nil {
		t.Fatal(err)
	}
	strPath := filepath.Join(dir, "str.idx")
	if err := str.WriteFile(strPath); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenVectors(strPath); !errors.Is(err, ErrIndexKind) {
		t.Fatalf("OpenVectors on a string index: got %v, want ErrIndexKind", err)
	}
}

// TestOptionValidation pins the satellite contract: every option
// validates eagerly and surfaces a descriptive error from whichever
// constructor it is passed to.
func TestOptionValidation(t *testing.T) {
	pts := [][]float64{{0, 0}, {1, 1}, {2, 0}, {9, 9}}
	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"WithRadii(0)", WithRadii(0)},
		{"WithRadii(1)", WithRadii(1)},
		{"WithMaxSlope(-1)", WithMaxSlope(-1)},
		{"WithMaxSlope(NaN)", WithMaxSlope(math.NaN())},
		{"WithMaxSlope(+Inf)", WithMaxSlope(math.Inf(1))},
		{"WithMaxCardinality(0)", WithMaxCardinality(0)},
		{"WithVectorCost(0)", WithVectorCost(0)},
		{"WithWordCost(0,5)", WithWordCost(0, 5)},
		{"WithWordCost(26,0)", WithWordCost(26, 0)},
		{"WithCustomCost(0)", WithCustomCost(0)},
		{"WithCustomCost(-2)", WithCustomCost(-2)},
		{"WithCustomCost(NaN)", WithCustomCost(math.NaN())},
		{"WithTreeCapacity(1)", WithTreeCapacity(1)},
		{"WithWorkers(-3)", WithWorkers(-3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := RunVectors(pts, tc.opt); err == nil {
				t.Errorf("RunVectors accepted %s", tc.name)
			}
			if _, err := BuildVectors(pts, tc.opt); err == nil {
				t.Errorf("BuildVectors accepted %s", tc.name)
			}
			if _, err := Build(pts, Euclidean, tc.opt); err == nil {
				t.Errorf("Build accepted %s", tc.name)
			}
			if _, err := NewIncrementalVectors(2, tc.opt); err == nil {
				t.Errorf("NewIncrementalVectors accepted %s", tc.name)
			}
		})
	}
	// The boundary values the messages point at must still be accepted.
	if _, err := RunVectors(pts, WithRadii(2), WithMaxSlope(0), WithMaxCardinality(1),
		WithTreeCapacity(4), WithWorkers(0)); err != nil {
		t.Fatalf("boundary-valid options rejected: %v", err)
	}
}

// TestDetectorRunWrappersMatch pins that the rewritten one-shot wrappers
// still return exactly what a Build+Detect pair does.
func TestDetectorRunWrappersMatch(t *testing.T) {
	pts := detectorPoints(150, 9)
	want, err := RunVectors(pts)
	if err != nil {
		t.Fatal(err)
	}
	d, err := BuildVectors(pts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Detect()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BuildVectors+Detect differs from RunVectors")
	}
}
