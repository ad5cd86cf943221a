package core

import (
	"math"
	"reflect"
	"testing"

	"mccatch/internal/index"
	"mccatch/internal/join"
	"mccatch/internal/kdtree"
	"mccatch/internal/metric"
	"mccatch/internal/rtree"
	"mccatch/internal/slimtree"
)

// Native fuzz targets comparing every index backend against brute-force
// oracles on fuzzer-shaped low-dimensional vectors and radius schedules.
// The decoder quantizes coordinates to halves and radii to eighths, so
// squared-domain comparisons (kd-tree, R-tree) and plain-distance
// comparisons (slim-tree, oracle) are exact and can never disagree by a
// rounding artifact — any mismatch the fuzzer finds is a real traversal
// bug. The committed seed corpus lives in
// internal/core/testdata/fuzz/<target>/; the nightly CI job additionally
// runs each target for a short -fuzztime smoke.

// decodeFuzzCase turns raw fuzz bytes into a low-dim point cloud and an
// ascending radius schedule: byte 0 picks the dimension (1-3), byte 1
// the schedule length (1-12), then the schedule consumes one byte per
// radius increment and the remaining bytes become coordinates (signed,
// quantized to 0.5). Degenerate shapes — duplicates, collinear runs,
// single points — fall out of repetitive inputs naturally.
func decodeFuzzCase(data []byte) (pts [][]float64, radii []float64) {
	if len(data) < 4 {
		return nil, nil
	}
	dim := 1 + int(data[0]%3)
	a := 1 + int(data[1]%12)
	rest := data[2:]
	cur := 0
	next := func() byte {
		if cur >= len(rest) {
			return 0
		}
		b := rest[cur]
		cur++
		return b
	}
	radii = make([]float64, a)
	r := 0.0
	for e := range radii {
		r += 0.125 * float64(1+int(next()%32))
		radii[e] = r
	}
	for cur+dim <= len(rest) && len(pts) < 96 {
		p := make([]float64, dim)
		for j := range p {
			p[j] = 0.5 * float64(int8(next()))
		}
		pts = append(pts, p)
	}
	return pts, radii
}

// fuzzBackends builds each backend over the same points. Small slim-tree
// capacities and R-tree fanouts would not add coverage here: the shapes
// that matter (deep trees, degenerate boxes) come from the fuzzed data.
func fuzzBackends(pts [][]float64) map[string]index.Index[[]float64] {
	return map[string]index.Index[[]float64]{
		"slimtree-bulk": slimtree.New(metric.Euclidean, 0, pts),
		"kdtree":        kdtree.New(pts),
		"rtree":         rtree.New(pts, 0),
	}
}

func FuzzRangeCountMulti(f *testing.F) {
	f.Add([]byte("\x02\x05abcdefghijklmnopqrstuvwxyz0123456789"))
	f.Add([]byte{1, 11, 1, 2, 4, 8, 16, 32, 64, 128, 0, 0, 0, 0, 255, 255, 128, 7})
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, radii := decodeFuzzCase(data)
		if len(pts) == 0 {
			t.Skip()
		}
		for name, tr := range fuzzBackends(pts) {
			for qi, q := range pts {
				got := index.RangeCountMulti(tr, q, radii)
				for e, rr := range radii {
					want := 0
					for _, p := range pts {
						if metric.Euclidean(q, p) <= rr {
							want++
						}
					}
					if got[e] != want {
						t.Fatalf("%s: query %d radius %d (r=%v): RangeCountMulti = %d, brute force = %d\npoints=%v radii=%v",
							name, qi, e, rr, got[e], want, pts, radii)
					}
				}
			}
		}
	})
}

// FuzzShardEquivalence feeds dyadic-quantized point clouds through the
// sharded pipeline at a fuzzer-chosen shard count, under both cuts
// (tiles and Voronoi), and demands the Result deep-equal the
// single-index run — the shard-count-invariance contract under shapes a
// seeded generator would not produce (duplicate-heavy clouds, collinear
// runs, parts that collapse empty). The committed seed corpus lives in
// internal/core/testdata/fuzz/FuzzShardEquivalence/.
func FuzzShardEquivalence(f *testing.F) {
	f.Add([]byte("\x02\x05shard-parallel-mccatch-seed-corpus-0123456789"))
	f.Add([]byte{1, 7, 3, 0, 0, 0, 0, 255, 255, 255, 128, 128, 128, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte("\x03\x02\xff\x00\xff\x00AAAAAAAABBBBBBBBCCCCCCCC\x80\x80\x80"))
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, _ := decodeFuzzCase(data)
		if len(pts) == 0 {
			t.Skip()
		}
		shards := 2 + int(data[1]%7)
		builder := func(sub [][]float64) index.Index[[]float64] { return kdtree.New(sub) }
		base, err := RunWithIndex(pts, metric.Euclidean, builder, Params{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, euclidean := range []bool{true, false} {
			got, err := runSharded(pts, metric.Euclidean, builder,
				Params{Workers: 2, Shards: shards}, euclidean)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(normalizedSharded(base), normalizedSharded(got)) {
				t.Fatalf("shards=%d euclidean=%v: result differs from unsharded\nbase:    %s\nsharded: %s\npoints=%v",
					shards, euclidean, summarize(base), summarize(got), pts)
			}
		}
	})
}

func FuzzBridgeRadii(f *testing.F) {
	f.Add([]byte("\x12\x07The quick brown fox jumps over the lazy dog"))
	f.Add([]byte{66, 3, 9, 9, 9, 200, 200, 200, 1, 1, 1, 100, 100, 100, 50, 0, 25})
	f.Add([]byte("\x21\x04\xff\xfe\xfd\xfc\x01\x02\x03\x04\x80\x80\x80\x80AAAABBBB"))
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, radii := decodeFuzzCase(data)
		if len(pts) < 2 {
			t.Skip()
		}
		// Byte 0's high nibble picks the outlier fraction, so the fuzzer
		// steers the inlier/outlier split independently of the geometry.
		outlierEvery := 2 + int(data[0]>>4)%5
		var in, out [][]float64
		for i, p := range pts {
			if i%outlierEvery == 0 {
				out = append(out, p)
			} else {
				in = append(in, p)
			}
		}
		if len(in) == 0 || len(out) == 0 {
			t.Skip()
		}
		// Brute-force oracle: the bucket of each outlier's nearest inlier.
		want := make([]int, len(out))
		for i, q := range out {
			nearest := math.Inf(1)
			for _, p := range in {
				if d := metric.Euclidean(q, p); d < nearest {
					nearest = d
				}
			}
			e := 0
			for e < len(radii) && nearest > radii[e] {
				e++
			}
			want[i] = e
		}
		for name, tr := range fuzzBackends(in) {
			perPoint := join.BridgeRadiiPerPoint(tr, out, radii, 1)
			for i := range want {
				if perPoint[i] != want[i] {
					t.Fatalf("%s: per-point firsts[%d] = %d, brute force = %d\nin=%v out=%v radii=%v",
						name, i, perPoint[i], want[i], in, out, radii)
				}
			}
			for _, workers := range []int{1, 3} {
				dual := tr.(index.CrossMultiCounter[[]float64]).BridgeFirsts(out, radii, workers)
				for i := range want {
					if dual[i] != want[i] {
						t.Fatalf("%s (workers=%d): dual firsts[%d] = %d, brute force = %d\nin=%v out=%v radii=%v",
							name, workers, i, dual[i], want[i], in, out, radii)
					}
				}
			}
		}
	})
}
