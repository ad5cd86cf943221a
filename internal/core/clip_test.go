package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mccatch/internal/data"
	"mccatch/internal/index"
	"mccatch/internal/join"
	"mccatch/internal/kdtree"
	"mccatch/internal/metric"
	"mccatch/internal/rtree"
)

// Step II's counts come clipped (join.ClipCounts): each point's first
// count above c is cut down to U = max(c+1, ⌈q[e−1]·2^(b+δ)⌉). These
// tests hold the clip to its claim, that the plateaus the Oracle reads
// and the Oracle itself do not change: on count curves, exhaustively for
// small n and at random for larger ones, and on whole pipeline runs.

// readPlateaus is what the Oracle reads of a segmentation: the plateaus
// up to the first one higher than c (Defs. 2 and 3 skip it and every
// later one, whose heights are at least as high on a nondecreasing
// curve), and that plateau's start, or -1 when there is none.
func readPlateaus(ps []plateau, c int) ([]plateau, int) {
	for j, pl := range ps {
		if pl.height > c {
			return ps[:j], pl.start
		}
	}
	return ps, -1
}

// checkClipCurves clips the gated curves, one per column of q, and
// fails when a column's read plateaus, OracleX or OracleY differ from
// the unclipped ones.
func checkClipCurves(t *testing.T, label string, q [][]int, radii []float64, b float64, c int, lastIsDiameter bool) {
	t.Helper()
	clipped := make([][]int, len(q))
	for e := range q {
		clipped[e] = append([]int(nil), q[e]...)
	}
	join.ClipCounts(clipped, c, b, lastIsDiameter, 1)
	curve := func(m [][]int, i int) []int {
		col := make([]int, len(m))
		for e := range m {
			col[e] = m[e][i]
		}
		return col
	}
	for i := range q[0] {
		before, after := curve(q, i), curve(clipped, i)
		pb, pa := plateaus(nil, before, b), plateaus(nil, after, b)
		rb, sb := readPlateaus(pb, c)
		ra, sa := readPlateaus(pa, c)
		if fmt.Sprint(rb) != fmt.Sprint(ra) || sb != sa {
			t.Fatalf("%s b=%v c=%d lastIsDiameter=%v: curve %v clipped to %v: read plateaus %v (next at %d) became %v (next at %d)",
				label, b, c, lastIsDiameter, before, after, rb, sb, ra, sa)
		}
		if xb, xa := firstPlateauLength(pb, radii), firstPlateauLength(pa, radii); xb != xa {
			t.Fatalf("%s b=%v c=%d: curve %v clipped to %v: OracleX %v became %v", label, b, c, before, after, xb, xa)
		}
		if yb, ya := middlePlateauLength(pb, radii, c), middlePlateauLength(pa, radii, c); yb != ya {
			t.Fatalf("%s b=%v c=%d: curve %v clipped to %v: OracleY %v became %v", label, b, c, before, after, yb, ya)
		}
	}
}

// gated turns true count curves (columns) into the gated matrix Step II
// starts from.
func gated(curves [][]int, n, c int, lastIsDiameter bool) [][]int {
	a := len(curves[0])
	q := make([][]int, a)
	for e := range q {
		q[e] = make([]int, len(curves))
		for i, cv := range curves {
			q[e][i] = cv[e]
		}
	}
	join.GateCounts(q, n, c, lastIsDiameter, 1)
	return q
}

// clipSlopes are the slopes of the exhaustive check: the strict
// plateau, the default, and slopes whose growth factor 2^b is a whole
// or half number, where a count lands exactly on the slope boundary.
var clipSlopes = []float64{0, 0.1, 0.5, 1, math.Log2(1.5), math.Log2(3), 2, 6}

// TestClipKeepsOracleExhaustive checks every nondecreasing count curve
// over 2 to 5 radii with counts in [1, n], n ≤ 6, at every cap.
func TestClipKeepsOracleExhaustive(t *testing.T) {
	for n := 1; n <= 6; n++ {
		for a := 2; a <= 5; a++ {
			var curves [][]int
			cur := make([]int, a)
			var gen func(e, lo int)
			gen = func(e, lo int) {
				if e == a {
					curves = append(curves, append([]int(nil), cur...))
					return
				}
				for v := lo; v <= n; v++ {
					cur[e] = v
					gen(e+1, v)
				}
			}
			gen(0, 1)
			radii := MakeRadii(float64(int(1)<<(a-1)), a)
			for c := 1; c <= n; c++ {
				for _, b := range clipSlopes {
					for _, lastIsDiameter := range []bool{true, false} {
						checkClipCurves(t, fmt.Sprintf("n=%d a=%d", n, a), gated(curves, n, c, lastIsDiameter), radii, b, c, lastIsDiameter)
					}
				}
			}
		}
	}
}

// TestClipKeepsOracleRandom checks random count curves over the default
// 15 radii, for random slopes in [0, 6], caps and dataset sizes.
func TestClipKeepsOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(5000)
		a := 2 + rng.Intn(14)
		c := 1 + rng.Intn(n)
		b := rng.Float64() * 6
		if trial%10 == 0 {
			b = clipSlopes[rng.Intn(len(clipSlopes))]
		}
		curves := make([][]int, 40)
		for i := range curves {
			cv := make([]int, a)
			v := 1
			for e := range cv {
				// Growth by a random factor up to 4, sometimes a plateau.
				if rng.Intn(3) > 0 {
					v = min(n, v+rng.Intn(3*v+1))
				}
				cv[e] = v
			}
			curves[i] = cv
		}
		radii := MakeRadii(100, a)
		for _, lastIsDiameter := range []bool{true, false} {
			checkClipCurves(t, fmt.Sprintf("trial %d n=%d a=%d", trial, n, a), gated(curves, n, c, lastIsDiameter), radii, b, c, lastIsDiameter)
		}
	}
}

// FuzzClipCounts checks the clip's claim on fuzzer-chosen count curves:
// byte 0 picks the schedule length (2-15), byte 1 the slope b in
// sixteenths up to ~16, byte 2 the cap, byte 3 lastIsDiameter, and the
// rest grow the curves, one byte per radius: the count is multiplied by
// up to 8 in steps of an eighth. The dataset size is the largest count.
func FuzzClipCounts(f *testing.F) {
	f.Add([]byte{13, 2, 20, 1, 0, 0, 8, 9, 16, 63, 0, 0, 64, 0, 8, 8, 8, 8, 8})
	f.Add([]byte{4, 0, 1, 0, 8, 9, 63, 1, 2, 3, 4, 5})
	f.Add([]byte{14, 96, 255, 1, 63, 63, 63, 63, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			t.Skip()
		}
		a := 2 + int(data[0])%14
		b := float64(data[1]) / 16
		lastIsDiameter := data[3]&1 == 1
		rest := data[4:]
		var curves [][]int
		n := 1
		for len(rest) > 0 && len(curves) < 32 {
			cv := make([]int, a)
			v := 1
			for e := range cv {
				if len(rest) > 0 {
					v += v * int(rest[0]%64) / 8
					rest = rest[1:]
				}
				v = min(v, 1<<40)
				cv[e] = v
			}
			n = max(n, v)
			curves = append(curves, cv)
		}
		c := 1 + int(data[2])%n
		checkClipCurves(t, "fuzz", gated(curves, n, c, lastIsDiameter), MakeRadii(1, a), b, c, lastIsDiameter)
	})
}

// unclippedOracle computes OracleX and OracleY from unclipped gated
// counts: one CountAllMulti over a single index, then GateCounts.
func unclippedOracle[T any](tree index.Index[T], n int, radii []float64, b float64, c int) (x, y []float64) {
	q := tree.(index.SelfMultiCounter).CountAllMulti(radii, 1)
	join.GateCounts(q, n, c, true, 1)
	x, y = make([]float64, n), make([]float64, n)
	col := make([]int, len(radii))
	for i := 0; i < n; i++ {
		for e := range radii {
			col[e] = q[e][i]
		}
		ps := plateaus(nil, col, b)
		x[i] = firstPlateauLength(ps, radii)
		y[i] = middlePlateauLength(ps, radii, c)
	}
	return x, y
}

// checkClippedPipeline runs the pipeline at every shard and worker
// count and slope, and holds its Oracle to the one from unclipped
// counts over a single index.
func checkClippedPipeline[T any](t *testing.T, label string, items []T, dist metric.Distance[T], builderFor func(workers int) index.Builder[T], euclidean bool) {
	t.Helper()
	one := builderFor(1)(items)
	for _, b := range []float64{0, 0.1, 1, 5} {
		var wantX, wantY []float64
		for _, shards := range shardCounts {
			for _, workers := range []int{1, 2, 8} {
				res, err := runSharded(items, dist, builderFor(workers), Params{MaxSlope: b, Workers: workers, Shards: shards}, euclidean)
				if err != nil {
					t.Fatalf("%s: b=%v shards=%d workers=%d: %v", label, b, shards, workers, err)
				}
				if wantX == nil {
					wantX, wantY = unclippedOracle(one, len(items), res.Radii, b, res.Params.MaxCardinality)
				}
				for i := range items {
					if res.OracleX[i] != wantX[i] || res.OracleY[i] != wantY[i] {
						t.Fatalf("%s: b=%v shards=%d workers=%d: point %d has Oracle (%v, %v), unclipped counts give (%v, %v)",
							label, b, shards, workers, i, res.OracleX[i], res.OracleY[i], wantX[i], wantY[i])
					}
				}
			}
		}
	}
}

// TestClippedPipelineMatchesUnclippedOracle is the Result-level
// differential check of the clip: vectors on all three backends and
// strings on the slim-tree, at shards 1/2/8, workers 1/2/8 and slopes
// 0, 0.1, 1 and 5.
func TestClippedPipelineMatchesUnclippedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	pts := randomVectorDataset(rng)
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
		checkClippedPipeline(t, "vectors/"+name, pts, metric.Euclidean, builderFor, true)
	}
	words := data.LastNames(300, 6, 1).Words
	checkClippedPipeline(t, "strings/slimtree", words, metric.Levenshtein, slimBuilder[string](metric.Levenshtein), false)
}
