package join

import (
	"reflect"
	"testing"

	"mccatch/internal/index"
	"mccatch/internal/kdtree"
	"mccatch/internal/metric"
	"mccatch/internal/rtree"
	"mccatch/internal/slimtree"
)

// decodeStagedCase turns raw fuzz bytes into a staged Step II case:
// byte 0 picks the dimension (1-3) and, divided by 3, the slope b of
// stagedSlopes, byte 1 the schedule length (2-12),
// byte 2 the cap (taken modulo n+1 once the points are known, so 0 and
// n both occur), byte 3 lastIsDiameter (low bit) and the split index
// (the rest, modulo the probed radii, plus 1). The schedule then takes
// one byte per radius increment, in eighths, and the remaining bytes
// become coordinates in halves. Dyadic values keep every distance
// comparison exact, so a mismatch is a real staging bug, never a
// rounding artifact.
func decodeStagedCase(data []byte) (pts [][]float64, radii []float64, cap int, b float64, lastIsDiameter bool, k int) {
	if len(data) < 5 {
		return nil, nil, 0, 0, false, 0
	}
	dim := 1 + int(data[0]%3)
	b = stagedSlopes[int(data[0]/3)%len(stagedSlopes)]
	a := 2 + int(data[1]%11)
	lastIsDiameter = data[3]&1 == 1
	k = 1 + int(data[3]>>1)%probedRadii(a, lastIsDiameter)
	rest := data[4:]
	next := func() byte {
		if len(rest) == 0 {
			return 0
		}
		b := rest[0]
		rest = rest[1:]
		return b
	}
	radii = make([]float64, a)
	r := 0.0
	for e := range radii {
		r += 0.125 * float64(1+int(next()%32))
		radii[e] = r
	}
	for len(rest) >= dim && len(pts) < 96 {
		p := make([]float64, dim)
		for j := range p {
			p[j] = 0.5 * float64(int8(next()))
		}
		pts = append(pts, p)
	}
	return pts, radii, int(data[2]) % (len(pts) + 1), b, lastIsDiameter, k
}

// FuzzStagedCounts checks the staged Step II at a fuzzer-chosen split
// index, and at the one its sample decision picks, against one
// CountAllMulti followed by GateCounts and ClipCounts on every backend,
// at two worker counts; SelfMultiRadiusCounts against the same without
// the clip. The committed seed corpus lives in
// internal/join/testdata/fuzz/FuzzStagedCounts/.
func FuzzStagedCounts(f *testing.F) {
	f.Add([]byte("\x01\x0a\x05\x09staged-step-two-sparse-focused-counts-0123456789"))
	f.Add([]byte{0, 7, 0, 4, 3, 3, 3, 3, 3, 3, 3, 0, 0, 0, 0, 1, 1, 2, 2, 100, 100, 101, 101, 128})
	f.Add([]byte("\x02\x0b\xff\x1bAAAAAAAAAAAAAAAAAABBBBBBBBBBBBCCCCCC\x80\x80\x80\x7f\x7f\x7f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, radii, cap, b, lastIsDiameter, k := decodeStagedCase(data)
		if len(pts) == 0 {
			t.Skip()
		}
		for name, tr := range map[string]index.Index[[]float64]{
			"kdtree":   kdtree.New(pts),
			"rtree":    rtree.New(pts, 0),
			"slimtree": slimtree.New(metric.Euclidean, 0, pts),
		} {
			smc := tr.(index.SelfMultiCounter)
			want := clippedReference(smc, len(pts), radii, cap, b, lastIsDiameter)
			unclipped := gatedReference(smc, len(pts), radii, cap, lastIsDiameter)
			for _, workers := range []int{1, 3} {
				got := stagedCounts(tr, pts, radii, cap, b, lastIsDiameter, workers, k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s (workers=%d) k=%d cap=%d b=%v lastIsDiameter=%v: staged counts differ from CountAllMulti+GateCounts+ClipCounts\ngot:  %v\nwant: %v\npoints=%v radii=%v",
						name, workers, k, cap, b, lastIsDiameter, got, want, pts, radii)
				}
				if got := SelfClippedCounts(tr, pts, radii, cap, b, lastIsDiameter, workers); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s (workers=%d) cap=%d b=%v lastIsDiameter=%v: SelfClippedCounts differs from CountAllMulti+GateCounts+ClipCounts\ngot:  %v\nwant: %v\npoints=%v radii=%v",
						name, workers, cap, b, lastIsDiameter, got, want, pts, radii)
				}
				if got := SelfMultiRadiusCounts(tr, pts, radii, cap, lastIsDiameter, workers); !reflect.DeepEqual(got, unclipped) {
					t.Fatalf("%s (workers=%d) cap=%d lastIsDiameter=%v: SelfMultiRadiusCounts differs from CountAllMulti+GateCounts\ngot:  %v\nwant: %v\npoints=%v radii=%v",
						name, workers, cap, lastIsDiameter, got, unclipped, pts, radii)
				}
			}
		}
	})
}
