package kernel

import (
	"testing"

	"mccatch/internal/metric"
)

// FuzzKernelEquivalence is the kernel-vs-oracle target: from an arbitrary
// byte string it derives a dimension (all specialized widths plus generic
// odd ones), a point block, a query and a threshold — every coordinate
// dyadic-quantized (sixteenths) so distances are exactly representable
// and the inclusive boundary d2 == r2 is actually reachable — and then
// cross-checks, bit for bit:
//
//   - SqDist against metric.SquaredEuclidean on every slot;
//   - CountRange, with and without a freeze-time summary, against the
//     brute-force per-slot count over a fuzzed subrange;
//   - Dists over that whole subrange in one call — at an arbitrary
//     offset, the way the dual joins' leaf scans call it — against the
//     oracle on every slot;
//   - RangeBlock's chunks against the oracle, and that a pruned chunk
//     only ever hides distances beyond the threshold (the prefilter's
//     conservativeness guarantee);
//   - blockBounds bracketing the exact distance of every point of every
//     block.
//
// The nightly workflow runs this target for 20s alongside the core
// equivalence fuzzers; any crasher lands in testdata/fuzz as a committed
// regression input.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add([]byte{2, 16, 8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0, 9, 200, 255, 0, 128, 7, 7, 7, 255, 1})
	f.Add([]byte{4, 40, 64, 100, 200, 50, 25, 12, 6, 3, 1, 0, 255, 254, 128, 127, 126})
	f.Add([]byte{3, 3, 0})
	f.Add([]byte{1, 17, 90, 91, 92, 93, 94, 95, 96, 97, 98})

	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 3 {
			return
		}
		dims := []int{2, 3, 4, 5, 8}
		dim := dims[int(raw[0])%len(dims)]
		n := 1 + int(raw[1])%64
		sel := raw[2]
		body := raw[3:]
		coord := func(k int) float64 {
			if len(body) == 0 {
				return 0
			}
			b := body[k%len(body)]
			// Dyadic sixteenths in [-8, 7.9375]: exact in a float64, so
			// squared distances and their sums are exact and boundary
			// collisions happen constantly.
			return float64(int(b)-128) / 16
		}
		pts := make([]float64, n*dim)
		for i := range pts {
			pts[i] = coord(i)
		}
		q := make([]float64, dim)
		for j := range q {
			q[j] = coord(n*dim + j)
		}

		for i := 0; i < n; i++ {
			p := pts[i*dim : (i+1)*dim]
			if got, want := SqDist(q, p), metric.SquaredEuclidean(q, p); got != want {
				t.Fatalf("dim %d slot %d: SqDist = %v, oracle = %v", dim, i, got, want)
			}
		}

		// Threshold: usually an exact indexed distance (the hardest case),
		// sometimes a synthetic dyadic value.
		var r2 float64
		if sel%2 == 0 {
			r2 = metric.SquaredEuclidean(q, pts[(int(sel/2)%n)*dim:][:dim])
		} else {
			r2 = float64(sel) / 4
		}
		first := int(sel) % n
		last := first + 1 + (n-first-1)*int(sel%3)/2
		if last > n {
			last = n
		}

		s := NewSummary(pts, dim, n)
		want := 0
		for i := first; i < last; i++ {
			if metric.SquaredEuclidean(q, pts[i*dim:(i+1)*dim]) <= r2 {
				want++
			}
		}
		if got := CountRange(s, q, pts, first, last, r2); got != want {
			t.Fatalf("dim %d [%d,%d) r2 %v: CountRange(summary) = %d, brute = %d", dim, first, last, r2, got, want)
		}
		if got := CountRange(nil, q, pts, first, last, r2); got != want {
			t.Fatalf("dim %d [%d,%d) r2 %v: CountRange(nil) = %d, brute = %d", dim, first, last, r2, got, want)
		}
		dists := make([]float64, last-first)
		Dists(dists, q, pts, first, last)
		for i, got := range dists {
			if oracle := metric.SquaredEuclidean(q, pts[(first+i)*dim:(first+i+1)*dim]); got != oracle {
				t.Fatalf("dim %d [%d,%d) slot %d: Dists = %v, oracle = %v", dim, first, last, first+i, got, oracle)
			}
		}

		var d2 [Block]float64
		for at := first; at < last; {
			cn, pruned := RangeBlock(&d2, s, q, pts, at, last, r2)
			for i := 0; i < cn; i++ {
				oracle := metric.SquaredEuclidean(q, pts[(at+i)*dim:(at+i+1)*dim])
				if pruned {
					if oracle <= r2 {
						t.Fatalf("dim %d: pruned chunk hides slot %d with d2 %v <= r2 %v", dim, at+i, oracle, r2)
					}
				} else if d2[i] != oracle {
					t.Fatalf("dim %d slot %d: chunk d2 = %v, oracle = %v", dim, at+i, d2[i], oracle)
				}
			}
			at += cn
		}

		if s != nil {
			for b := 0; b < s.blocks; b++ {
				smin, smax := s.blockBounds(b, q)
				end := (b + 1) * Block
				if end > n {
					end = n
				}
				for i := b * Block; i < end; i++ {
					d := SqDist(q, pts[i*dim:(i+1)*dim])
					if smin > d || smax < d {
						t.Fatalf("dim %d block %d slot %d: bounds [%v, %v] miss d2 %v", dim, b, i, smin, smax, d)
					}
				}
			}
		}
	})
}
