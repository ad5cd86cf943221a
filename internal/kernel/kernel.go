// Package kernel holds the block-vectorized squared-distance kernels the
// arena backends' leaf scans and dual-join base cases bottom out in, plus
// the quantized prune prefilter layered over them (ROADMAP item 4).
//
// PR 5's flat SoA arenas made every subtree's coordinates ONE contiguous
// []float64 range precisely so those scans could stop calling the
// per-point metric.SquaredEuclidean — a call per point, a bounds check
// per dimension, the query reloaded from memory every time — and instead
// stream the range through a tight kernel: the query hoisted into locals,
// the coordinate block sliced once per chunk of Block points, and the
// dimension loop unrolled for the common vector widths (d = 2, 3, 4, 8)
// with a generic fallback for any other d.
//
// Exactness contract: every kernel accumulates each point's squared
// distance in ascending dimension order through the SAME statement shape
// as metric.SquaredEuclidean (d := q[j] - p[j]; s += d*d). Floating-point
// addition is not associative, but a left-to-right accumulation from zero
// is bit-identical whether it runs in the oracle's loop or in an unrolled
// specialization, and keeping the statement shape identical means any
// fused-multiply-add contraction the compiler applies is applied to both
// sides alike. The fuzz target FuzzKernelEquivalence and the backends'
// equivalence suites pin this: kernelized traversals return byte-identical
// results to the per-point originals.
//
// The prefilter (summary.go) never changes a result either: it only skips
// blocks PROVABLY outside a threshold (or settles blocks provably inside
// one), with conservativeness guaranteed at freeze time — see NewSummary.
package kernel

// Block is the kernel granularity: distances are produced in chunks of up
// to Block points, aligned to Block-slot boundaries of the arena so each
// chunk maps to exactly one prefilter summary block.
const Block = 8

// SqDist returns the squared Euclidean distance between q and p,
// bit-identical to metric.SquaredEuclidean but dispatched to an unrolled
// specialization for the common vector widths.
func SqDist(q, p []float64) float64 {
	switch len(q) {
	case 2:
		d := q[0] - p[0]
		s := d * d
		d = q[1] - p[1]
		s += d * d
		return s
	case 3:
		d := q[0] - p[0]
		s := d * d
		d = q[1] - p[1]
		s += d * d
		d = q[2] - p[2]
		s += d * d
		return s
	case 4:
		d := q[0] - p[0]
		s := d * d
		d = q[1] - p[1]
		s += d * d
		d = q[2] - p[2]
		s += d * d
		d = q[3] - p[3]
		s += d * d
		return s
	case 8:
		d := q[0] - p[0]
		s := d * d
		d = q[1] - p[1]
		s += d * d
		d = q[2] - p[2]
		s += d * d
		d = q[3] - p[3]
		s += d * d
		d = q[4] - p[4]
		s += d * d
		d = q[5] - p[5]
		s += d * d
		d = q[6] - p[6]
		s += d * d
		d = q[7] - p[7]
		s += d * d
		return s
	default:
		var s float64
		for j, v := range q {
			d := v - p[j]
			s += d * d
		}
		return s
	}
}

// sqDistsChunk fills d2[0:n] with the squared distances from q to the n
// points stored at slots [at, at+n) of the slot-major coordinate block
// pts (n ≤ Block, dimension = len(q)).
func sqDistsChunk(d2 *[Block]float64, q, pts []float64, at, n int) {
	Dists(d2[:n], q, pts, at, at+n)
}

// Dists fills d2[0:last-first] with the squared distances from q to the
// points stored at slots [first, last) of the slot-major coordinate
// block pts (len(d2) must be at least last-first). Unlike RangeBlock it
// carries no prefilter and no Block alignment: callers that scan a
// range the summary cannot help with (or whose arena has none) make ONE
// call per leaf into a stack buffer, amortizing the dimension dispatch
// and call overhead over the whole range instead of paying it per
// 8-point chunk. The specializations hoist the query into locals and
// slice the coordinate range once, so the inner loop is pure streaming
// arithmetic with no bounds checks per dimension.
func Dists(d2 []float64, q, pts []float64, first, last int) {
	at, n := first, last-first
	switch len(q) {
	case 2:
		q0, q1 := q[0], q[1]
		c := pts[at*2 : (at+n)*2]
		for i := 0; i < n; i++ {
			d := q0 - c[2*i]
			s := d * d
			d = q1 - c[2*i+1]
			s += d * d
			d2[i] = s
		}
	case 3:
		q0, q1, q2 := q[0], q[1], q[2]
		c := pts[at*3 : (at+n)*3]
		for i := 0; i < n; i++ {
			d := q0 - c[3*i]
			s := d * d
			d = q1 - c[3*i+1]
			s += d * d
			d = q2 - c[3*i+2]
			s += d * d
			d2[i] = s
		}
	case 4:
		q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
		c := pts[at*4 : (at+n)*4]
		for i := 0; i < n; i++ {
			d := q0 - c[4*i]
			s := d * d
			d = q1 - c[4*i+1]
			s += d * d
			d = q2 - c[4*i+2]
			s += d * d
			d = q3 - c[4*i+3]
			s += d * d
			d2[i] = s
		}
	case 8:
		q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
		q4, q5, q6, q7 := q[4], q[5], q[6], q[7]
		c := pts[at*8 : (at+n)*8]
		for i := 0; i < n; i++ {
			d := q0 - c[8*i]
			s := d * d
			d = q1 - c[8*i+1]
			s += d * d
			d = q2 - c[8*i+2]
			s += d * d
			d = q3 - c[8*i+3]
			s += d * d
			d = q4 - c[8*i+4]
			s += d * d
			d = q5 - c[8*i+5]
			s += d * d
			d = q6 - c[8*i+6]
			s += d * d
			d = q7 - c[8*i+7]
			s += d * d
			d2[i] = s
		}
	default:
		dim := len(q)
		c := pts[at*dim : (at+n)*dim]
		// Four points per pass: each keeps its own accumulator, walked in
		// ascending dimension order (the exactness contract above), so the
		// four dependency chains overlap instead of serializing on one
		// accumulator's add latency — at d=32 this alone is ~1.6x.
		i := 0
		for ; i+4 <= n; i += 4 {
			r0 := c[i*dim : (i+1)*dim]
			r1 := c[(i+1)*dim : (i+2)*dim]
			r2 := c[(i+2)*dim : (i+3)*dim]
			r3 := c[(i+3)*dim : (i+4)*dim]
			var s0, s1, s2, s3 float64
			for j, v := range q {
				d := v - r0[j]
				s0 += d * d
				d = v - r1[j]
				s1 += d * d
				d = v - r2[j]
				s2 += d * d
				d = v - r3[j]
				s3 += d * d
			}
			d2[i], d2[i+1], d2[i+2], d2[i+3] = s0, s1, s2, s3
		}
		for ; i < n; i++ {
			row := c[i*dim : i*dim+dim]
			var s float64
			for j, v := range q {
				d := v - row[j]
				s += d * d
			}
			d2[i] = s
		}
	}
}

// CountRange returns how many points of slots [first, last) of pts lie
// within squared distance r2 of q (inclusive), identical to testing
// SqDist(q, point) <= r2 per slot. With a non-nil summary, blocks whose
// conservative minimum bound exceeds r2 are skipped without arithmetic
// and blocks whose maximum bound is within r2 are counted wholesale; the
// exact kernel runs only on the survivors.
func CountRange(s *Summary, q, pts []float64, first, last int, r2 float64) int {
	count := 0
	var d2 [Block]float64
	for at := first; at < last; {
		end := (at/Block + 1) * Block
		if end > last {
			end = last
		}
		n := end - at
		if s != nil {
			smin, smax := s.blockBounds(at/Block, q)
			if smin > r2 {
				at = end
				continue
			}
			if smax <= r2 {
				count += n
				at = end
				continue
			}
		}
		sqDistsChunk(&d2, q, pts, at, n)
		for i := 0; i < n; i++ {
			if d2[i] <= r2 {
				count++
			}
		}
		at = end
	}
	return count
}

// RangeBlock computes the squared distances from q to the next
// summary-aligned chunk of slots starting at `at` within [at, last),
// writing them to d2[0:n] and returning the chunk length n. When the
// summary proves every point of the chunk lies beyond the squared
// threshold, it returns pruned = true with d2 unspecified — the caller
// skips the chunk, which cannot change its result because every skipped
// distance would have failed its threshold test anyway. Callers iterate
// a range as
//
//	for at := first; at < last; {
//		n, pruned := kernel.RangeBlock(&d2, sum, q, pts, at, last, r2)
//		if !pruned { ...consume d2[0:n] for slots at..at+n... }
//		at += n
//	}
func RangeBlock(d2 *[Block]float64, s *Summary, q, pts []float64, at, last int, threshold float64) (n int, pruned bool) {
	end := (at/Block + 1) * Block
	if end > last {
		end = last
	}
	n = end - at
	if s != nil {
		if smin, _ := s.blockBounds(at/Block, q); smin > threshold {
			return n, true
		}
	}
	sqDistsChunk(d2, q, pts, at, n)
	return n, false
}
