package dualjoin

import (
	"math/rand"
	"reflect"
	"testing"
)

// foldUnit is one synthetic leaf scan: FoldSelf over [aFirst, aLast),
// FoldPairs over [aFirst, aLast) × [bFirst, bLast), or FoldCross of the
// queries [aFirst, aLast) against [bFirst, bLast), for the window
// [lo, nh).
type foldUnit struct {
	kind                         string
	aFirst, aLast, bFirst, bLast int
	lo, nh                       int
}

// pairCredits is the per-pair oracle the folds must reproduce: it
// credits one close pair into diff's position row p over [b, nh), where
// b is the first radius of the window [lo, nh) that contains d2.
func pairCredits(diff [][]int, p int, d2 float64, r2 []float64, lo, nh int) {
	for b := lo; b < nh; b++ {
		if d2 <= r2[b] {
			diff[p][b]++
			diff[p][nh]--
			return
		}
	}
}

// TestFoldsMatchPairCredits drives the three leaf-scan folds through
// CountMatrix with random shapes — ranges wider than the scratch floors,
// windows anywhere in a 30-radius schedule with repeated radii, points
// on a coarse dyadic grid so duplicates and boundary ties are common —
// and checks the matrix against crediting every close pair one at a
// time, in direct mode (1 worker) and buffered mode (4 workers). The
// units share each worker's scratch in arbitrary order, so a fold that
// left a tally behind would credit it again.
func TestFoldsMatchPairCredits(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const n, m, dim = 300, 120, 2
	grid := func(k int) []float64 {
		c := make([]float64, k*dim)
		for i := range c {
			c[i] = float64(rng.Intn(48)) / 8
		}
		return c
	}
	pts, qpts := grid(n), grid(m)
	var r2 []float64
	for r := 0.01; len(r2) < 30; {
		r2 = append(r2, r*r)
		if rng.Intn(4) > 0 {
			r *= 1.3
		}
	}
	a := len(r2)
	sq := func(c []float64, p int, d []float64, q int) float64 {
		s := 0.0
		for j := 0; j < dim; j++ {
			v := c[p*dim+j] - d[q*dim+j]
			s += v * v
		}
		return s
	}

	var self, cross []foldUnit
	for len(self)+len(cross) < 300 {
		lo := rng.Intn(a)
		u := foldUnit{lo: lo, nh: lo + 1 + rng.Intn(a-lo)}
		switch rng.Intn(3) {
		case 0:
			u.kind = "self"
			u.aFirst = rng.Intn(n)
			u.aLast = u.aFirst + 1 + rng.Intn(min(n-u.aFirst, 150))
			self = append(self, u)
		case 1:
			u.kind = "pairs"
			split := 1 + rng.Intn(n-1)
			u.aFirst = rng.Intn(split)
			u.aLast = u.aFirst + 1 + rng.Intn(split-u.aFirst)
			u.bFirst = split + rng.Intn(n-split)
			u.bLast = u.bFirst + 1 + rng.Intn(n-u.bFirst)
			self = append(self, u)
		default:
			u.kind = "cross"
			u.aFirst = rng.Intn(m)
			u.aLast = u.aFirst + 1 + rng.Intn(m-u.aFirst)
			u.bFirst = rng.Intn(n)
			u.bLast = u.bFirst + 1 + rng.Intn(n-u.bFirst)
			cross = append(cross, u)
		}
	}

	// The oracle: every close pair credited one at a time, prefix-summed.
	want := func(units []foldUnit, rows int) [][]int {
		diff := make([][]int, rows)
		for p := range diff {
			diff[p] = make([]int, a+1)
		}
		for _, u := range units {
			switch u.kind {
			case "self":
				for i := u.aFirst; i < u.aLast; i++ {
					for j := i; j < u.aLast; j++ {
						d2 := sq(pts, i, pts, j)
						pairCredits(diff, i, d2, r2, u.lo, u.nh)
						if j != i {
							pairCredits(diff, j, d2, r2, u.lo, u.nh)
						}
					}
				}
			case "pairs":
				for i := u.aFirst; i < u.aLast; i++ {
					for j := u.bFirst; j < u.bLast; j++ {
						d2 := sq(pts, i, pts, j)
						pairCredits(diff, i, d2, r2, u.lo, u.nh)
						pairCredits(diff, j, d2, r2, u.lo, u.nh)
					}
				}
			case "cross":
				for i := u.aFirst; i < u.aLast; i++ {
					for j := u.bFirst; j < u.bLast; j++ {
						pairCredits(diff, i, sq(qpts, i, pts, j), r2, u.lo, u.nh)
					}
				}
			}
		}
		counts := make([][]int, a)
		for e := range counts {
			counts[e] = make([]int, rows)
		}
		for p, row := range diff {
			run := 0
			for e := 0; e < a; e++ {
				run += row[e]
				counts[e][p] = run
			}
		}
		return counts
	}
	got := func(units []foldUnit, rows, workers int) [][]int {
		return CountMatrix(a, rows, 0, workers, len(units), func(k int, acc *Acc) {
			switch u := units[k]; u.kind {
			case "self":
				acc.FoldSelf(pts, dim, u.aFirst, u.aLast, r2, u.lo, u.nh)
			case "pairs":
				acc.FoldPairs(pts, dim, u.aFirst, u.aLast, u.bFirst, u.bLast, r2, u.lo, u.nh)
			case "cross":
				acc.FoldCross(qpts, pts, dim, u.aFirst, u.aLast, u.bFirst, u.bLast, r2, u.lo, u.nh)
			}
		}, testRange, testIDOf)
	}
	for _, c := range []struct {
		name  string
		units []foldUnit
		rows  int
	}{{"self+pairs", self, n}, {"cross", cross, m}} {
		w := want(c.units, c.rows)
		for _, workers := range []int{1, 4} {
			if g := got(c.units, c.rows, workers); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s (workers=%d): folded counts differ from per-pair credits", c.name, workers)
			}
		}
	}
}
