package slimtree

import "mccatch/internal/parallel"

// CountAllCapped sets dst[id] = min(the number of indexed elements
// within r of element id, limits[id]) for every element with a positive
// limit, one capped probe (RangeCountCapped) per element.
func (t *Tree[T]) CountAllCapped(r float64, limits, dst []int, workers int) {
	parallel.For(workers, len(t.eID), func(k int) {
		if t.eChild[k] >= 0 {
			return
		}
		if id := t.eID[k]; limits[id] > 0 {
			dst[id] = t.RangeCountCapped(t.ePivot[k], r, limits[id])
		}
	})
}
