package slimtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"mccatch/internal/metric"
)

// This file pins the frozen arena layout itself: the structural
// invariants every traversal and dual join relies on (entry ranges that
// partition the SoA arrays in node order, child/parent links, contiguous
// per-subtree element ranges over the packed leafIDs block), and — via
// the thawed pointer tree and a retained copy of the pre-arena pointer
// traversal — that the arena answers queries identically to the linked
// shape it froze.

// thaw rebuilds the linked tree from the arena (the inverse of freeze),
// for the retained pointer traversal below.
func (t *Tree[T]) thaw() *node[T] {
	var build func(n int32) *node[T]
	build = func(n int32) *node[T] {
		nn := &node[T]{leaf: t.leaf[n], entries: make([]entry[T], 0, t.entLast[n]-t.entFirst[n])}
		for k := t.entFirst[n]; k < t.entLast[n]; k++ {
			e := entry[T]{
				pivot:  t.ePivot[k],
				id:     int(t.eID[k]),
				radius: t.eRD[2*k],
				dPar:   t.eRD[2*k+1],
				count:  int(t.eCount[k]),
			}
			if c := t.eChild[k]; c >= 0 {
				e.child = build(c)
			}
			nn.entries = append(nn.entries, e)
		}
		return nn
	}
	return build(0)
}

// MaxCoverError returns the largest violation of the covering invariant
// (every element within its ancestors' covering balls); it must be 0 on a
// well-formed tree.
func (t *Tree[T]) MaxCoverError() float64 {
	if len(t.leaf) == 0 {
		return 0
	}
	worst := 0.0
	var visit func(n int32, anc []int32)
	visit = func(n int32, anc []int32) {
		for k := t.entFirst[n]; k < t.entLast[n]; k++ {
			if t.leaf[n] {
				for _, a := range anc {
					if v := t.d(t.ePivot[k], t.ePivot[a]) - t.eRD[2*a]; v > worst {
						worst = v
					}
				}
				continue
			}
			visit(t.eChild[k], append(anc, k))
		}
	}
	visit(0, nil)
	return math.Max(worst, 0)
}

func arenaCheck[T any](t *testing.T, tr *Tree[T], n int) {
	t.Helper()
	slots := len(tr.leaf)
	if slots == 0 {
		if n != 0 {
			t.Fatal("non-empty tree has no arena")
		}
		return
	}
	if tr.parent[0] != noEntry {
		t.Fatal("root must have no parent")
	}
	childOf := make([]int, slots)
	nextEnt := int32(0)
	for s := 0; s < slots; s++ {
		if tr.entFirst[s] != nextEnt || tr.entLast[s] < tr.entFirst[s] {
			t.Fatalf("node %d: entry range [%d,%d) does not continue the arena at %d",
				s, tr.entFirst[s], tr.entLast[s], nextEnt)
		}
		nextEnt = tr.entLast[s]
		elems := int32(0)
		for k := tr.entFirst[s]; k < tr.entLast[s]; k++ {
			if ch := tr.eChild[k]; ch >= 0 {
				if tr.leaf[s] {
					t.Fatalf("leaf node %d holds an internal entry", s)
				}
				childOf[ch]++
				if tr.parent[ch] != int32(s) {
					t.Fatalf("entry %d: child node %d has parent %d, want %d", k, ch, tr.parent[ch], s)
				}
				if int(tr.eCount[k]) != int(tr.elemLast[ch]-tr.elemFirst[ch]) {
					t.Fatalf("entry %d: count %d != child element range %d",
						k, tr.eCount[k], tr.elemLast[ch]-tr.elemFirst[ch])
				}
				if tr.elemFirst[ch] != tr.elemFirst[s]+elems {
					t.Fatalf("entry %d: child element range not contiguous within the node's", k)
				}
				elems += tr.eCount[k]
				if tr.ePos[k] != noEntry || tr.eID[k] != noEntry {
					t.Fatalf("internal entry %d carries a leaf position or id", k)
				}
				continue
			}
			if !tr.leaf[s] {
				t.Fatalf("internal node %d holds a leaf entry", s)
			}
			if tr.eCount[k] != 1 {
				t.Fatalf("leaf entry %d: count %d, want 1", k, tr.eCount[k])
			}
			wantPos := tr.elemFirst[s] + (k - tr.entFirst[s])
			if tr.ePos[k] != wantPos {
				t.Fatalf("leaf entry %d: position %d, want %d", k, tr.ePos[k], wantPos)
			}
			if tr.leafIDs[tr.ePos[k]] != tr.eID[k] {
				t.Fatalf("leaf entry %d: leafIDs[%d]=%d, entry id %d",
					k, tr.ePos[k], tr.leafIDs[tr.ePos[k]], tr.eID[k])
			}
			elems++
		}
		if int32(elems) != tr.elemLast[s]-tr.elemFirst[s] {
			t.Fatalf("node %d: element range %d, entries under it %d",
				s, tr.elemLast[s]-tr.elemFirst[s], elems)
		}
	}
	if int(nextEnt) != len(tr.eID) {
		t.Fatalf("entry ranges cover %d entries, arena has %d", nextEnt, len(tr.eID))
	}
	for s := 1; s < slots; s++ {
		if childOf[s] != 1 {
			t.Fatalf("node %d claimed by %d internal entries, want exactly 1", s, childOf[s])
		}
	}
	// leafIDs is a permutation of [0, n).
	seen := make([]bool, n)
	for _, id := range tr.leafIDs {
		if seen[id] {
			t.Fatalf("element %d packed twice", id)
		}
		seen[id] = true
	}
	if len(tr.leafIDs) != n {
		t.Fatalf("packed %d elements, want %d", len(tr.leafIDs), n)
	}
	if e := tr.MaxCoverError(); e != 0 {
		t.Fatalf("covering invariant violated by %v", e)
	}
}

// TestArenaInvariants freezes random trees and checks every structural
// invariant of the arena.
func TestArenaInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 8; trial++ {
		n := 1 + rng.Intn(900)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.Float64() * 100, rng.Float64() * 100}
		}
		arenaCheck(t, New(metric.Euclidean, 0, pts), n)
	}
}

// --- Retained reference: the pre-arena pointer traversal over the
// thawed linked tree (rangeVisit as it was before the flattening). ---

func refRangeVisit[T any](dist metric.Distance[T], n *node[T], q T, r, dq float64, ids *[]int) int {
	count := 0
	for i := range n.entries {
		e := &n.entries[i]
		if !math.IsNaN(dq) && math.Abs(dq-e.dPar) > r+e.radius {
			continue
		}
		d := dist(q, e.pivot)
		if n.leaf {
			if d <= r {
				count++
				if ids != nil {
					*ids = append(*ids, e.id)
				}
			}
			continue
		}
		if ids == nil && d+e.radius <= r {
			count += e.count
			continue
		}
		if d <= r+e.radius {
			count += refRangeVisit(dist, e.child, q, r, d, ids)
		}
	}
	return count
}

// TestArenaMatchesReferencePointerBuild thaws the frozen arena back into
// the linked shape and demands the arena traversals answer identically
// to the retained pointer traversal on random probes, on counts, batched
// counts and id sets.
func TestArenaMatchesReferencePointerBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 8; trial++ {
		n := 1 + rng.Intn(600)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.Float64() * 50, rng.Float64() * 50}
		}
		tr := New(metric.Euclidean, 0, pts)
		ref := tr.thaw()
		diam := tr.DiameterEstimate()
		radii := make([]float64, 9)
		for e := range radii {
			radii[e] = diam / float64(int(1)<<(len(radii)-1-e))
		}
		for probe := 0; probe < 8; probe++ {
			q := pts[rng.Intn(n)]
			r := rng.Float64() * diam
			if got, want := tr.RangeCount(q, r), refRangeVisit(metric.Euclidean, ref, q, r, math.NaN(), nil); got != want {
				t.Fatalf("RangeCount=%d, reference %d", got, want)
			}
			multi := tr.RangeCountMulti(q, radii)
			for e, rr := range radii {
				if want := refRangeVisit(metric.Euclidean, ref, q, rr, math.NaN(), nil); multi[e] != want {
					t.Fatalf("RangeCountMulti[%d]=%d, reference %d", e, multi[e], want)
				}
			}
			var wantIDs []int
			refRangeVisit(metric.Euclidean, ref, q, r, math.NaN(), &wantIDs)
			gotIDs := tr.RangeQuery(q, r)
			sort.Ints(gotIDs)
			sort.Ints(wantIDs)
			if len(gotIDs) != len(wantIDs) {
				t.Fatalf("RangeQuery returned %d ids, reference %d", len(gotIDs), len(wantIDs))
			}
			for i := range gotIDs {
				if gotIDs[i] != wantIDs[i] {
					t.Fatal("RangeQuery id sets differ from reference")
				}
			}
		}
	}
}
