package core

import (
	"math"
	"testing"
)

func TestPlateausSegmentation(t *testing.T) {
	// Counts over 6 radii: flat at 1, jump, flat at 5, jump, flat at 100.
	q := []int{1, 1, 5, 5, 100, 100}
	ps := plateaus(nil, q, 0.1)
	if len(ps) != 3 {
		t.Fatalf("got %d plateaus, want 3: %+v", len(ps), ps)
	}
	want := []plateau{{0, 1, 1}, {2, 3, 5}, {4, 5, 100}}
	for i := range want {
		if ps[i] != want[i] {
			t.Errorf("plateau %d = %+v, want %+v", i, ps[i], want[i])
		}
	}
}

func TestPlateausQuasiUnaltered(t *testing.T) {
	// Slope b=0.1 tolerates growth up to 2^0.1 ≈ 7% per radius doubling:
	// 100 → 107 stays in the same plateau, 100 → 120 does not.
	ps := plateaus(nil, []int{100, 107, 114}, 0.1)
	if len(ps) != 1 {
		t.Errorf("7%% growth should stay one plateau, got %+v", ps)
	}
	ps = plateaus(nil, []int{100, 120, 144}, 0.1)
	if len(ps) != 3 {
		t.Errorf("20%% growth should break plateaus, got %+v", ps)
	}
}

func TestPlateausStrictSlopeZero(t *testing.T) {
	ps := plateaus(nil, []int{1, 1, 2, 2}, 0)
	if len(ps) != 2 || ps[0].height != 1 || ps[1].height != 2 {
		t.Errorf("b=0: got %+v", ps)
	}
}

func TestPlateausAllFlat(t *testing.T) {
	ps := plateaus(nil, []int{7, 7, 7, 7}, 0.1)
	if len(ps) != 1 || ps[0].start != 0 || ps[0].end != 3 {
		t.Errorf("flat counts should be one plateau, got %+v", ps)
	}
}

func TestPlateausSingleRadius(t *testing.T) {
	ps := plateaus(nil, []int{4}, 0.1)
	if len(ps) != 1 || ps[0].start != 0 || ps[0].end != 0 {
		t.Errorf("single radius: got %+v", ps)
	}
}

func TestFirstPlateauLength(t *testing.T) {
	radii := MakeRadii(128, 8) // 1, 2, 4, ..., 128
	// First plateau [r0, r2]: length 4-1=3.
	ps := []plateau{{0, 2, 1}, {3, 7, 50}}
	if got := firstPlateauLength(ps, radii); got != 3 {
		t.Errorf("x = %v, want 3", got)
	}
	// No height-1 plateau (q1 > 1): x = 0.
	ps = []plateau{{0, 3, 9}, {4, 7, 50}}
	if got := firstPlateauLength(ps, radii); got != 0 {
		t.Errorf("x = %v, want 0 when q1 > 1", got)
	}
	// Single-radius height-1 plateau: length 0 (the radii did not resolve it).
	ps = []plateau{{0, 0, 1}, {1, 7, 50}}
	if got := firstPlateauLength(ps, radii); got != 0 {
		t.Errorf("x = %v, want 0 for a length-0 first plateau", got)
	}
}

func TestMiddlePlateauLength(t *testing.T) {
	radii := MakeRadii(128, 8)
	c := 20
	// Candidates must have 1 < height ≤ c and not end at the diameter.
	ps := []plateau{
		{0, 1, 1},   // first plateau: skipped
		{2, 4, 5},   // candidate: length 16-4 = 12
		{5, 6, 18},  // candidate: length 64-32 = 32 ← largest
		{7, 7, 120}, // ends at diameter AND height > c: skipped
	}
	if got := middlePlateauLength(ps, radii, c); got != 32 {
		t.Errorf("y = %v, want 32", got)
	}
	// Heights above c are excused.
	ps = []plateau{{0, 1, 1}, {2, 5, 50}, {6, 7, 120}}
	if got := middlePlateauLength(ps, radii, c); got != 0 {
		t.Errorf("y = %v, want 0 when all middles are excused", got)
	}
	// A plateau ending at the last radius is the last plateau, never middle.
	ps = []plateau{{0, 1, 1}, {2, 7, 5}}
	if got := middlePlateauLength(ps, radii, c); got != 0 {
		t.Errorf("y = %v, want 0 when the candidate ends at the diameter", got)
	}
}

func TestBinOf(t *testing.T) {
	radii := MakeRadii(128, 8) // 1..128 powers of 2
	if got := binOf(0, radii); got != 0 {
		t.Errorf("binOf(0) = %d, want 0", got)
	}
	if got := binOf(4, radii); got != 2 {
		t.Errorf("binOf(4) = %d, want 2", got)
	}
	// 3 is nearer to 4 than to 2 in log space (log2 3 = 1.58).
	if got := binOf(3, radii); got != 2 {
		t.Errorf("binOf(3) = %d, want 2", got)
	}
	// Lengths above the largest radius clamp to the last bin.
	if got := binOf(1000, radii); got != 7 {
		t.Errorf("binOf(1000) = %d, want 7", got)
	}
}

func TestMakeRadii(t *testing.T) {
	radii := MakeRadii(100, 5)
	want := []float64{100. / 16, 100. / 8, 100. / 4, 100. / 2, 100}
	for i := range want {
		if math.Abs(radii[i]-want[i]) > 1e-12 {
			t.Errorf("radii[%d] = %v, want %v", i, radii[i], want[i])
		}
	}
}
