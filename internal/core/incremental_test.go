package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mccatch/internal/index"
	"mccatch/internal/metric"
	"mccatch/internal/rtree"
	"mccatch/internal/segment"
)

// The incremental-equivalence property: after ANY insert/delete/freeze/
// compact sequence, the mutable layer holds exactly the script's live
// set in insertion order (the snapshot Detect runs the batch pipeline
// over), and its merged multi-radius counts — the merge Probe and the
// serving layer's coalesced scores run across segments, tombstones and
// the memtable — equal a fresh build's over that set. The oracle is the
// script's own model of the live set, so it shares no code with the
// merge.

func incrRtreeBuilder(workers int) index.Builder[[]float64] {
	return func(sub [][]float64) index.Index[[]float64] {
		return rtree.NewWithWorkers(sub, 0, workers)
	}
}

func checkIncrementalEquivalence[T any](t *testing.T, m *segment.Mutable[T], model []T, builder index.Builder[T]) {
	t.Helper()
	if len(model) == 0 {
		if n := m.Size(); n != 0 {
			t.Fatalf("Size = %d over an empty model", n)
		}
		return
	}
	if live := m.Live(); !reflect.DeepEqual(live, model) {
		t.Fatalf("Live() differs from the script's model\nlive:  %v\nmodel: %v", live, model)
	}
	fresh := builder(model)
	radii := MakeRadii(fresh.DiameterEstimate(), DefaultNumRadii)
	var got, want []int
	for i, q := range model {
		got = m.RangeCountMultiAppend(q, radii, got[:0])
		want = index.RangeCountMultiAppend(fresh, q, radii, want[:0])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("element %d: merged counts = %v, fresh build = %v", i, got, want)
		}
	}
}

// TestIncrementalEquivalenceVectors drives a random mutation script over
// 2d points (small memtable cap → several segments, tombstones, live
// memtable) and checks the live set and the merged counts at
// checkpoints.
func TestIncrementalEquivalenceVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	builder := incrRtreeBuilder(0)
	m := segment.NewMutable(metric.Euclidean, builder, 9)
	var handles []int64
	var model [][]float64
	randPt := func() []float64 {
		// Two clusters plus occasional far-flung outliers.
		cx := float64(rng.Intn(2) * 20)
		p := []float64{cx + math.Round(rng.Float64()*8)/2, math.Round(rng.Float64()*8) / 2}
		if rng.Intn(12) == 0 {
			p[0] += 100
		}
		return p
	}
	for step := 0; step < 150; step++ {
		switch {
		case len(handles) > 4 && rng.Intn(4) == 0:
			j := rng.Intn(len(handles))
			m.Delete(handles[j])
			handles = append(handles[:j], handles[j+1:]...)
			model = append(model[:j], model[j+1:]...)
		case rng.Intn(40) == 0:
			m.Compact()
		default:
			p := randPt()
			handles = append(handles, m.Insert(p))
			model = append(model, p)
		}
		if step%50 == 49 {
			checkIncrementalEquivalence(t, m, model, builder)
		}
	}
	if m.Segments() < 2 && m.Tombstones() == 0 {
		t.Fatalf("script exercised no real merge: segments=%d tombstones=%d", m.Segments(), m.Tombstones())
	}
}

// TestIncrementalEquivalenceStrings repeats the property over a
// nondimensional metric (Levenshtein on words, slim-tree backend).
func TestIncrementalEquivalenceStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	params := Params{}
	builder := SlimBuilder(metric.Levenshtein, params)
	m := segment.NewMutable(metric.Levenshtein, builder, 7)
	alphabet := "abcde"
	randWord := func() string {
		n := 3 + rng.Intn(5)
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		if rng.Intn(10) == 0 {
			return "zzzzzzzzzz" + string(b) // far outlier under edit distance
		}
		return string(b)
	}
	var handles []int64
	var model []string
	for step := 0; step < 80; step++ {
		if len(handles) > 4 && rng.Intn(4) == 0 {
			j := rng.Intn(len(handles))
			m.Delete(handles[j])
			handles = append(handles[:j], handles[j+1:]...)
			model = append(model[:j], model[j+1:]...)
		} else {
			w := randWord()
			handles = append(handles, m.Insert(w))
			model = append(model, w)
		}
		if step%40 == 39 {
			checkIncrementalEquivalence(t, m, model, builder)
		}
	}
}

// FuzzIncrementalEquivalence decodes raw bytes into a mutation script
// (insert / delete / freeze / compact over quantized low-dim points) and
// checks the live set and the merged counts against the script's model
// on the final state. The committed seed corpus lives in
// internal/core/testdata/fuzz/FuzzIncrementalEquivalence/.
func FuzzIncrementalEquivalence(f *testing.F) {
	f.Add([]byte("\x02\x05incremental-mccatch-seed-corpus-0123456789"))
	f.Add([]byte{1, 3, 0, 0, 10, 20, 30, 40, 250, 251, 252, 1, 2, 3, 4, 5, 6, 7, 8, 9, 200, 100})
	f.Add([]byte("\x03\x01\xff\x00\xff\x00\xff\x00AAAABBBBCCCCDDDD\xf0\xf1\xf2"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		dim := 1 + int(data[0]%3)
		memCap := 2 + int(data[1]%9)
		builder := incrRtreeBuilder(1)
		m := segment.NewMutable(metric.Euclidean, builder, memCap)
		var handles []int64
		var model [][]float64
		rest := data[2:]
		for i := 0; i+1 < len(rest) && m.Size() < 80; {
			op := rest[i]
			i++
			switch {
			case op >= 240 && len(handles) > 0: // delete
				j := int(rest[i]) % len(handles)
				i++
				m.Delete(handles[j])
				handles = append(handles[:j], handles[j+1:]...)
				model = append(model[:j], model[j+1:]...)
			case op >= 236: // freeze
				m.Freeze()
			case op >= 232: // compact
				m.Compact()
			default: // insert, consuming dim coordinate bytes
				p := make([]float64, dim)
				for j := range p {
					if i < len(rest) {
						p[j] = 0.5 * float64(int8(rest[i]))
						i++
					}
				}
				handles = append(handles, m.Insert(p))
				model = append(model, p)
			}
		}
		if m.Size() == 0 {
			t.Skip()
		}
		checkIncrementalEquivalence(t, m, model, builder)
	})
}
