package arena_test

// FuzzIndexFileOpen throws arbitrary bytes at the whole decode path — the
// arena header/column parser plus every backend's reconstruction and
// structural validation — and asserts the contract the error-handling
// satellite promises: a corrupt or crafted index file yields a wrapped
// ErrBadIndexFile-family error, never a panic, an out-of-bounds access,
// or a non-terminating traversal. Decoded files that do pass validation
// get a few queries run over them, so the invariants the validators
// enforce are exercised, not just computed.
//
// The committed seed corpus (testdata/fuzz/FuzzIndexFileOpen) holds one
// valid file per backend kind plus truncation/corruption variants;
// gen_corpus_test.go regenerates it.

import (
	"errors"
	"testing"

	"mccatch/internal/arena"
	"mccatch/internal/kdtree"
	"mccatch/internal/metric"
	"mccatch/internal/rtree"
	"mccatch/internal/slimtree"
)

// fuzzQueryCap bounds the work done on a structurally valid decode so the
// fuzzer spends its budget parsing, not range-counting giant inputs.
// fuzzStrCap is much tighter: string queries pay O(len²) per Levenshtein
// call, so a single crafted 64 KiB word would stall an exec for seconds
// (and stall minimization for minutes).
const (
	fuzzQueryCap = 1 << 12
	fuzzStrCap   = 1 << 10
)

func FuzzIndexFileOpen(f *testing.F) {
	for _, seed := range corpusSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		af, err := arena.Decode(data)
		if err != nil {
			requireClassified(t, err)
			return
		}
		switch af.Kind {
		case arena.KindKD:
			tr, err := kdtree.FromFile(af)
			if err != nil {
				requireClassified(t, err)
				return
			}
			if tr.Size() > 0 && tr.Size() <= fuzzQueryCap {
				q := tr.Items()[0]
				tr.RangeCount(q, tr.DiameterEstimate()/2)
				tr.KNN(q, 2)
			}
		case arena.KindR:
			tr, err := rtree.FromFile(af)
			if err != nil {
				requireClassified(t, err)
				return
			}
			if tr.Size() > 0 && tr.Size() <= fuzzQueryCap {
				q := tr.Items()[0]
				tr.RangeCount(q, tr.DiameterEstimate()/2)
			}
		case arena.KindSlimVec:
			tr, err := slimtree.FromFileVec(af)
			if err != nil {
				requireClassified(t, err)
				return
			}
			if tr.Size() > 0 && tr.Size() <= fuzzQueryCap {
				q := tr.Items()[0]
				tr.RangeCount(q, tr.DiameterEstimate()/2)
			}
		case arena.KindSlimStr:
			tr, err := slimtree.FromFileStr(af, metric.Levenshtein)
			if err != nil {
				requireClassified(t, err)
				return
			}
			if n := tr.Size(); n > 0 && n <= fuzzQueryCap && len(data) <= fuzzStrCap {
				q := tr.Items()[0]
				tr.RangeCount(q, 2)
			}
		default:
			t.Fatalf("Decode accepted unknown kind %v", af.Kind)
		}
	})
}

// requireClassified asserts a decode failure carries one of the exported
// sentinels, so callers can triage it with errors.Is.
func requireClassified(t *testing.T, err error) {
	t.Helper()
	for _, sentinel := range []error{
		arena.ErrBadIndexFile, arena.ErrIndexVersion, arena.ErrTruncated,
		arena.ErrChecksum, arena.ErrIndexKind,
	} {
		if errors.Is(err, sentinel) {
			return
		}
	}
	t.Fatalf("unclassified decode error: %v", err)
}

// corpusSeeds builds the in-code seeds: a small valid file for every
// backend kind, plus a truncated and a bit-flipped variant of the first.
func corpusSeeds(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte
	for _, file := range seedFiles(f) {
		seeds = append(seeds, file)
	}
	if len(seeds) > 0 && len(seeds[0]) > 100 {
		trunc := append([]byte(nil), seeds[0][:100]...)
		flipped := append([]byte(nil), seeds[0]...)
		flipped[96] ^= 0x40
		seeds = append(seeds, trunc, flipped)
	}
	return seeds
}

// seedFiles encodes one small valid index file per backend kind.
func seedFiles(tb testing.TB) [][]byte {
	tb.Helper()
	pts := [][]float64{{0, 0}, {1, 0}, {0, 1}, {4, 4}, {9, 1}, {2, 7}, {5, 5}}
	words := []string{"smith", "smyth", "jones", "jonas", "zzz"}
	var out [][]byte
	{
		var buf writerBuf
		if err := kdtree.New(pts).Save(&buf); err != nil {
			tb.Fatal(err)
		}
		out = append(out, buf.b)
	}
	{
		var buf writerBuf
		if err := rtree.New(pts, 4).Save(&buf); err != nil {
			tb.Fatal(err)
		}
		out = append(out, buf.b)
	}
	{
		var buf writerBuf
		if err := slimtree.New(metric.Euclidean, 4, pts).Save(&buf); err != nil {
			tb.Fatal(err)
		}
		out = append(out, buf.b)
	}
	{
		var buf writerBuf
		if err := slimtree.New(metric.Levenshtein, 4, words).Save(&buf); err != nil {
			tb.Fatal(err)
		}
		out = append(out, buf.b)
	}
	return out
}

type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}
