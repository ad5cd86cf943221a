package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mccatch"
)

// BenchmarkScoreHTTP measures the full serving stack for /v1/score —
// real HTTP over a loopback listener, JSON decode, batcher, backend
// probe, hand-rolled encode — which is the hot loop every read mix in
// cmd/loadgen saturates. Run with -cpuprofile to see where the
// per-request budget actually goes; the engine probe itself is a few
// microseconds, so almost everything here is transport and codec.
func BenchmarkScoreHTTP(b *testing.B) {
	inc, err := mccatch.NewIncrementalVectors(2)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range testPoints(500, 7) {
		if _, err := inc.Insert(p); err != nil {
			b.Fatal(err)
		}
	}
	s := New[[]float64](Mutable(inc), WithValidator(vecValidator(2)), WithBatch[[]float64](1, 0))
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := []byte(`{"item":[3.5,4.25]}`)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{Timeout: 10 * time.Second}
		for pb.Next() {
			resp, err := client.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
}

// BenchmarkScoreHandler measures the handler in isolation (no sockets):
// decode + batcher + probe + encode via httptest.ResponseRecorder, with
// coalescing off. The gap between this and BenchmarkScoreHTTP is pure
// HTTP transport.
func BenchmarkScoreHandler(b *testing.B) { benchScoreHandler(b, WithBatch[[]float64](1, 0)) }

// BenchmarkScoreHandlerCoalesced is BenchmarkScoreHandler through New's
// default coalescing bounds. A lone client never finds a batch in
// flight, so each score ships at once, and CI holds this within 1.5x of
// the uncoalesced handler: a lone score made to wait for the 500µs
// window, which the netpoller rounds up to 1ms, reads about 100x.
func BenchmarkScoreHandlerCoalesced(b *testing.B) { benchScoreHandler(b) }

func benchScoreHandler(b *testing.B, opts ...Option[[]float64]) {
	inc, err := mccatch.NewIncrementalVectors(2)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range testPoints(500, 7) {
		if _, err := inc.Insert(p); err != nil {
			b.Fatal(err)
		}
	}
	s := New[[]float64](Mutable(inc), append(opts, WithValidator(vecValidator(2)))...)
	defer s.Close()

	body := []byte(`{"item":[3.5,4.25]}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/score", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkScoreHandlerDirty is BenchmarkScoreHandler with an insert
// every 10th iteration — the read90 shape — so the per-epoch radii
// recompute (an O(n) diameter sweep) shows up the way it does under the
// real mix instead of being amortized away by a clean cache.
func BenchmarkScoreHandlerDirty(b *testing.B) {
	inc, err := mccatch.NewIncrementalVectors(2)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range testPoints(500, 7) {
		if _, err := inc.Insert(p); err != nil {
			b.Fatal(err)
		}
	}
	s := New[[]float64](Mutable(inc), WithValidator(vecValidator(2)), WithBatch[[]float64](1, 0))
	defer s.Close()

	body := []byte(`{"item":[3.5,4.25]}`)
	ing := []byte(`{"items":[[3.0,4.0]]}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path, payload := "/v1/score", body
		if i%10 == 9 {
			path, payload = "/v1/ingest", ing
		}
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(payload))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("%s status %d: %s", path, rec.Code, rec.Body)
		}
	}
}
