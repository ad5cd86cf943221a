package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mccatch"
)

func testPoints(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{rng.Float64() * 30, rng.Float64() * 30}
		if i%17 == 0 {
			pts[i][0] += 400 // far outliers so Detect finds microclusters
		}
	}
	return pts
}

func vecValidator(dim int) func([]float64) error {
	return func(p []float64) error {
		if len(p) != dim {
			return fmt.Errorf("point has dimension %d, want %d", len(p), dim)
		}
		return nil
	}
}

// do runs one request through the handler and decodes the JSON reply.
func do(t *testing.T, h http.Handler, method, path, body string) (int, map[string]json.RawMessage) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var m map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("%s %s: non-JSON reply %q", method, path, rec.Body.String())
	}
	return rec.Code, m
}

func scoreBody(p []float64) string {
	b, _ := json.Marshal(map[string]any{"item": p})
	return string(b)
}

// TestCoalescedMatchesSerial is the acceptance criterion's equivalence
// check: for every micro-batch size, concurrent coalesced score-point
// requests return counts deep-equal to per-request serial Probe results
// — on both the lock-free read-only backend and the mutex-serialized
// incremental backend.
func TestCoalescedMatchesSerial(t *testing.T) {
	pts := testPoints(120, 3)
	d, err := mccatch.BuildVectors(pts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	inc, err := mccatch.NewIncrementalVectors(2)
	if err != nil {
		t.Fatal(err)
	}
	inc.SetMemtableCap(32)
	for _, p := range pts {
		if _, err := inc.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	const requests = 24
	want := make([][]int, requests)
	for i := range want {
		if want[i], err = d.Probe(pts[i]); err != nil {
			t.Fatal(err)
		}
	}
	for name, backend := range map[string]Backend[[]float64]{
		"readonly": ReadOnly(d), "incremental": Mutable(inc),
	} {
		for _, maxBatch := range []int{1, 2, 3, 4, 8, 32} {
			t.Run(fmt.Sprintf("%s/batch=%d", name, maxBatch), func(t *testing.T) {
				s := New(backend,
					WithBatch[[]float64](maxBatch, 20*time.Millisecond),
					WithValidator(vecValidator(2)))
				defer s.Close()
				var wg sync.WaitGroup
				errs := make(chan error, requests)
				for i := 0; i < requests; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						code, m := doQuiet(s, "POST", "/v1/score", scoreBody(pts[i]))
						if code != http.StatusOK {
							errs <- fmt.Errorf("request %d: status %d (%s)", i, code, m["error"])
							return
						}
						var counts []int
						if err := json.Unmarshal(m["counts"], &counts); err != nil {
							errs <- err
							return
						}
						if !reflect.DeepEqual(counts, want[i]) {
							errs <- fmt.Errorf("request %d: counts %v, want %v", i, counts, want[i])
						}
					}(i)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Error(err)
				}
			})
		}
	}
}

// doQuiet is do without a testing.T (for use inside goroutines).
func doQuiet(h http.Handler, method, path, body string) (int, map[string]json.RawMessage) {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var m map[string]json.RawMessage
	_ = json.Unmarshal(rec.Body.Bytes(), &m)
	return rec.Code, m
}

// TestServeErrorPaths covers the satellite checklist: malformed bodies,
// detect on an empty collection, wrong dimensionality, mutations against
// a read-only backend.
func TestServeErrorPaths(t *testing.T) {
	pts := testPoints(40, 9)
	d, err := mccatch.BuildVectors(pts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ro := New(ReadOnly(d), WithValidator(vecValidator(2)))
	defer ro.Close()

	empty, err := mccatch.NewIncrementalVectors(2)
	if err != nil {
		t.Fatal(err)
	}
	es := New(Mutable(empty), WithValidator(vecValidator(2)))
	defer es.Close()

	cases := []struct {
		name    string
		h       http.Handler
		method  string
		path    string
		body    string
		status  int
		errPart string
	}{
		{"malformed score", ro, "POST", "/v1/score", "{not json", http.StatusBadRequest, "malformed body"},
		{"score missing item", ro, "POST", "/v1/score", "{}", http.StatusBadRequest, "missing item"},
		{"score non-vector item", ro, "POST", "/v1/score", `{"item":"abc"}`, http.StatusBadRequest, "item"},
		{"score wrong dim", ro, "POST", "/v1/score", `{"item":[1,2,3]}`, http.StatusBadRequest, "dimension 3"},
		{"malformed ingest", ro, "POST", "/v1/ingest", "[", http.StatusBadRequest, "malformed body"},
		{"ingest no items", ro, "POST", "/v1/ingest", "{}", http.StatusBadRequest, "no items"},
		{"ingest read-only", ro, "POST", "/v1/ingest", `{"items":[[1,2]]}`, http.StatusConflict, "read-only"},
		{"delete read-only", ro, "POST", "/v1/delete", `{"handles":[0]}`, http.StatusConflict, "read-only"},
		{"malformed delete", ro, "POST", "/v1/delete", "nope", http.StatusBadRequest, "malformed body"},
		{"ingest wrong dim", es, "POST", "/v1/ingest", `{"items":[[1,2],[1]]}`, http.StatusBadRequest, "item 1"},
		{"detect empty", es, "GET", "/v1/detect", "", http.StatusUnprocessableEntity, "empty"},
		{"topk empty", es, "GET", "/v1/topk", "", http.StatusUnprocessableEntity, "empty"},
		{"topk bad k", ro, "GET", "/v1/topk?k=zero", "", http.StatusBadRequest, "bad k"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, m := do(t, tc.h, tc.method, tc.path, tc.body)
			if code != tc.status {
				t.Fatalf("status %d, want %d (%s)", code, tc.status, m["error"])
			}
			if tc.errPart != "" && !strings.Contains(string(m["error"]), tc.errPart) {
				t.Errorf("error %s does not mention %q", m["error"], tc.errPart)
			}
		})
	}

	// A wrong-dim ingest must not half-ingest: item 0 was valid but the
	// batch had an invalid item, so nothing may have landed.
	if n := empty.Len(); n != 0 {
		t.Errorf("failed ingest left %d items behind", n)
	}
}

// TestBodyLimit pins the request-body cap on every route that reads a
// body: a body of exactly maxBodyBytes is read and answered, one byte
// more gets 413. The padding is leading whitespace, so the decoder has
// to read past it before it sees any JSON value.
func TestBodyLimit(t *testing.T) {
	inc, err := mccatch.NewIncrementalVectors(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range testPoints(60, 4) {
		if _, err := inc.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	s := New(Mutable(inc), WithValidator(vecValidator(2)), WithBatch[[]float64](1, 0))
	defer s.Close()
	pad := func(body string, n int) string { return strings.Repeat(" ", n-len(body)) + body }
	for _, tc := range []struct{ path, body string }{
		{"/v1/ingest", `{"items":[[1,2]]}`},
		{"/v1/delete", `{"handles":[123456]}`},
		{"/v1/score", `{"item":[1,2]}`},
	} {
		if code, m := do(t, s, "POST", tc.path, pad(tc.body, maxBodyBytes)); code != http.StatusOK {
			t.Errorf("%s at the cap: status %d (%s), want 200", tc.path, code, m["error"])
		}
		code, m := do(t, s, "POST", tc.path, pad(tc.body, maxBodyBytes+1))
		if code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s one byte over the cap: status %d (%s), want 413", tc.path, code, m["error"])
		}
	}
}

// heldBackend wraps a Backend so that its first ProbeBatch call signals
// entered and then blocks until release is closed; later calls pass
// straight through.
type heldBackend[T any] struct {
	Backend[T]
	first   sync.Once
	entered chan struct{}
	release chan struct{}
}

func newHeldBackend[T any](b Backend[T]) *heldBackend[T] {
	return &heldBackend[T]{Backend: b, entered: make(chan struct{}), release: make(chan struct{})}
}

func (h *heldBackend[T]) ProbeBatch(qs []T) ([][]int, []float64, error) {
	first := false
	h.first.Do(func() { first = true })
	if first {
		close(h.entered)
		<-h.release
	}
	return h.Backend.ProbeBatch(qs)
}

// TestShutdownWithInFlightBatches pins graceful shutdown: queries queued
// behind a running flush get their real answers when Close flushes them,
// without waiting for that flush; the running flush still completes; and
// later queries get 503.
func TestShutdownWithInFlightBatches(t *testing.T) {
	pts := testPoints(60, 5)
	d, err := mccatch.BuildVectors(pts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// The first query's flush is held inside the backend, so the rest
	// queue behind it. maxBatch above the request count and a very long
	// wait leave Close's flush as the only way the queue can ship while
	// the first flush is held.
	hb := newHeldBackend(ReadOnly(d))
	s := New[[]float64](hb, WithBatch[[]float64](64, time.Hour), WithValidator(vecValidator(2)))
	defer s.Close()
	release := sync.OnceFunc(func() { close(hb.release) })
	defer release()

	const inFlight = 6
	want := make([][]int, inFlight)
	for i := range want {
		if want[i], err = d.Probe(pts[i]); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, inFlight)
	score := func(i int) {
		code, m := doQuiet(s, "POST", "/v1/score", scoreBody(pts[i]))
		if code != http.StatusOK {
			errs <- fmt.Errorf("in-flight request %d: status %d (%s)", i, code, m["error"])
			return
		}
		var counts []int
		if err := json.Unmarshal(m["counts"], &counts); err != nil {
			errs <- err
			return
		}
		if !reflect.DeepEqual(counts, want[i]) {
			errs <- fmt.Errorf("in-flight request %d: counts %v, want %v", i, counts, want[i])
		}
	}
	held := make(chan struct{})
	go func() {
		defer close(held)
		score(0)
	}()
	select {
	case <-hb.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the first query never reached the engine")
	}
	var queued sync.WaitGroup
	for i := 1; i < inFlight; i++ {
		queued.Add(1)
		go func(i int) {
			defer queued.Done()
			score(i)
		}(i)
	}
	// Wait until the other requests are actually queued behind the held
	// flush, then shut down underneath them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.batch.mu.Lock()
		n := len(s.batch.pending)
		s.batch.mu.Unlock()
		if n == inFlight-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests enqueued", n, inFlight-1)
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
	waitOrFail(t, &queued, "Close did not answer the queued requests while the first flush was held")
	select {
	case <-held:
		t.Fatal("the held request was answered before its flush was released")
	default:
	}
	release()
	<-held
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if code, _ := do(t, s, "POST", "/v1/score", scoreBody(pts[0])); code != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown score: status %d, want 503", code)
	}
}

// TestDetectCacheInvalidation pins the epoch-keyed Result cache: repeat
// detects serve the same cached Result, any mutation through the
// incremental layer invalidates it, and the recomputed Result matches a
// fresh detection over the new live set.
func TestDetectCacheInvalidation(t *testing.T) {
	pts := testPoints(50, 11)
	inc, err := mccatch.NewIncrementalVectors(2)
	if err != nil {
		t.Fatal(err)
	}
	var handles []int64
	for _, p := range pts {
		h, err := inc.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	s := New(Mutable(inc), WithValidator(vecValidator(2)))
	defer s.Close()

	r1, err := s.detectCached()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.detectCached()
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("second detect at the same epoch recomputed instead of serving the cache")
	}
	// Ingest → epoch moves → cache miss, and the answer reflects the new point.
	if code, m := do(t, s, "POST", "/v1/ingest", `{"items":[[500,500]]}`); code != http.StatusOK {
		t.Fatalf("ingest: status %d (%s)", code, m["error"])
	}
	r3, err := s.detectCached()
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r2 {
		t.Fatal("detect after ingest served the stale cache")
	}
	if len(r3.PointScores) != len(pts)+1 {
		t.Fatalf("recomputed result covers %d points, want %d", len(r3.PointScores), len(pts)+1)
	}
	// Delete → another epoch move → another recompute.
	body, _ := json.Marshal(map[string]any{"handles": []int64{handles[0], 99999}})
	code, m := do(t, s, "POST", "/v1/delete", string(body))
	if code != http.StatusOK {
		t.Fatalf("delete: status %d (%s)", code, m["error"])
	}
	var deleted []bool
	if err := json.Unmarshal(m["deleted"], &deleted); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(deleted, []bool{true, false}) {
		t.Fatalf("deleted = %v, want [true false]", deleted)
	}
	r4, err := s.detectCached()
	if err != nil {
		t.Fatal(err)
	}
	if r4 == r3 || len(r4.PointScores) != len(pts) {
		t.Fatalf("detect after delete did not recompute over the shrunk live set")
	}
	// The encoded reply is cached per epoch too: same bytes (same backing
	// array, marshaled once) while the epoch holds, fresh valid JSON
	// after it moves.
	j1, err := s.detectJSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.detectJSON()
	if err != nil {
		t.Fatal(err)
	}
	if &j1[0] != &j2[0] {
		t.Fatal("second detectJSON at the same epoch re-marshaled instead of serving the cached bytes")
	}
	var decoded mccatch.Result
	if err := json.Unmarshal(j1, &decoded); err != nil {
		t.Fatalf("cached detect reply is not valid JSON: %v", err)
	}
	if len(decoded.PointScores) != len(r4.PointScores) {
		t.Fatalf("encoded reply covers %d points, want %d", len(decoded.PointScores), len(r4.PointScores))
	}
	if code, m := do(t, s, "POST", "/v1/ingest", `{"items":[[7,7]]}`); code != http.StatusOK {
		t.Fatalf("ingest: status %d (%s)", code, m["error"])
	}
	j3, err := s.detectJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(j3, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.PointScores) != len(pts)+1 {
		t.Fatalf("post-ingest encoded reply covers %d points, want %d", len(decoded.PointScores), len(pts)+1)
	}
}

// TestEndpointsRoundTrip exercises the happy paths end to end over a real
// HTTP connection: health, detect, topk, score on a read-only index.
func TestEndpointsRoundTrip(t *testing.T) {
	pts := testPoints(80, 13)
	d, err := mccatch.BuildVectors(pts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := New(ReadOnly(d), WithValidator(vecValidator(2)))
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	get := func(path string) (int, map[string]json.RawMessage) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, m
	}
	code, m := get("/healthz")
	if code != http.StatusOK || string(m["n"]) != "80" {
		t.Fatalf("healthz: %d %v", code, m)
	}
	if code, m = get("/v1/detect"); code != http.StatusOK {
		t.Fatalf("detect: %d (%s)", code, m["error"])
	}
	want, err := d.Detect()
	if err != nil {
		t.Fatal(err)
	}
	if code, m = get("/v1/topk?k=2"); code != http.StatusOK {
		t.Fatalf("topk: %d (%s)", code, m["error"])
	}
	var mcs []mccatch.Microcluster
	if err := json.Unmarshal(m["microclusters"], &mcs); err != nil {
		t.Fatal(err)
	}
	wantK := 2
	if len(want.Microclusters) < wantK {
		wantK = len(want.Microclusters)
	}
	if len(mcs) != wantK {
		t.Fatalf("topk returned %d microclusters, want %d", len(mcs), wantK)
	}
	resp, err := http.Post(ts.URL+"/v1/score", "application/json", strings.NewReader(scoreBody(pts[0])))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score over HTTP: status %d", resp.StatusCode)
	}
}

// hold is the query that heldEngine holds inside the engine.
const hold = -1

// heldEngine is a batcher run function over int queries: it records each
// batch's size, answers query q with the counts {2q} under the radii
// schedule {1}, and holds the batch led by hold until release is closed,
// signalling entered once that batch is inside the engine.
type heldEngine struct {
	mu      sync.Mutex
	sizes   []int
	entered chan struct{}
	release chan struct{}
}

func newHeldEngine() *heldEngine {
	return &heldEngine{entered: make(chan struct{}), release: make(chan struct{})}
}

func (e *heldEngine) run(qs []int) ([][]int, []float64, error) {
	e.mu.Lock()
	e.sizes = append(e.sizes, len(qs))
	e.mu.Unlock()
	if qs[0] == hold {
		close(e.entered)
		<-e.release
	}
	out := make([][]int, len(qs))
	for i, q := range qs {
		out[i] = []int{q * 2}
	}
	return out, []float64{1}, nil
}

func (e *heldEngine) batchSizes() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]int(nil), e.sizes...)
}

// holdFlush starts a Score of hold on its own goroutine, waits until its
// flush is inside the engine, and returns the channel its error arrives
// on.
func holdFlush(t *testing.T, b *batcher[int], e *heldEngine) <-chan error {
	t.Helper()
	held := make(chan error, 1)
	go func() {
		_, _, err := b.Score(hold)
		held <- err
	}()
	select {
	case <-e.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the held query never reached the engine")
	}
	return held
}

// waitOrFail waits for wg, failing the test with msg after 5s.
func waitOrFail(t *testing.T, wg *sync.WaitGroup, msg string) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal(msg)
	}
}

// eventually polls cond until it holds, failing the test after 5s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatcherTimedFlush pins what maxWait bounds: a query queued behind
// a stalled flush ships after about maxWait, while that flush is still
// blocked.
func TestBatcherTimedFlush(t *testing.T) {
	const maxWait = 5 * time.Millisecond
	e := newHeldEngine()
	b := newBatcher(1000, maxWait, e.run)
	defer b.Close()
	release := sync.OnceFunc(func() { close(e.release) })
	defer release()
	held := holdFlush(t, b, e)

	startAt := time.Now()
	counts, radii, err := b.Score(21)
	if err != nil {
		t.Fatal(err)
	}
	waited := time.Since(startAt)
	if !reflect.DeepEqual(counts, []int{42}) || !reflect.DeepEqual(radii, []float64{1}) {
		t.Fatalf("counts = %v, radii = %v", counts, radii)
	}
	if waited < maxWait {
		t.Fatalf("queued query resolved after %v, before maxWait %v", waited, maxWait)
	}
	if waited > 3*time.Second {
		t.Fatalf("timed flush took %v", waited)
	}
	if sizes := e.batchSizes(); !reflect.DeepEqual(sizes, []int{1, 1}) {
		t.Fatalf("batch sizes = %v, want [1 1]: the stalled flush and the timed one", sizes)
	}
	select {
	case <-held:
		t.Fatal("the stalled flush returned before its release")
	default:
	}
	release()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
}

// TestBatcherLoneQueryShipsAtOnce pins the idle half of the policy: a
// query that finds no flush running ships at once, so even an hour-long
// window adds no wait to it.
func TestBatcherLoneQueryShipsAtOnce(t *testing.T) {
	e := newHeldEngine()
	b := newBatcher(16, time.Hour, e.run)
	defer b.Close()
	got := make(chan []int, 1)
	go func() {
		counts, _, _ := b.Score(21)
		got <- counts
	}()
	select {
	case counts := <-got:
		if !reflect.DeepEqual(counts, []int{42}) {
			t.Fatalf("counts = %v, want [42]", counts)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("a lone query waited for the window instead of shipping at once")
	}
}

// TestBatcherQueueShipsWhenFlushReturns pins the busy half: queries that
// arrive while a flush runs queue and ship as one batch the moment it
// returns, with no wait for maxWait, and a queue that reaches maxBatch
// ships on arrival while that flush still runs.
func TestBatcherQueueShipsWhenFlushReturns(t *testing.T) {
	const maxBatch = 4
	for _, n := range []int{1, 3, maxBatch, maxBatch + 2, 2*maxBatch + 1} {
		t.Run(fmt.Sprintf("queued=%d", n), func(t *testing.T) {
			e := newHeldEngine()
			b := newBatcher(maxBatch, time.Hour, e.run)
			defer b.Close()
			release := sync.OnceFunc(func() { close(e.release) })
			defer release()
			held := holdFlush(t, b, e)

			var wg sync.WaitGroup
			errs := make(chan error, n)
			for q := 0; q < n; q++ {
				wg.Add(1)
				go func(q int) {
					defer wg.Done()
					counts, _, err := b.Score(q)
					if err == nil && !reflect.DeepEqual(counts, []int{2 * q}) {
						err = fmt.Errorf("query %d: counts %v, want [%d]", q, counts, 2*q)
					}
					if err != nil {
						errs <- err
					}
				}(q)
			}
			want := []int{1}
			for k := 0; k < n/maxBatch; k++ {
				want = append(want, maxBatch)
			}
			eventually(t, "the full batches shipped and the rest queued behind the held flush", func() bool {
				b.mu.Lock()
				queued := len(b.pending)
				b.mu.Unlock()
				return len(e.batchSizes()) == len(want) && queued == n%maxBatch
			})
			if sizes := e.batchSizes(); !reflect.DeepEqual(sizes, want) {
				t.Fatalf("while the first flush is held: batch sizes = %v, want %v", sizes, want)
			}
			release()
			if err := <-held; err != nil {
				t.Fatal(err)
			}
			waitOrFail(t, &wg, "the queue did not ship when the held flush returned")
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if r := n % maxBatch; r > 0 {
				want = append(want, r)
			}
			if sizes := e.batchSizes(); !reflect.DeepEqual(sizes, want) {
				t.Fatalf("batch sizes = %v, want %v", sizes, want)
			}
		})
	}
}
