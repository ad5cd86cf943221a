package main

// The serve workload runs the mutable serving layer in process, on a
// loopback listener, and drives it with an open-loop schedule: requests
// go out when they are due whatever the server is doing, and each one's
// latency counts from its due time, so a stall also charges the
// requests queued behind it.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"mccatch"
	"mccatch/internal/data"
	"mccatch/internal/serve"
)

const (
	// servePreloadScale preloads data.HTTPLike(0.02): 4,440 points.
	servePreloadScale = 0.02
	// serveRate is the scheduled request rate. At one ingest in
	// ingestOneIn requests, a 25 s window holds 1,000 ingests: enough
	// for an ingest p99 with ten samples beyond it.
	serveRate   = 400.0
	ingestOneIn = 10
	// detectEvery schedules one /v1/detect per period of the window;
	// with ingests in between, each one recomputes under the engine
	// lock.
	detectEvery = 5 * time.Second
	// batchMax and batchWait are mccatchd's coalescing defaults.
	batchMax  = 16
	batchWait = 500 * time.Microsecond
	// requestTimeout fails a request the server never answers.
	requestTimeout = 30 * time.Second
)

type reqKind int

const (
	kindScore reqKind = iota
	kindIngest
	kindDetect
)

var kindNames = [...]string{"score", "ingest", "detect"}

// request is one scheduled request and what became of it. Times are
// offsets from the schedule's start.
type request struct {
	kind       reqKind
	due        time.Duration
	sent, done time.Duration
	body       []byte
	point      []float64 // the ingested point
	handle     int64     // its handle, from the reply
	err        error
}

func (r *request) lag() time.Duration     { return r.sent - r.due }
func (r *request) latency() time.Duration { return r.done - r.due }

// schedule lays out the open-loop arrivals of one window: a request
// every 1/rate seconds, one ingest at a seeded position in every block
// of ingestOneIn of them and scores otherwise, plus one detect in the
// middle of every detectEvery period (of the window, if shorter). It is
// sorted by due time.
func schedule(window time.Duration, rate float64, ingestOneIn int, detectEvery time.Duration, rng *rand.Rand) []request {
	n := int(window.Seconds() * rate)
	reqs := make([]request, 0, n+int(window/detectEvery)+1)
	pos := 0
	for i := 0; i < n; i++ {
		if i%ingestOneIn == 0 {
			pos = i + rng.Intn(ingestOneIn)
		}
		k := kindScore
		if i == pos {
			k = kindIngest
		}
		reqs = append(reqs, request{kind: k, due: time.Duration(float64(i) * float64(time.Second) / rate)})
	}
	for t := min(detectEvery, window) / 2; t < window; t += detectEvery {
		reqs = append(reqs, request{kind: kindDetect, due: t})
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].due < reqs[j].due })
	return reqs
}

// newClient returns a client that holds at most one connection and
// never consults a proxy: the load stays on loopback.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{Proxy: nil, MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   requestTimeout,
	}
}

// drive sends reqs over conns connections, request j on connection
// j mod conns, each when due (or at once when the connection is late).
func drive(base string, reqs []request, conns int, start time.Time) {
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for j := c; j < len(reqs); j += conns {
				r := &reqs[j]
				if w := time.Until(start.Add(r.due)); w > 0 {
					time.Sleep(w)
				}
				r.sent = time.Since(start)
				r.err = send(client, base, r)
				r.done = time.Since(start)
			}
		}()
	}
	wg.Wait()
}

// send issues one request and requires a 200 reply.
func send(client *http.Client, base string, r *request) error {
	var resp *http.Response
	var err error
	switch r.kind {
	case kindScore:
		resp, err = client.Post(base+"/v1/score", "application/json", bytes.NewReader(r.body))
	case kindIngest:
		resp, err = client.Post(base+"/v1/ingest", "application/json", bytes.NewReader(r.body))
	default:
		resp, err = client.Get(base + "/v1/detect")
	}
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if r.kind == kindIngest {
		var reply struct {
			Handles []int64 `json:"handles"`
		}
		err = json.NewDecoder(resp.Body).Decode(&reply)
		if err == nil && len(reply.Handles) != 1 {
			err = fmt.Errorf("ingest reply has %d handles", len(reply.Handles))
		}
		if err == nil {
			r.handle = reply.Handles[0]
		}
	}
	if _, cerr := io.Copy(io.Discard, resp.Body); err == nil {
		err = cerr
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", kindNames[r.kind], resp.StatusCode)
	}
	return err
}

// server is one running in-process mccatchd stack.
type server struct {
	srv    *serve.Server[[]float64]
	hs     *http.Server
	base   string
	served chan error
}

// startServer listens on a loopback ephemeral port and serves b with
// mccatchd's coalescing window and vector validator.
func startServer(b serve.Backend[[]float64]) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:    serve.New(b, serve.WithBatch[[]float64](batchMax, batchWait), serve.WithValidator(dimValidator(3))),
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	s.hs = &http.Server{Handler: s.srv, ReadHeaderTimeout: requestTimeout}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and returns once its goroutine has exited.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	s.srv.Close()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// dimValidator is mccatchd's vector validator.
func dimValidator(dim int) func([]float64) error {
	return func(p []float64) error {
		if len(p) != dim {
			return fmt.Errorf("point has dimension %d, want %d", len(p), dim)
		}
		return nil
	}
}

// fetchDetect GETs /v1/detect and returns the body.
func fetchDetect(client *http.Client, base string) ([]byte, error) {
	resp, err := client.Get(base + "/v1/detect")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("detect: status %d", resp.StatusCode)
	}
	return body, err
}

// timedBackend decorates a serve.Backend with a span around every call
// into the engine (lock wait included) and counts the queries each
// coalesced probe batch carries.
type timedBackend struct {
	b  serve.Backend[[]float64]
	tr *tracer

	mu      sync.Mutex
	batches []int
}

func (t *timedBackend) time(name string) func() {
	t0 := time.Now()
	return func() { t.tr.record(name, 0, t0, time.Now()) }
}

func (t *timedBackend) Detect() (*mccatch.Result, uint64, error) {
	defer t.time("segment.detect")()
	return t.b.Detect()
}

func (t *timedBackend) Epoch() uint64 {
	defer t.time("segment.epoch")()
	return t.b.Epoch()
}

func (t *timedBackend) Radii() []float64 {
	defer t.time("segment.radii")()
	return t.b.Radii()
}

func (t *timedBackend) ProbeBatch(qs [][]float64) ([][]int, []float64, error) {
	defer t.time("segment.probe")()
	t.mu.Lock()
	t.batches = append(t.batches, len(qs))
	t.mu.Unlock()
	return t.b.ProbeBatch(qs)
}

func (t *timedBackend) Size() int {
	defer t.time("segment.size")()
	return t.b.Size()
}

func (t *timedBackend) Insert(x []float64) (int64, error) {
	defer t.time("segment.insert")()
	return t.b.Insert(x)
}

func (t *timedBackend) Delete(h int64) (bool, error) {
	defer t.time("segment.delete")()
	return t.b.Delete(h)
}

// shuffled returns pts in a seeded random order.
func shuffled(pts [][]float64, seed int64) [][]float64 {
	out := append([][]float64(nil), pts...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func runServe(cfg config) (*outcome, error) {
	o := newOutcome()
	preload := data.HTTPLike(servePreloadScale, cfg.seed).Points
	scorePool := shuffled(inliers(data.HTTPLike(0.05, subSeed(cfg.seed, 1))), subSeed(cfg.seed, 2))
	ingestPool := shuffled(inliers(data.HTTPLike(0.02, subSeed(cfg.seed, 3))), subSeed(cfg.seed, 4))
	reqs := schedule(cfg.window, serveRate, ingestOneIn, detectEvery, rand.New(rand.NewSource(subSeed(cfg.seed, 5))))
	nScore, nIngest := 0, 0
	for i := range reqs {
		r := &reqs[i]
		var err error
		switch r.kind {
		case kindScore:
			r.body, err = json.Marshal(map[string][]float64{"item": scorePool[nScore%len(scorePool)]})
			nScore++
		case kindIngest:
			if nIngest >= len(ingestPool) {
				return nil, fmt.Errorf("schedule has more than the %d ingest points generated", len(ingestPool))
			}
			r.point = ingestPool[nIngest]
			r.body, err = json.Marshal(map[string][][]float64{"items": {r.point}})
			nIngest++
		}
		if err != nil {
			return nil, err
		}
	}

	var tr *tracer
	var tb *timedBackend
	if cfg.trace {
		tr = newTracer()
		o.spans = tr
	}
	goroutines := runtime.NumGoroutine()
	base := liveHeap()
	client := newClient()
	defer client.CloseIdleConnections()
	var cur *server
	var preloads, detectAllocs samples
	setups, err := repeatSetup(func() (time.Duration, error) {
		if cur != nil {
			if err := cur.stop(); err != nil {
				return 0, fmt.Errorf("stopping server: %w", err)
			}
			cur = nil
		}
		t0 := time.Now()
		inc, err := mccatch.NewIncrementalVectors(3, mccatch.WithWorkers(cfg.workers))
		if err != nil {
			return 0, err
		}
		for _, p := range preload {
			if _, err := inc.Insert(p); err != nil {
				return 0, err
			}
		}
		preloads = append(preloads, time.Since(t0).Seconds())
		var b serve.Backend[[]float64] = serve.Mutable(inc)
		if tr != nil {
			tb = &timedBackend{b: b, tr: tr}
			b = tb
		}
		if cur, err = startServer(b); err != nil {
			return 0, err
		}
		a0 := allocBytes()
		if _, err := fetchDetect(client, cur.base); err != nil {
			return 0, err
		}
		detectAllocs = append(detectAllocs, float64(allocBytes()-a0)/mb)
		return time.Since(t0), nil
	})
	if err != nil {
		if cur != nil {
			_ = cur.stop() // the set-up error is the one to report
		}
		return nil, fmt.Errorf("set-up: %w", err)
	}
	indexMB := float64(liveHeap()-base) / mb

	start := time.Now()
	drive(cur.base, reqs, cfg.workers, start)
	wall := time.Since(start)

	// Every reply must be a 200, and the final detection must equal a
	// fresh batch run over the preloaded plus the ingested points, in
	// the order the server inserted them.
	for i := range reqs {
		o.check(reqs[i].err)
	}
	final, err := fetchDetect(client, cur.base)
	o.check(err)
	if err == nil {
		o.check(checkFinal(final, preload, reqs, cfg.workers))
	}
	if err := cur.stop(); err != nil {
		return nil, fmt.Errorf("stopping server: %w", err)
	}
	client.CloseIdleConnections()
	o.check(waitGoroutines(goroutines, 5*time.Second))

	byKind := func(k reqKind, f func(*request) time.Duration) samples {
		var s samples
		for i := range reqs {
			if reqs[i].kind == k && reqs[i].err == nil {
				s = append(s, millis(f(&reqs[i])))
			}
		}
		return s
	}
	lat := func(r *request) time.Duration { return r.latency() }
	score, ingest, detect := byKind(kindScore, lat), byKind(kindIngest, lat), byKind(kindDetect, lat)
	var lags samples
	for i := range reqs {
		lags = append(lags, millis(reqs[i].lag()))
	}
	completed := len(score) + len(ingest) + len(detect)
	o.note("setup_s      %.4f s   (median of %d set-ups: preload of %d points + first detect)", setups.median(), len(setups), len(preload))
	o.note("index_mb     %.2f MB   detect_alloc_mb %.2f MB (median of %d set-up detects)", indexMB, detectAllocs.median(), len(detectAllocs))
	o.note("score_p50_ms %.4f ms  score_p99_ms %.4f ms  (%d requests, %d beyond p99)", score.percentile(50), score.percentile(99), len(score), tail(len(score), 99))
	o.note("ingest_p50_ms %.4f ms ingest_p99_ms %.4f ms (%d requests, %d beyond p99)", ingest.percentile(50), ingest.percentile(99), len(ingest), tail(len(ingest), 99))
	o.note("detect_p50_ms %.4f ms (median of %d detects under traffic)", detect.median(), len(detect))
	o.note("achieved_rps %.2f 1/s  (%d completed in %.2f s; scheduled %.0f 1/s + %d detects over %d connections)",
		float64(completed)/wall.Seconds(), completed, wall.Seconds(), serveRate, len(detect), cfg.workers)
	o.note("gen.send_lag p50 %.4f ms p99 %.4f ms", lags.percentile(50), lags.percentile(99))
	o.note("success_rate %.2f %%  (%d of %d requests and checks failed)", successRate(o), o.failed, o.attempted)
	if tr != nil {
		serveLayers(o.metrics, tr, tb, reqs, start, wall)
		o.metrics["index.build_s"] = preloads.median()
		o.metrics["gen.send_lag_p99_ms"] = lags.percentile(99)
		return o, nil
	}
	o.metrics["setup_s"] = setups.median()
	o.metrics["index_mb"] = indexMB
	o.metrics["detect_alloc_mb"] = detectAllocs.median()
	o.metrics["detect_s"] = detect.median() / 1000
	o.metrics["score_p50_ms"] = score.percentile(50)
	o.metrics["success_rate"] = successRate(o)
	return o, nil
}

// checkFinal compares the served detection with a fresh RunVectors over
// the preloaded points followed by the ingested ones in handle order.
func checkFinal(served []byte, preload [][]float64, reqs []request, workers int) error {
	var ingested []*request
	for i := range reqs {
		if reqs[i].kind == kindIngest && reqs[i].err == nil {
			ingested = append(ingested, &reqs[i])
		}
	}
	sort.Slice(ingested, func(i, j int) bool { return ingested[i].handle < ingested[j].handle })
	pts := append([][]float64(nil), preload...)
	for _, r := range ingested {
		pts = append(pts, r.point)
	}
	res, err := mccatch.RunVectors(pts, mccatch.WithWorkers(workers))
	if err != nil {
		return fmt.Errorf("fresh RunVectors: %w", err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if !bytes.Equal(served, append(want, '\n')) {
		return fmt.Errorf("final /v1/detect over %d points differs from a fresh RunVectors", len(pts))
	}
	return nil
}

// waitGoroutines waits for the goroutine count to fall back to want,
// which proves the server and the load generator stopped theirs.
func waitGoroutines(want int, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines still running after shutdown, %d before set-up", n, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// serveLayers fills the segment, serve and generator metrics of a
// traced serve run from the engine spans recorded during the traffic
// window [start, start+wall) and from the requests, whose client-side
// spans it adds to the trace.
func serveLayers(m map[string]float64, tr *tracer, tb *timedBackend, reqs []request, start time.Time, wall time.Duration) {
	window := span{Start: start.Sub(tr.epoch), End: start.Sub(tr.epoch) + wall}
	tr.mu.Lock()
	var engine []span
	var probe, insert, detect samples
	for _, s := range tr.spans {
		if s.Start < window.Start || s.Start >= window.End {
			continue
		}
		engine = append(engine, s)
		switch s.Name {
		case "segment.probe":
			probe = append(probe, micros(s.dur()))
		case "segment.insert":
			insert = append(insert, millis(s.dur()))
		case "segment.detect":
			detect = append(detect, s.dur().Seconds())
		}
	}
	tr.mu.Unlock()
	for i := range reqs {
		r := &reqs[i]
		tr.record("request."+kindNames[r.kind], 0, start.Add(r.sent), start.Add(r.done))
	}
	tb.mu.Lock()
	queries := 0
	for _, n := range tb.batches {
		queries += n
	}
	batches := len(tb.batches)
	tb.mu.Unlock()
	if queries > 0 {
		// The median batch call over the mean batch size: the typical
		// probe cost per query, lock wait included, without letting the
		// few batches stuck behind a detect dominate.
		mean := float64(queries) / float64(batches)
		m["segment.probe_us_per_query"] = probe.median() / mean
		m["serve.batch_size_mean"] = mean
	}
	m["serve.batches"] = float64(batches)
	m["segment.insert_p99_ms"] = insert.percentile(99)
	m["segment.insert_max_ms"] = insert.max()
	m["segment.detect_s"] = detect.median()
	// Busy share: the part of the window some engine call covers
	// (calls waiting on the engine lock overlap the holder's).
	m["segment.busy_share"] = (wall - selfTimeOf(window, engine)).Seconds() / wall.Seconds()

	// Serving overhead per route: the median reply time measured from
	// the send, less the median engine call the route makes.
	sent := func(k reqKind) samples {
		var s samples
		for i := range reqs {
			if reqs[i].kind == k && reqs[i].err == nil {
				s = append(s, micros(reqs[i].done-reqs[i].sent))
			}
		}
		return s
	}
	nDetect := len(sent(kindDetect))
	if nDetect > 0 {
		m["serve.detect_cache_hit_ratio"] = 1 - float64(len(detect))/float64(nDetect)
	}
	m["serve.overhead_us.score"] = sent(kindScore).median() - probe.median()
	m["serve.overhead_us.ingest"] = sent(kindIngest).median() - 1000*insert.median()
	m["serve.overhead_us.detect"] = sent(kindDetect).median() - 1e6*detect.median()
}
