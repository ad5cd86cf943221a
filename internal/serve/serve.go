// Package serve is the long-lived HTTP serving layer over the MCCATCH
// detector: a Server wraps either a frozen build-once Detector (opened
// from an on-disk index for instant cold start) or a mutable Incremental
// and exposes ingest / delete / detect / score-point / top-k-outliers
// endpoints.
//
// Two mechanisms make it hold up under heavy traffic:
//
//   - Request coalescing: concurrent score-point requests are gathered
//     into bounded-wait micro-batches and answered through one batched
//     multi-radius traversal per batch (one engine-lock acquisition, one
//     shared scratch), instead of one index walk per request.
//   - Epoch-keyed caching: the expensive full detection Result is cached
//     and served until a mutation moves the backend's epoch; Freeze and
//     Compact don't move it (they cannot change an answer), so only real
//     live-set changes pay for a recompute.
//
// Endpoints (JSON in, JSON out):
//
//	GET  /healthz            → {"n", "epoch"}
//	POST /v1/ingest          {"items":[...]}     → {"handles":[...]}
//	POST /v1/delete          {"handles":[...]}   → {"deleted":[...]}
//	GET  /v1/detect          → the full detection Result (cached)
//	POST /v1/score           {"item":...}        → {"counts","first_radius"}
//	GET  /v1/radii           → {"radii","epoch"} (pairs with score counts)
//	GET  /v1/topk?k=N        → the top-N microclusters (cached detect)
//
// Statuses: 400 malformed body or invalid item, 404 unknown handle space
// is not an error (per-handle booleans instead), 409 mutation on a
// read-only backend, 413 body over maxBodyBytes, 422 detect over an
// empty collection, 503 score after shutdown began.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mccatch"
	"mccatch/internal/core"
)

// ErrReadOnly is returned by the mutation methods of a Backend serving a
// frozen index; handlers map it to 409.
var ErrReadOnly = errors.New("serve: backend is read-only (serving a frozen index)")

// Backend is the engine behind a Server: the subset of the Detector /
// Incremental surface the handlers need, with each implementation
// supplying its own locking discipline.
type Backend[T any] interface {
	// Detect runs full detection over the current live set, returning
	// the Result together with the epoch it was computed at (read under
	// the same critical section, so the pair is consistent).
	Detect() (*mccatch.Result, uint64, error)
	// Epoch is the live-set mutation counter; equal epochs guarantee
	// identical answers. A read-only backend is permanently at 0.
	Epoch() uint64
	// Radii returns the current radii schedule (nil below two elements).
	Radii() []float64
	// ProbeBatch answers every query's neighbor-count curve in one
	// engine-lock acquisition, sharing one scratch buffer across the
	// batch, and returns the radii schedule the counts pair with (read
	// in the same critical section). An error fails the whole batch.
	ProbeBatch(qs []T) ([][]int, []float64, error)
	// Size is the live element count.
	Size() int
	// Insert and Delete mutate the live set; a read-only backend
	// returns ErrReadOnly.
	Insert(x T) (int64, error)
	Delete(handle int64) (bool, error)
}

// roBackend serves a frozen Detector. Reads need no locking at all: the
// Detector's documented read-concurrency contract makes Detect, Probe
// and Radii safe from any number of goroutines, which is exactly what
// lets the read-only server scale with conns.
type roBackend[T any] struct {
	d *mccatch.Detector[T]
}

// ReadOnly wraps an open Detector as a serving backend. The caller keeps
// ownership: close the Detector only after the server stops.
func ReadOnly[T any](d *mccatch.Detector[T]) Backend[T] { return roBackend[T]{d} }

func (b roBackend[T]) Detect() (*mccatch.Result, uint64, error) {
	res, err := b.d.Detect()
	return res, 0, err
}

func (b roBackend[T]) Epoch() uint64    { return 0 }
func (b roBackend[T]) Radii() []float64 { return b.d.Radii() }
func (b roBackend[T]) Size() int        { return b.d.Size() }

func (b roBackend[T]) ProbeBatch(qs []T) ([][]int, []float64, error) {
	radii := b.d.Radii()
	buf := make([]int, 0, len(radii)*len(qs))
	out := make([][]int, len(qs))
	for i, q := range qs {
		start := len(buf)
		var err error
		if buf, err = b.d.ProbeAppend(q, buf); err != nil {
			return nil, nil, err
		}
		out[i] = buf[start:len(buf):len(buf)]
	}
	return out, radii, nil
}

func (b roBackend[T]) Insert(T) (int64, error)    { return 0, ErrReadOnly }
func (b roBackend[T]) Delete(int64) (bool, error) { return false, ErrReadOnly }

// incBackend serves a mutable Incremental. The Incremental is not safe
// for concurrent use (even its queries mutate lazily built merge state),
// so every method holds the one engine mutex — the coalescer makes that
// affordable by paying the lock once per micro-batch instead of once per
// request.
type incBackend[T any] struct {
	mu  sync.Mutex
	inc *mccatch.Incremental[T]
}

// Mutable wraps an Incremental as a serving backend, serializing all
// access through one internal mutex. The caller must not touch the
// Incremental directly while the server runs.
func Mutable[T any](inc *mccatch.Incremental[T]) Backend[T] {
	return &incBackend[T]{inc: inc}
}

func (b *incBackend[T]) Detect() (*mccatch.Result, uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	res, err := b.inc.Detect()
	return res, b.inc.Epoch(), err
}

func (b *incBackend[T]) Epoch() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inc.Epoch()
}

func (b *incBackend[T]) Radii() []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inc.Radii()
}

func (b *incBackend[T]) Size() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inc.Len()
}

func (b *incBackend[T]) ProbeBatch(qs []T) ([][]int, []float64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	radii := b.inc.Radii()
	buf := make([]int, 0, len(radii)*len(qs))
	out := make([][]int, len(qs))
	for i, q := range qs {
		start := len(buf)
		var err error
		if buf, err = b.inc.ProbeAppend(q, buf); err != nil {
			return nil, nil, err
		}
		out[i] = buf[start:len(buf):len(buf)]
	}
	return out, radii, nil
}

// compactSegments is the serving layer's compaction policy: once the
// auto-frozen segments of a long-running ingest stream pile past this
// fan-in, every probe pays one merged traversal per segment, so Insert
// compacts them back into one. Probes against one big tree cost about
// half of what ~15 small segments cost (the R-tree's containment
// pruning only pays off with depth), while the occasional O(n) rebuild
// amortizes to well under 1% of the probe budget at one rebuild per
// compactSegments memtable freezes — so the threshold sits low.
const compactSegments = 4

func (b *incBackend[T]) Insert(x T) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	h, err := b.inc.Insert(x)
	if err == nil && b.inc.Segments() >= compactSegments {
		b.inc.Compact()
	}
	return h, err
}

func (b *incBackend[T]) Delete(handle int64) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inc.Delete(handle), nil
}

// Server is the HTTP serving layer: an http.Handler over one Backend.
type Server[T any] struct {
	b        Backend[T]
	validate func(T) error
	batch    *batcher[T]
	mux      *http.ServeMux

	// Result cache, valid while cachedAt matches the backend epoch.
	// cachedJSON is the encoded /v1/detect reply for the same epoch,
	// filled lazily on the first detect of an epoch: the Result carries
	// a score per live element, so re-marshaling it per request costs
	// milliseconds at modest collection sizes — far more than the cache
	// hit it decorates.
	cacheMu    sync.Mutex
	cached     *mccatch.Result
	cachedAt   uint64
	hasCached  bool
	cachedJSON []byte
}

// Option configures a Server.
type Option[T any] func(*Server[T])

// WithValidator installs a per-item check run before an item is ingested
// or enqueued for scoring (400 on failure). Install one whenever an
// invalid item could otherwise reach the engine: a coalesced batch is
// answered as one traversal, so an invalid query rejected only there
// would fail its whole batch.
func WithValidator[T any](f func(T) error) Option[T] {
	return func(s *Server[T]) { s.validate = f }
}

// WithBatch sets the coalescing window: a score micro-batch flushes at
// maxBatch queries or after the oldest has waited maxWait, whichever
// comes first. maxBatch ≤ 1 or maxWait ≤ 0 disables coalescing (every
// request flushes immediately).
func WithBatch[T any](maxBatch int, maxWait time.Duration) Option[T] {
	return func(s *Server[T]) {
		s.batch = newBatcher(maxBatch, maxWait, s.probeBatch)
	}
}

// New returns a Server over b. Default coalescing window: 16 queries /
// 500µs.
func New[T any](b Backend[T], opts ...Option[T]) *Server[T] {
	s := &Server[T]{b: b}
	s.batch = newBatcher(16, 500*time.Microsecond, s.probeBatch)
	for _, o := range opts {
		o(s)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("POST /v1/delete", s.handleDelete)
	mux.HandleFunc("GET /v1/detect", s.handleDetect)
	mux.HandleFunc("POST /v1/detect", s.handleDetect)
	mux.HandleFunc("POST /v1/score", s.handleScore)
	mux.HandleFunc("GET /v1/radii", s.handleRadii)
	mux.HandleFunc("GET /v1/topk", s.handleTopK)
	s.mux = mux
	return s
}

func (s *Server[T]) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close begins shutdown: the pending score micro-batch is flushed (every
// accepted query gets its real answer) and later score requests fail
// with 503. Call it after the http.Server has stopped accepting new
// connections (or concurrently — late arrivals just get the 503).
func (s *Server[T]) Close() { s.batch.Close() }

// probeBatch is the batcher's run function: one backend call per batch.
func (s *Server[T]) probeBatch(qs []T) ([][]int, []float64, error) { return s.b.ProbeBatch(qs) }

// detectCached serves the Result for the current epoch, recomputing only
// when a mutation has moved it. Concurrent misses may both recompute
// (idempotent — same epoch, same Result); the cache is never served
// across an epoch boundary because the backend reports the Result's own
// epoch from inside its critical section.
func (s *Server[T]) detectCached() (*mccatch.Result, error) {
	e := s.b.Epoch()
	s.cacheMu.Lock()
	if s.hasCached && s.cachedAt == e {
		res := s.cached
		s.cacheMu.Unlock()
		return res, nil
	}
	s.cacheMu.Unlock()
	res, at, err := s.b.Detect()
	if err != nil {
		return nil, err
	}
	s.cacheMu.Lock()
	s.cached, s.cachedAt, s.hasCached = res, at, true
	s.cachedJSON = nil
	s.cacheMu.Unlock()
	return res, nil
}

// detectJSON returns the encoded /v1/detect reply for the current
// epoch, marshaling at most once per epoch (keyed to the exact Result
// pointer, so the bytes can never describe a different epoch than the
// struct cache).
func (s *Server[T]) detectJSON() ([]byte, error) {
	e := s.b.Epoch()
	s.cacheMu.Lock()
	if s.hasCached && s.cachedAt == e && s.cachedJSON != nil {
		b := s.cachedJSON
		s.cacheMu.Unlock()
		return b, nil
	}
	s.cacheMu.Unlock()
	res, err := s.detectCached()
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	b = append(b, '\n')
	s.cacheMu.Lock()
	if s.hasCached && s.cached == res {
		s.cachedJSON = b
	}
	s.cacheMu.Unlock()
	return b, nil
}

// scoreResponse is the reply of /v1/score, deliberately WITHOUT the
// radii schedule: it is constant per epoch and formatting 15
// full-precision floats per reply costs more than the probe itself.
// Clients fetch the schedule once from /v1/radii. It is marshaled by
// appendJSON rather than encoding/json — this sits in the hot loop of
// every read mix, and on a saturated box the reflective encoder is a
// measurable slice of the per-request budget.
type scoreResponse struct {
	Counts      []int   `json:"counts"`
	FirstRadius float64 `json:"first_radius"`
}

func (r scoreResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"counts":[`...)
	for k, c := range r.Counts {
		if k > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(c), 10)
	}
	b = append(b, `],"first_radius":`...)
	b = strconv.AppendFloat(b, r.FirstRadius, 'g', -1, 64)
	return append(b, '}', '\n')
}

// maxBodyBytes caps every request body a handler reads; past it the
// request gets 413 and the rest of the body is not read, so one huge
// body cannot exhaust the daemon's memory. 16 MiB holds an ingest of
// about 250k three-dimensional points.
const maxBodyBytes = 16 << 20

// bodyError answers a body that failed to read or decode: 413 when it
// ran past maxBodyBytes, else 400 with msg and the error.
func bodyError(w http.ResponseWriter, err error, msg string) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		httpError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", maxBodyBytes)
		return
	}
	httpError(w, http.StatusBadRequest, "%s: %v", msg, err)
}

var scoreBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

var bodyBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// readBody reads rc to EOF into buf (reusing its capacity) and returns
// the extended slice — io.ReadAll without the fresh allocation per
// request. It stops with an *http.MaxBytesError once the body runs past
// maxBodyBytes; counting here rather than wrapping the body in
// http.MaxBytesReader keeps the score path free of that allocation.
func readBody(rc io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := rc.Read(buf[len(buf):min(cap(buf), maxBodyBytes+1)])
		buf = buf[:len(buf)+n]
		if len(buf) > maxBodyBytes {
			return buf, &http.MaxBytesError{Limit: maxBodyBytes}
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

func (s *Server[T]) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"n": s.b.Size(), "epoch": s.b.Epoch()})
}

func (s *Server[T]) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Items []json.RawMessage `json:"items"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		bodyError(w, err, "malformed body")
		return
	}
	if len(req.Items) == 0 {
		httpError(w, http.StatusBadRequest, "no items")
		return
	}
	// Decode and validate everything before inserting anything, so a 400
	// never leaves a half-ingested batch behind.
	items := make([]T, len(req.Items))
	for i, raw := range req.Items {
		if err := s.decodeItem(raw, &items[i]); err != nil {
			httpError(w, http.StatusBadRequest, "item %d: %v", i, err)
			return
		}
	}
	handles := make([]int64, len(items))
	for i, x := range items {
		h, err := s.b.Insert(x)
		if err != nil {
			httpError(w, statusOf(err), "item %d: %v", i, err)
			return
		}
		handles[i] = h
	}
	writeJSON(w, http.StatusOK, map[string]any{"handles": handles, "epoch": s.b.Epoch()})
}

func (s *Server[T]) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Handles []int64 `json:"handles"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		bodyError(w, err, "malformed body")
		return
	}
	deleted := make([]bool, len(req.Handles))
	for i, h := range req.Handles {
		ok, err := s.b.Delete(h)
		if err != nil {
			httpError(w, statusOf(err), "handle %d: %v", h, err)
			return
		}
		deleted[i] = ok
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": deleted, "epoch": s.b.Epoch()})
}

func (s *Server[T]) handleDetect(w http.ResponseWriter, r *http.Request) {
	b, err := s.detectJSON()
	if err != nil {
		httpError(w, statusOf(err), "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

func (s *Server[T]) handleScore(w http.ResponseWriter, r *http.Request) {
	// Single-pass decode: the item lands in its final type directly, no
	// RawMessage detour — this path is the hot loop of the read mixes.
	// The body is read through a pooled buffer into json.Unmarshal
	// (which pools its decoder state) instead of a per-request
	// json.NewDecoder, whose decoder + refill buffer were the largest
	// handler-owned allocations on the profile.
	var req struct {
		Item *T `json:"item"`
	}
	bp := bodyBufPool.Get().(*[]byte)
	body, err := readBody(r.Body, (*bp)[:0])
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	*bp = body
	bodyBufPool.Put(bp)
	if err != nil {
		bodyError(w, err, "malformed body or item")
		return
	}
	if req.Item == nil {
		httpError(w, http.StatusBadRequest, "missing item")
		return
	}
	q := *req.Item
	if s.validate != nil {
		if err := s.validate(q); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	counts, radii, err := s.batch.Score(q)
	if err != nil {
		httpError(w, statusOf(err), "%v", err)
		return
	}
	// FirstRadius is the smallest scheduled radius at which the query
	// has any live neighbor (itself included when it is in the live
	// set); -1 when no radius reaches one.
	resp := scoreResponse{Counts: counts, FirstRadius: -1}
	for k, c := range counts {
		if c > 0 && k < len(radii) {
			resp.FirstRadius = radii[k]
			break
		}
	}
	buf := scoreBufPool.Get().(*[]byte)
	b := resp.appendJSON((*buf)[:0])
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	*buf = b
	scoreBufPool.Put(buf)
}

// handleRadii reports the current radii schedule with its epoch, so a
// client can interpret /v1/score count curves (counts[k] pairs with
// radii[k]) without every score reply re-shipping the schedule.
func (s *Server[T]) handleRadii(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"radii": s.b.Radii(), "epoch": s.b.Epoch(),
	})
}

func (s *Server[T]) handleTopK(w http.ResponseWriter, r *http.Request) {
	k := 10
	if v := r.URL.Query().Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, "bad k %q", v)
			return
		}
		k = n
	}
	res, err := s.detectCached()
	if err != nil {
		httpError(w, statusOf(err), "%v", err)
		return
	}
	mcs := res.Microclusters
	if k < len(mcs) {
		mcs = mcs[:k]
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"n":             len(res.PointScores),
		"cutoff":        res.Cutoff,
		"microclusters": mcs,
	})
}

// decodeItem unmarshals one item and runs the installed validator.
func (s *Server[T]) decodeItem(raw json.RawMessage, dst *T) error {
	if err := json.Unmarshal(raw, dst); err != nil {
		return fmt.Errorf("malformed item: %w", err)
	}
	if s.validate != nil {
		return s.validate(*dst)
	}
	return nil
}

// statusOf maps engine errors to HTTP statuses: read-only mutation 409,
// empty-collection detect 422, shutdown 503, anything else 500.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrReadOnly):
		return http.StatusConflict
	case errors.Is(err, core.ErrEmptyDataset):
		return http.StatusUnprocessableEntity
	case errors.Is(err, errClosed):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
