package serve

import (
	"errors"
	"sync"
	"time"
)

// errClosed is what Score returns for requests that arrive after Close;
// the handler maps it to 503 so load balancers retry elsewhere.
var errClosed = errors.New("serve: server is shutting down")

// batchResult is one waiter's share of a flushed batch: its counts plus
// the radii schedule they were answered under (shared across the batch,
// read inside the same engine critical section as the counts).
type batchResult struct {
	counts []int
	radii  []float64
	err    error
}

// waiter is one enqueued score-point request: its query and the channel
// its batch's flusher resolves it on (buffered, so flushing never blocks
// on a slow reader).
type waiter[T any] struct {
	q    T
	done chan batchResult
}

// batcher coalesces concurrent score-point requests by contention, in
// the manner of flat combining: a query that arrives while no flush is
// running ships at once on its own goroutine (no timer, no handoff), so
// an idle engine answers without delay. Queries that arrive while a
// flush runs queue, and the queue ships as one batch the moment the last
// running flush returns, or on reaching maxBatch queries, or once its
// oldest query has waited maxWait, whichever comes first. Each flush
// answers the whole batch through ONE run call — one engine-lock
// acquisition and one shared scratch buffer for the entire batch — which
// is what turns N concurrent single-point queries into the batched
// zero-alloc multi-count path the indexes are fast at.
type batcher[T any] struct {
	run      func(qs []T) ([][]int, []float64, error)
	maxBatch int
	maxWait  time.Duration

	mu      sync.Mutex
	pending []waiter[T]
	timer   *time.Timer
	closed  bool
	// running counts the flushes in progress, whatever started them; a
	// non-empty queue implies running > 0, because the flush that takes
	// running to 0 ships the queue.
	running int
	// spare and qsSpare recycle the previous batch's slices (handed back
	// by flush) so a steady request stream stops allocating per batch.
	spare   []waiter[T]
	qsSpare []T
}

// donePool recycles waiter channels: each gets exactly one send and one
// receive per use, so a received-from channel is safe to reuse.
var donePool = sync.Pool{New: func() any { return make(chan batchResult, 1) }}

func newBatcher[T any](maxBatch int, maxWait time.Duration, run func([]T) ([][]int, []float64, error)) *batcher[T] {
	if maxBatch < 1 {
		maxBatch = 1
	}
	return &batcher[T]{run: run, maxBatch: maxBatch, maxWait: maxWait}
}

// Score answers one query, shipping it at once when no flush is running
// and otherwise queueing it for the next batch, and blocks until its
// batch resolves. It returns the counts (owned by the caller) and the
// radii schedule they were answered under (shared, read-only).
func (b *batcher[T]) Score(q T) ([]int, []float64, error) {
	done := donePool.Get().(chan batchResult)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		donePool.Put(done)
		return nil, nil, errClosed
	}
	if b.pending == nil && b.spare != nil {
		b.pending, b.spare = b.spare[:0], nil
	}
	b.pending = append(b.pending, waiter[T]{q: q, done: done})
	if b.running == 0 || len(b.pending) >= b.maxBatch || b.maxWait <= 0 {
		batch := b.take()
		b.mu.Unlock()
		b.flush(batch)
	} else {
		if len(b.pending) == 1 {
			b.timer = time.AfterFunc(b.maxWait, b.timedFlush)
		}
		b.mu.Unlock()
	}
	r := <-done
	donePool.Put(done)
	return r.counts, r.radii, r.err
}

// take detaches the pending batch, disarms its deadline and counts the
// flush it starts; callers hold b.mu and flush the batch.
func (b *batcher[T]) take() []waiter[T] {
	batch := b.pending
	b.pending = nil
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	if len(batch) > 0 {
		b.running++
	}
	return batch
}

// timedFlush is the maxWait deadline: whatever is pending ships now.
func (b *batcher[T]) timedFlush() {
	b.mu.Lock()
	batch := b.take()
	b.mu.Unlock()
	b.flush(batch)
}

// flush answers one detached batch with a single run call and resolves
// every waiter. A run error fails the whole batch — per-query conditions
// (wrong dimensionality etc.) are the validator's job before enqueueing.
// When it is the last flush running, it hands the queue that formed
// behind it to a fresh goroutine, after its own waiters have their
// answers: the caller that ran this flush replies without waiting for
// the next one.
func (b *batcher[T]) flush(batch []waiter[T]) {
	if len(batch) == 0 {
		return
	}
	b.mu.Lock()
	qs := b.qsSpare[:0]
	b.qsSpare = nil
	b.mu.Unlock()
	for _, w := range batch {
		qs = append(qs, w.q)
	}
	counts, radii, err := b.run(qs)
	for i, w := range batch {
		if err != nil {
			w.done <- batchResult{err: err}
			continue
		}
		w.done <- batchResult{counts: counts[i], radii: radii}
	}
	// Hand the slices back for the next batch, dropping the query and
	// channel references they still hold.
	clear(batch)
	clear(qs)
	b.mu.Lock()
	if b.spare == nil {
		b.spare = batch[:0]
	}
	if b.qsSpare == nil {
		b.qsSpare = qs[:0]
	}
	b.running--
	var next []waiter[T]
	if b.running == 0 {
		next = b.take()
	}
	b.mu.Unlock()
	if len(next) > 0 {
		go b.flush(next)
	}
}

// Close flushes the queued batch without waiting for the running
// flushes, and fails all later Score calls with errClosed: every request
// that made it into the queue gets a real answer, so a graceful shutdown
// never drops an accepted query.
func (b *batcher[T]) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	batch := b.take()
	b.mu.Unlock()
	b.flush(batch)
}
