package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, when it started and
// ended (offsets from the tracer's epoch) and the span that caused it
// (0 for a root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps every span of a traced run in memory; writeFile puts
// them out when the run ends. It is safe for concurrent use, so the
// per-shard goroutines of a sharded replay can record their own spans.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds an already-timed span and returns its id.
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return len(t.spans)
}

// get returns span id.
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// children returns the spans whose parent is id.
func (t *tracer) children(id int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// selfTime is span id's duration minus the part of its interval its
// children cover (see selfTimeOf).
func (t *tracer) selfTime(id int) time.Duration {
	return selfTimeOf(t.get(id), t.children(id))
}

// selfTimeOf is s's duration minus the union of its children's
// intervals clipped to s, so that concurrent children overlapping each
// other are not subtracted twice.
func selfTimeOf(s span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered time.Duration
	cur := iv{-1, -1}
	for _, v := range ivs {
		if v.lo > cur.hi {
			covered += cur.hi - cur.lo
			cur = v
			continue
		}
		cur.hi = max(cur.hi, v.hi)
	}
	covered += cur.hi - cur.lo
	return s.dur() - covered
}

// sumByName totals the durations of the children of parent named name
// (busy time: concurrent children add up).
func (t *tracer) sumByName(parent int, name string) time.Duration {
	var d time.Duration
	for _, c := range t.children(parent) {
		if c.Name == name {
			d += c.dur()
		}
	}
	return d
}

// writeFile writes every span, one JSON object a line, to dir/name and
// returns the file's path.
func (t *tracer) writeFile(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, nil
}
