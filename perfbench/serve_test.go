package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduleDueTimesAndMix(t *testing.T) {
	// A window shorter than the detect period still gets one detect, in
	// its middle.
	reqs := schedule(time.Second, 4, 2, 10*time.Second, rand.New(rand.NewSource(1)))
	var dues, detectDues []time.Duration
	for _, r := range reqs {
		if r.kind == kindDetect {
			detectDues = append(detectDues, r.due)
		} else {
			dues = append(dues, r.due)
		}
	}
	want := []time.Duration{0, 250 * time.Millisecond, 500 * time.Millisecond, 750 * time.Millisecond}
	if !reflect.DeepEqual(dues, want) || !reflect.DeepEqual(detectDues, []time.Duration{500 * time.Millisecond}) {
		t.Errorf("due times at 4 req/s over 1 s = %v and detects %v, want %v and [500ms]", dues, detectDues, want)
	}

	window := 25 * time.Second
	reqs = schedule(window, 400, 10, 5*time.Second, rand.New(rand.NewSource(7)))
	counts := map[reqKind]int{}
	var detects []time.Duration
	perBlock := map[int]int{}
	for i, r := range reqs {
		counts[r.kind]++
		if i > 0 && r.due < reqs[i-1].due {
			t.Fatalf("schedule not sorted at %d", i)
		}
		switch r.kind {
		case kindDetect:
			detects = append(detects, r.due)
		case kindIngest:
			perBlock[int(r.due/(25*time.Millisecond))]++ // 10 requests per 25 ms at 400 req/s
		}
	}
	if counts[kindScore] != 9000 || counts[kindIngest] != 1000 {
		t.Errorf("mix = %d scores, %d ingests; want 9000 and 1000", counts[kindScore], counts[kindIngest])
	}
	wantDetects := []time.Duration{2500 * time.Millisecond, 7500 * time.Millisecond, 12500 * time.Millisecond, 17500 * time.Millisecond, 22500 * time.Millisecond}
	if !reflect.DeepEqual(detects, wantDetects) {
		t.Errorf("detects due at %v, want %v", detects, wantDetects)
	}
	for b, n := range perBlock {
		if n != 1 {
			t.Errorf("block %d holds %d ingests, want exactly one", b, n)
		}
	}

	again := schedule(window, 400, 10, 5*time.Second, rand.New(rand.NewSource(7)))
	if !reflect.DeepEqual(reqs, again) {
		t.Error("the same seed gave a different schedule")
	}
}

func TestLagAndLatencyCountFromDue(t *testing.T) {
	r := request{due: 10 * time.Millisecond, sent: 12 * time.Millisecond, done: 15 * time.Millisecond}
	if r.lag() != 2*time.Millisecond || r.latency() != 5*time.Millisecond {
		t.Errorf("lag %v latency %v, want 2ms and 5ms", r.lag(), r.latency())
	}
}

// TestDriveOpenLoop stalls the first request on a single connection: the
// requests due during the stall go out late, and their latency counts
// the wait from their due time.
func TestDriveOpenLoop(t *testing.T) {
	stall := 60 * time.Millisecond
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 1 {
			time.Sleep(stall)
		}
		if r.URL.Path == "/v1/ingest" {
			_, _ = w.Write([]byte(`{"handles":[41]}`))
		}
	}))
	defer ts.Close()

	reqs := schedule(40*time.Millisecond, 1000, 10, time.Second, rand.New(rand.NewSource(1)))
	drive(ts.URL, reqs, 1, time.Now())
	for i := range reqs {
		r := &reqs[i]
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		if r.kind == kindIngest && r.handle != 41 {
			t.Errorf("ingest %d recorded handle %d, want 41", i, r.handle)
		}
		if r.latency() < r.lag() || r.lag() < 0 {
			t.Errorf("request %d: lag %v latency %v", i, r.lag(), r.latency())
		}
	}
	r := reqs[20] // due at 20 ms, in the middle of the stall
	if r.lag() < stall-25*time.Millisecond {
		t.Errorf("request due at %v went out only %v late during a %v stall", r.due, r.lag(), stall)
	}
	if r.latency() < stall-r.due {
		t.Errorf("latency %v does not count the wait from due time", r.latency())
	}
}
