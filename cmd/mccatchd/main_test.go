package main

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mccatch"
)

func TestConflictingFlags(t *testing.T) {
	cases := []struct {
		name           string
		idxFile, input string
		dim, shards    int
		format         string
		wantErr        bool
	}{
		{name: "read-only csv", idxFile: "x.idx", format: "csv"},
		{name: "read-only text", idxFile: "x.idx", format: "text"},
		{name: "mutable csv with dim", dim: 2, format: "csv"},
		{name: "mutable csv with input", input: "d.csv", format: "csv"},
		{name: "mutable text with input", input: "d.txt", format: "text"},
		{name: "index+input", idxFile: "x.idx", input: "d.csv", format: "csv", wantErr: true},
		{name: "index+dim", idxFile: "x.idx", dim: 2, format: "csv", wantErr: true},
		{name: "mutable csv without dim or input", format: "csv", wantErr: true},
		{name: "mutable text without input", format: "text", wantErr: true},
		{name: "mutable csv sharded", dim: 2, shards: 4, format: "csv"},
		{name: "read-only shards one", idxFile: "x.idx", shards: 1, format: "csv"},
		{name: "index+shards", idxFile: "x.idx", shards: 2, format: "csv", wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msg := conflictingFlags(tc.idxFile, tc.input, tc.dim, tc.shards, tc.format)
			if got := msg != ""; got != tc.wantErr {
				t.Errorf("conflictingFlags(%q,%q,%d,%d,%q) = %q, want error %v",
					tc.idxFile, tc.input, tc.dim, tc.shards, tc.format, msg, tc.wantErr)
			}
		})
	}
}

// TestBuildHandlerReadOnly wires the full stack the quickstart documents:
// save an index with the public API, serve it with buildHandler, score a
// point against it over HTTP, and get 409 for a mutation.
func TestBuildHandlerReadOnly(t *testing.T) {
	pts := [][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0.5, 0.5}, {40, 40}}
	d, err := mccatch.BuildVectors(pts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.mcidx")
	if err := d.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	d.Close()

	h, cleanup, err := buildHandler(path, "", "csv", 0, 4, time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/score", "application/json",
		strings.NewReader(`{"item":[40,40]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score: status %d", resp.StatusCode)
	}
	var m struct {
		Counts []int `json:"counts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Counts) == 0 || m.Counts[len(m.Counts)-1] != len(pts) {
		t.Fatalf("score counts %v: the largest radius must count every element", m.Counts)
	}
	resp2, err := http.Post(ts.URL+"/v1/ingest", "application/json",
		strings.NewReader(`{"items":[[2,2]]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("ingest on read-only index: status %d, want 409", resp2.StatusCode)
	}
}

// TestBuildHandlerMutablePreload pins the -input preload path: the served
// collection starts at the CSV's size and accepts further ingests.
func TestBuildHandlerMutablePreload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.csv")
	if err := os.WriteFile(path, []byte("x,y\n0,0\n1,0\n0,1\n9,9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	h, cleanup, err := buildHandler("", path, "csv", 0, 4, time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		N int `json:"n"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.N != 4 {
		t.Fatalf("preloaded n = %d, want 4", m.N)
	}
	// Wrong dimensionality is caught by the inferred validator.
	resp2, err := http.Post(ts.URL+"/v1/score", "application/json",
		strings.NewReader(`{"item":[1,2,3]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-dim score: status %d, want 400", resp2.StatusCode)
	}
}

// TestServerTimeouts pins the daemon's connection timeouts and shows
// that a client stalling mid-header is cut off while a complete request
// on the same server is answered. The stall check shortens the header
// timeout so the test runs in well under a second; the production value
// is the constant asserted first.
func TestServerTimeouts(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { _, _ = io.WriteString(w, "ok") })
	srv := newServer("127.0.0.1:0", mux)
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout {
		t.Fatalf("timeouts: header %v, idle %v; want %v, %v", srv.ReadHeaderTimeout, srv.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	if srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Fatalf("a long /v1/detect needs no write or read deadline, got write %v, read %v", srv.WriteTimeout, srv.ReadTimeout)
	}
	srv.ReadHeaderTimeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok" {
		t.Fatalf("complete request: status %d, body %q", resp.StatusCode, body)
	}

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Headers without the blank line that ends them, then silence.
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: mccatchd\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server may answer 408 before closing; either way the
	// connection must end, not wait on the client.
	reply, err := io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("stalled client still connected after %v", time.Since(start))
	}
	if len(reply) > 0 && !strings.HasPrefix(string(reply), "HTTP/1.1 408") {
		t.Fatalf("stalled client got %q, want the connection closed", reply)
	}
}
