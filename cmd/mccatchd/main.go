// Command mccatchd is the long-lived MCCATCH detection service: it
// serves ingest / delete / detect / score-point / top-k-outliers over
// HTTP, coalescing concurrent score requests into batched index
// traversals and caching detection results until a mutation invalidates
// them (see internal/serve for the endpoint reference).
//
// Two serving modes:
//
//	mccatchd -index-file data.idx            # read-only, mmap-backed, instant cold start
//	mccatchd -dim 2                          # empty mutable collection, fill via /v1/ingest
//	mccatchd -dim 2 -input data.csv          # mutable, preloaded from a CSV
//	mccatchd -format text -input names.txt   # mutable string collection (Levenshtein)
//
// A read-only server answers queries straight off the frozen index and
// rejects mutations with 409; a mutable server accepts ingests and
// deletes and recomputes cached results only when the live set actually
// changes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mccatch"
	"mccatch/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mccatchd: ")
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		idxFile   = flag.String("index-file", "", "serve this saved index read-only (mmap-backed)")
		input     = flag.String("input", "", "preload the mutable collection from this file")
		format    = flag.String("format", "csv", "data format: csv (vectors) or text (strings)")
		dim       = flag.Int("dim", 0, "vector dimensionality for an empty mutable csv server")
		a         = flag.Int("a", 0, "number of radii (0 = default 15)")
		b         = flag.Float64("b", -1, "maximum plateau slope (<0 = default 0.1)")
		c         = flag.Int("c", 0, "maximum microcluster cardinality (0 = ceil(n*0.1))")
		workers   = flag.Int("workers", 0, "concurrent workers inside one detection (0 = all cores)")
		shards    = flag.Int("shards", 0, "concurrent per-shard pipelines inside one detection (0 = default 1; mutable servers only)")
		batch     = flag.Int("batch", 16, "score coalescing: flush a micro-batch at this many queries")
		batchWait = flag.Duration("batch-wait", 500*time.Microsecond, "score coalescing: flush after the oldest query waited this long (0 disables coalescing)")
	)
	flag.Parse()
	if msg := conflictingFlags(*idxFile, *input, *dim, *shards, *format); msg != "" {
		fmt.Fprintf(os.Stderr, "mccatchd: %s\n\n", msg)
		flag.Usage()
		os.Exit(2)
	}

	var opts []mccatch.Option
	if *a != 0 {
		opts = append(opts, mccatch.WithRadii(*a))
	}
	if *b >= 0 {
		opts = append(opts, mccatch.WithMaxSlope(*b))
	}
	if *c != 0 {
		opts = append(opts, mccatch.WithMaxCardinality(*c))
	}
	if *workers != 0 {
		opts = append(opts, mccatch.WithWorkers(*workers))
	}
	if *shards != 0 {
		opts = append(opts, mccatch.WithShards(*shards))
	}

	handler, cleanup, err := buildHandler(*idxFile, *input, *format, *dim, *batch, *batchWait, opts)
	if err != nil {
		log.Fatal(err)
	}

	srv := newServer(*addr, handler)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // stop accepting, drain handlers
		cleanup()             // flush in-flight micro-batches, close the index
	}()
	log.Printf("serving on %s", *addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-done
}

// The daemon's connection timeouts. readHeaderTimeout cuts off a client
// that stalls while sending its request headers (slowloris), and
// idleTimeout closes keep-alive connections left unused. There is no
// write timeout: a full /v1/detect on a large collection legitimately
// runs for minutes before its reply is written.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer returns the daemon's HTTP server for handler on addr.
func newServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// conflictingFlags rejects combinations where one flag would be silently
// ignored, mirroring cmd/mccatch's policy: fail loudly instead of acting
// on half the flags.
func conflictingFlags(idxFile, input string, dim, shards int, format string) string {
	switch {
	case idxFile != "" && input != "":
		return "-index-file and -input are mutually exclusive (a saved index is served read-only)"
	case idxFile != "" && dim != 0:
		return "-index-file and -dim are mutually exclusive (the index fixes the dimensionality)"
	case idxFile != "" && shards > 1:
		return "-index-file and -shards are mutually exclusive (a saved index is one frozen tree; sharding applies to mutable servers)"
	case idxFile == "" && format == "csv" && dim == 0 && input == "":
		return "a mutable csv server needs -dim (or -input to infer it)"
	case idxFile == "" && format == "text" && input == "":
		return "a mutable text server needs -input (the transformation costs are derived from the data)"
	}
	return ""
}

// buildHandler assembles the serving stack for the selected mode and
// returns it with its shutdown hook.
func buildHandler(idxFile, input, format string, dim, batch int, batchWait time.Duration, opts []mccatch.Option) (http.Handler, func(), error) {
	serveOpts := func(validate func([]float64) error) []serve.Option[[]float64] {
		so := []serve.Option[[]float64]{serve.WithBatch[[]float64](batch, batchWait)}
		if validate != nil {
			so = append(so, serve.WithValidator(validate))
		}
		return so
	}
	if idxFile != "" {
		switch format {
		case "csv":
			d, err := mccatch.OpenVectors(idxFile, opts...)
			if err != nil {
				return nil, nil, err
			}
			dim := 0
			if items := d.Items(); len(items) > 0 {
				dim = len(items[0])
			}
			s := serve.New(serve.ReadOnly(d), serveOpts(vectorValidator(dim))...)
			log.Printf("read-only: %s (n=%d, dim=%d)", idxFile, d.Size(), dim)
			return s, func() { s.Close(); d.Close() }, nil
		case "text":
			d, err := mccatch.OpenStrings(idxFile, opts...)
			if err != nil {
				return nil, nil, err
			}
			s := serve.New(serve.ReadOnly(d), serve.WithBatch[string](batch, batchWait))
			log.Printf("read-only: %s (n=%d)", idxFile, d.Size())
			return s, func() { s.Close(); d.Close() }, nil
		default:
			return nil, nil, fmt.Errorf("unknown -format %q (want csv or text)", format)
		}
	}
	switch format {
	case "csv":
		var pts [][]float64
		if input != "" {
			f, err := os.Open(input)
			if err != nil {
				return nil, nil, err
			}
			if pts, err = readCSV(f); err != nil {
				f.Close()
				return nil, nil, err
			}
			f.Close()
			if dim == 0 {
				dim = len(pts[0])
			}
		}
		inc, err := mccatch.NewIncrementalVectors(dim, opts...)
		if err != nil {
			return nil, nil, err
		}
		for _, p := range pts {
			if _, err := inc.Insert(p); err != nil {
				return nil, nil, err
			}
		}
		s := serve.New(serve.Mutable(inc), serveOpts(vectorValidator(dim))...)
		log.Printf("mutable: dim=%d, preloaded n=%d", dim, inc.Len())
		return s, func() { s.Close() }, nil
	case "text":
		f, err := os.Open(input)
		if err != nil {
			return nil, nil, err
		}
		words, err := readLines(f)
		f.Close()
		if err != nil {
			return nil, nil, err
		}
		all := append([]mccatch.Option{mccatch.DeriveWordCost(words)}, opts...)
		inc, err := mccatch.NewIncremental(mccatch.Levenshtein, all...)
		if err != nil {
			return nil, nil, err
		}
		for _, w := range words {
			if _, err := inc.Insert(w); err != nil {
				return nil, nil, err
			}
		}
		s := serve.New(serve.Mutable(inc), serve.WithBatch[string](batch, batchWait))
		log.Printf("mutable text: preloaded n=%d", inc.Len())
		return s, func() { s.Close() }, nil
	default:
		return nil, nil, fmt.Errorf("unknown -format %q (want csv or text)", format)
	}
}

// vectorValidator rejects items the engine could not answer for: wrong
// dimensionality would fail (or poison) a whole coalesced batch.
func vectorValidator(dim int) func([]float64) error {
	if dim <= 0 {
		return nil
	}
	return func(p []float64) error {
		if len(p) != dim {
			return fmt.Errorf("point has dimension %d, want %d", len(p), dim)
		}
		return nil
	}
}
