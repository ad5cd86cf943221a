// Command mccatch runs the MCCATCH microcluster detector on a dataset read
// from a file or stdin and prints the ranked microclusters with their
// anomaly scores, plus (optionally) a score for every point.
//
// Vector data is CSV (one point per row, numeric columns, optional header);
// string data is one element per line. The distance is Euclidean for CSV
// and Levenshtein for text, matching the paper's defaults.
//
// Usage:
//
//	mccatch -input data.csv
//	mccatch -input names.txt -format text
//	mccatch -input data.csv -a 15 -b 0.1 -c 0   # explicit hyperparameters
//	mccatch -input data.csv -shards 4           # index cut into 4 shards (identical output)
//
// Build-once/query-many: -save-index builds the index from the input and
// writes it to disk without detecting; -index-file reopens such a file
// (mmap-backed) and detects or probes without ever rebuilding the index:
//
//	mccatch -input data.csv -save-index data.idx
//	mccatch -index-file data.idx                 # identical output to the direct run
//	mccatch -index-file data.idx -probe 17       # one point's neighbor-count curve
package main

import (
	"bufio"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strconv"

	"mccatch"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mccatch: ")
	var (
		input   = flag.String("input", "-", "input file (- for stdin)")
		format  = flag.String("format", "csv", "input format: csv (vectors) or text (strings)")
		a       = flag.Int("a", 0, "number of radii (0 = default 15)")
		b       = flag.Float64("b", -1, "maximum plateau slope (<0 = default 0.1)")
		c       = flag.Int("c", 0, "maximum microcluster cardinality (0 = ceil(n*0.1))")
		points  = flag.Bool("points", false, "also print the per-point scores")
		top     = flag.Int("top", 10, "print at most this many microclusters")
		summary = flag.Bool("summary", false, "print the explainability summary (radii, cutoff, ranked mcs)")
		explain = flag.Int("explain", -1, "explain why one point (by index) scored the way it did")
		workers = flag.Int("workers", 0, "concurrent workers (0 = all cores, 1 = serial; output is identical)")
		shards  = flag.Int("shards", 0, "cut the index into this many shards, built and self-joined concurrently (0 = default 1; output is identical for every value)")
		incr    = flag.Bool("incremental", false, "feed the data through the mutable incremental layer (insert-all, detect; output is identical)")
		saveIdx = flag.String("save-index", "", "build the index from the input, save it to this file, and exit without detecting")
		idxFile = flag.String("index-file", "", "open a saved index file instead of reading -input (mmap-backed; output is identical to the direct run)")
		probe   = flag.Int("probe", -1, "print one element's neighbor-count curve (radius,count per line) instead of detecting")
		maxHeap = flag.Int("max-heap", 0, "fail after the run if the Go heap obtained more than this many MiB from the OS (0 = no check)")
	)
	flag.Parse()
	if msg := conflictingFlags(*incr, *saveIdx, *idxFile, *probe, *shards); msg != "" {
		fmt.Fprintf(os.Stderr, "mccatch: %s\n\n", msg)
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

	if *incr {
		r := openInput(*input)
		res, describe, err := detectIncremental(*format, r, opts)
		if err != nil {
			log.Fatal(err)
		}
		report(res, describe, *summary, *explain, *top, *points)
		checkHeap(*maxHeap)
		return
	}

	switch *format {
	case "csv":
		var d *mccatch.Detector[[]float64]
		var err error
		if *idxFile != "" {
			d, err = mccatch.OpenVectors(*idxFile, opts...)
		} else {
			var pts [][]float64
			if pts, err = readCSV(openInput(*input)); err == nil {
				d, err = mccatch.BuildVectors(pts, opts...)
			}
		}
		if err != nil {
			log.Fatal(err)
		}
		defer d.Close()
		items := d.Items()
		describe := func(i int) string { return fmt.Sprintf("row %d %v", i, items[i]) }
		run(d, describe, *saveIdx, *probe, *summary, *explain, *top, *points)
	case "text":
		var d *mccatch.Detector[string]
		var err error
		if *idxFile != "" {
			d, err = mccatch.OpenStrings(*idxFile, opts...)
		} else {
			var words []string
			if words, err = readLines(openInput(*input)); err == nil {
				d, err = mccatch.BuildStrings(words, opts...)
			}
		}
		if err != nil {
			log.Fatal(err)
		}
		defer d.Close()
		items := d.Items()
		describe := func(i int) string { return fmt.Sprintf("line %d %q", i, items[i]) }
		run(d, describe, *saveIdx, *probe, *summary, *explain, *top, *points)
	default:
		log.Fatalf("unknown -format %q (want csv or text)", *format)
	}
	checkHeap(*maxHeap)
}

// conflictingFlags rejects flag combinations where one flag would have
// to be silently ignored: the incremental layer has no on-disk form and
// prints a full detection report (it never probes), -save-index and
// -index-file each claim the index's home, -save-index exits before any
// probe could run, and a sharded detector neither saves to nor opens
// from an index file (the partition has no on-disk format). A non-empty
// return is the usage error (the caller prints it plus the flag summary
// and exits nonzero, so scripts fail loudly instead of acting on half
// the flags).
func conflictingFlags(incr bool, saveIdx, idxFile string, probe, shards int) string {
	switch {
	case incr && (saveIdx != "" || idxFile != ""):
		return "-incremental cannot be combined with -save-index/-index-file (the incremental layer has no on-disk form)"
	case incr && probe >= 0:
		return "-incremental and -probe are mutually exclusive (-incremental prints a full detection report; probe a built or saved index instead)"
	case saveIdx != "" && idxFile != "":
		return "-save-index and -index-file are mutually exclusive (the index is already on disk)"
	case saveIdx != "" && probe >= 0:
		return "-save-index and -probe are mutually exclusive (-save-index exits without querying; probe the saved file with -index-file -probe)"
	case shards > 1 && idxFile != "":
		return "-shards cannot be combined with -index-file (a saved index is one frozen tree; shard at build time instead)"
	case shards > 1 && saveIdx != "":
		return "-shards cannot be combined with -save-index (the shard partition has no on-disk format)"
	}
	return ""
}

// openInput opens -input (stdin for "-"); the process exit releases it.
func openInput(input string) io.Reader {
	if input == "-" {
		return os.Stdin
	}
	f, err := os.Open(input)
	if err != nil {
		log.Fatal(err)
	}
	return f
}

// run drives one built or opened detector through the requested mode:
// save-and-exit, a single probe, or a full detection report.
func run[T any](d *mccatch.Detector[T], describe func(i int) string, saveIdx string, probe int, summary bool, explain, top int, points bool) {
	if saveIdx != "" {
		if err := d.WriteFile(saveIdx); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved index: %s (n=%d)\n", saveIdx, d.Size())
		return
	}
	if probe >= 0 {
		if probe >= d.Size() {
			log.Fatalf("-probe %d out of range (n=%d)", probe, d.Size())
		}
		radii := d.Radii()
		counts, err := d.Probe(d.Items()[probe])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n", describe(probe))
		for k, r := range radii {
			fmt.Printf("%.6g,%d\n", r, counts[k])
		}
		return
	}
	res, err := d.Detect()
	if err != nil {
		log.Fatal(err)
	}
	report(res, describe, summary, explain, top, points)
}

func report(res *mccatch.Result, describe func(i int) string, summary bool, explain, top int, points bool) {
	if summary {
		fmt.Print(res.Summary())
	}
	if explain >= 0 {
		fmt.Println(res.ExplainPoint(explain))
	}
	printResult(os.Stdout, res, describe, top, points)
}

// checkHeap enforces -max-heap: it fails the process when the Go heap
// obtained more than the cap from the OS. The CI memory-capped job uses
// it to prove a query run over an mmap-backed index stays small where an
// in-RAM rebuild of the same index cannot.
func checkHeap(maxHeapMiB int) {
	if maxHeapMiB <= 0 {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if got := ms.HeapSys >> 20; got > uint64(maxHeapMiB) {
		log.Fatalf("heap grew to %d MiB, cap is %d MiB", got, maxHeapMiB)
	}
}

// detectIncremental reads the dataset and runs it through the mutable
// incremental layer (insert every element, detect). The output
// is byte-identical to the direct path; TestIncrementalCLIByteIdentical
// pins it.
func detectIncremental(format string, r io.Reader, opts []mccatch.Option) (*mccatch.Result, func(i int) string, error) {
	switch format {
	case "csv":
		pts, err := readCSV(r)
		if err != nil {
			return nil, nil, err
		}
		describe := func(i int) string { return fmt.Sprintf("row %d %v", i, pts[i]) }
		inc, err := mccatch.NewIncrementalVectors(len(pts[0]), opts...)
		if err != nil {
			return nil, nil, err
		}
		for _, p := range pts {
			if _, err := inc.Insert(p); err != nil {
				return nil, nil, err
			}
		}
		res, err := inc.Detect()
		return res, describe, err
	case "text":
		words, err := readLines(r)
		if err != nil {
			return nil, nil, err
		}
		describe := func(i int) string { return fmt.Sprintf("line %d %q", i, words[i]) }
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
		res, err := inc.Detect()
		return res, describe, err
	default:
		return nil, nil, fmt.Errorf("unknown -format %q (want csv or text)", format)
	}
}

// printResult writes the ranked-microcluster report.
func printResult(w io.Writer, res *mccatch.Result, describe func(i int) string, top int, points bool) {
	fmt.Fprintf(w, "n=%d  diameter=%.4g  cutoff=%.4g  microclusters=%d\n",
		len(res.PointScores), res.Diameter, res.Cutoff, len(res.Microclusters))
	for i, mc := range res.Microclusters {
		if i >= top {
			fmt.Fprintf(w, "... and %d more\n", len(res.Microclusters)-top)
			break
		}
		fmt.Fprintf(w, "#%d score=%.3f bridge=%.4g |members|=%d\n", i+1, mc.Score, mc.Bridge, len(mc.Members))
		for _, m := range mc.Members {
			fmt.Fprintf(w, "   %s\n", describe(m))
		}
	}
	if points {
		fmt.Fprintln(w, "point scores:")
		for i, s := range res.PointScores {
			fmt.Fprintf(w, "%d,%.6f\n", i, s)
		}
	}
}

// readCSV parses numeric CSV rows, skipping a header row if the first row
// fails to parse as numbers.
func readCSV(r io.Reader) ([][]float64, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	var pts [][]float64
	first := true
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		row := make([]float64, len(rec))
		ok := true
		for j, f := range rec {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				ok = false
				break
			}
			row[j] = v
		}
		if !ok {
			if first {
				first = false
				continue // header
			}
			return nil, fmt.Errorf("non-numeric row %v", rec)
		}
		first = false
		pts = append(pts, row)
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("no data rows")
	}
	return pts, nil
}

func readLines(r io.Reader) ([]string, error) {
	var out []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			out = append(out, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no input lines")
	}
	return out, nil
}
