package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"testing"

	"mccatch"
)

func TestReadCSVPlain(t *testing.T) {
	pts, err := readCSV(strings.NewReader("1,2\n3,4\n5.5,-6\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 || pts[2][0] != 5.5 || pts[2][1] != -6 {
		t.Fatalf("bad parse: %v", pts)
	}
}

func TestReadCSVSkipsHeader(t *testing.T) {
	pts, err := readCSV(strings.NewReader("x,y\n1,2\n3,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0][0] != 1 {
		t.Fatalf("header not skipped: %v", pts)
	}
}

func TestReadCSVRejectsMidfileGarbage(t *testing.T) {
	if _, err := readCSV(strings.NewReader("1,2\nfoo,bar\n")); err == nil {
		t.Error("non-numeric mid-file row should error")
	}
}

func TestReadCSVEmpty(t *testing.T) {
	if _, err := readCSV(strings.NewReader("")); err == nil {
		t.Error("empty input should error")
	}
	if _, err := readCSV(strings.NewReader("x,y\n")); err == nil {
		t.Error("header-only input should error")
	}
}

func TestReadLines(t *testing.T) {
	lines, err := readLines(strings.NewReader("smith\n\njones\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 || lines[0] != "smith" || lines[1] != "jones" {
		t.Fatalf("bad lines: %v", lines)
	}
	if _, err := readLines(strings.NewReader("\n\n")); err == nil {
		t.Error("blank-only input should error")
	}
}

// genCSV builds a deterministic 2d dataset: two clusters plus a few
// far-away outliers, serialized as CSV.
func genCSV() string {
	var b strings.Builder
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 120; i++ {
		cx := float64(i%2) * 30
		fmt.Fprintf(&b, "%g,%g\n", cx+rng.Float64()*4, rng.Float64()*4)
	}
	b.WriteString("500,500\n501,500\n-400,250\n")
	return b.String()
}

func genText() string {
	var b strings.Builder
	rng := rand.New(rand.NewSource(43))
	alphabet := "abcdef"
	for i := 0; i < 80; i++ {
		n := 4 + rng.Intn(4)
		for j := 0; j < n; j++ {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		b.WriteByte('\n')
	}
	b.WriteString("zzzzzzzzzzzzzz\nqqqqqqqqqqqqqq\n")
	return b.String()
}

// detectOneShot replicates main's direct (non-incremental, in-memory)
// path for a test: read, build the Detector, detect.
func detectOneShot(format string, r io.Reader, opts []mccatch.Option) (*mccatch.Result, func(i int) string, error) {
	switch format {
	case "csv":
		pts, err := readCSV(r)
		if err != nil {
			return nil, nil, err
		}
		d, err := mccatch.BuildVectors(pts, opts...)
		if err != nil {
			return nil, nil, err
		}
		res, err := d.Detect()
		return res, func(i int) string { return fmt.Sprintf("row %d %v", i, pts[i]) }, err
	case "text":
		words, err := readLines(r)
		if err != nil {
			return nil, nil, err
		}
		d, err := mccatch.BuildStrings(words, opts...)
		if err != nil {
			return nil, nil, err
		}
		res, err := d.Detect()
		return res, func(i int) string { return fmt.Sprintf("line %d %q", i, words[i]) }, err
	default:
		return nil, nil, fmt.Errorf("unknown format %q", format)
	}
}

// TestIncrementalCLIByteIdentical pins the acceptance criterion: feeding
// a dataset through the incremental layer (-incremental: insert-all,
// detect) prints byte-identical output to the one-shot path, on both a
// CSV and a text dataset.
func TestIncrementalCLIByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		format, data string
	}{
		{"csv", genCSV()},
		{"text", genText()},
	} {
		t.Run(tc.format, func(t *testing.T) {
			var fresh, incr bytes.Buffer
			for _, mode := range []bool{false, true} {
				var (
					res      *mccatch.Result
					describe func(i int) string
					err      error
				)
				if mode {
					res, describe, err = detectIncremental(tc.format, strings.NewReader(tc.data), nil)
				} else {
					res, describe, err = detectOneShot(tc.format, strings.NewReader(tc.data), nil)
				}
				if err != nil {
					t.Fatal(err)
				}
				w := &fresh
				if mode {
					w = &incr
				}
				printResult(w, res, describe, 10, true)
			}
			if fresh.String() != incr.String() {
				t.Fatalf("-incremental output differs from one-shot:\n--- fresh ---\n%s--- incremental ---\n%s",
					fresh.String(), incr.String())
			}
		})
	}
}

// TestShardedCLIByteIdentical pins the -shards acceptance criterion:
// the report printed at -shards 1 is byte-identical to a run without
// the flag, and stays byte-identical at every higher shard count, on
// both a CSV and a text dataset.
func TestShardedCLIByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		format, data string
	}{
		{"csv", genCSV()},
		{"text", genText()},
	} {
		t.Run(tc.format, func(t *testing.T) {
			var base bytes.Buffer
			res, describe, err := detectOneShot(tc.format, strings.NewReader(tc.data), nil)
			if err != nil {
				t.Fatal(err)
			}
			printResult(&base, res, describe, 10, true)
			for _, shards := range []int{1, 2, 4} {
				var got bytes.Buffer
				res, describe, err := detectOneShot(tc.format, strings.NewReader(tc.data),
					[]mccatch.Option{mccatch.WithShards(shards)})
				if err != nil {
					t.Fatal(err)
				}
				printResult(&got, res, describe, 10, true)
				if base.String() != got.String() {
					t.Fatalf("-shards %d output differs from the unsharded run:\n--- unsharded ---\n%s--- sharded ---\n%s",
						shards, base.String(), got.String())
				}
			}
		})
	}
}

// TestIndexFileCLIByteIdentical pins the build-once/query-many
// acceptance criterion: detecting over an index saved to disk and
// reopened (the -save-index / -index-file round trip) prints output
// byte-identical to detecting over the freshly built in-memory index, on
// both a CSV and a text dataset — including the member descriptions,
// which an opened detector reconstructs from the file.
func TestIndexFileCLIByteIdentical(t *testing.T) {
	dir := t.TempDir()

	t.Run("csv", func(t *testing.T) {
		pts, err := readCSV(strings.NewReader(genCSV()))
		if err != nil {
			t.Fatal(err)
		}
		built, err := mccatch.BuildVectors(pts)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/vec.idx"
		if err := built.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		opened, err := mccatch.OpenVectors(path)
		if err != nil {
			t.Fatal(err)
		}
		defer opened.Close()
		var direct, viaFile bytes.Buffer
		for _, run := range []struct {
			d *mccatch.Detector[[]float64]
			w *bytes.Buffer
		}{{built, &direct}, {opened, &viaFile}} {
			items := run.d.Items()
			describe := func(i int) string { return fmt.Sprintf("row %d %v", i, items[i]) }
			res, err := run.d.Detect()
			if err != nil {
				t.Fatal(err)
			}
			printResult(run.w, res, describe, 10, true)
		}
		if direct.String() != viaFile.String() {
			t.Fatalf("-index-file output differs from direct run:\n--- direct ---\n%s--- via file ---\n%s",
				direct.String(), viaFile.String())
		}
	})

	t.Run("text", func(t *testing.T) {
		words, err := readLines(strings.NewReader(genText()))
		if err != nil {
			t.Fatal(err)
		}
		built, err := mccatch.BuildStrings(words)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/str.idx"
		if err := built.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		opened, err := mccatch.OpenStrings(path)
		if err != nil {
			t.Fatal(err)
		}
		defer opened.Close()
		var direct, viaFile bytes.Buffer
		for _, run := range []struct {
			d *mccatch.Detector[string]
			w *bytes.Buffer
		}{{built, &direct}, {opened, &viaFile}} {
			items := run.d.Items()
			describe := func(i int) string { return fmt.Sprintf("line %d %q", i, items[i]) }
			res, err := run.d.Detect()
			if err != nil {
				t.Fatal(err)
			}
			printResult(run.w, res, describe, 10, true)
		}
		if direct.String() != viaFile.String() {
			t.Fatalf("-index-file output differs from direct run:\n--- direct ---\n%s--- via file ---\n%s",
				direct.String(), viaFile.String())
		}
	})
}

// captureStdout runs f with os.Stdout redirected to a pipe and returns
// everything it printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	f()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestRunModes drives the CLI's run helper through its three modes —
// save-and-exit, probe, and a full detection report — over one dataset.
func TestRunModes(t *testing.T) {
	pts, err := readCSV(strings.NewReader(genCSV()))
	if err != nil {
		t.Fatal(err)
	}
	built, err := mccatch.BuildVectors(pts)
	if err != nil {
		t.Fatal(err)
	}
	describe := func(i int) string { return fmt.Sprintf("row %d %v", i, pts[i]) }
	path := t.TempDir() + "/run.idx"

	saved := captureStdout(t, func() { run(built, describe, path, -1, false, -1, 10, false) })
	if want := fmt.Sprintf("saved index: %s (n=%d)\n", path, len(pts)); saved != want {
		t.Fatalf("save mode printed %q, want %q", saved, want)
	}
	opened, err := mccatch.OpenVectors(path)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()

	probed := captureStdout(t, func() { run(opened, describe, "", 0, false, -1, 10, false) })
	lines := strings.Split(strings.TrimRight(probed, "\n"), "\n")
	if lines[0] != describe(0) {
		t.Fatalf("probe header = %q, want %q", lines[0], describe(0))
	}
	if want := len(opened.Radii()) + 1; len(lines) != want {
		t.Fatalf("probe printed %d lines, want %d", len(lines), want)
	}
	last := lines[len(lines)-1]
	if !strings.HasSuffix(last, fmt.Sprintf(",%d", len(pts))) {
		t.Fatalf("count at the diameter radius should be n: %q", last)
	}

	full := captureStdout(t, func() { run(opened, describe, "", -1, true, 0, 3, true) })
	// "row 12x": the planted outliers (rows 120-122) must appear as
	// described members in the report.
	for _, want := range []string{"n=123", "point scores:", "row 12"} {
		if !strings.Contains(full, want) {
			t.Fatalf("detection report missing %q:\n%s", want, full)
		}
	}
}

func TestOpenInput(t *testing.T) {
	if openInput("-") != os.Stdin {
		t.Fatal(`openInput("-") should be stdin`)
	}
	path := t.TempDir() + "/in.csv"
	if err := os.WriteFile(path, []byte("1,2\n3,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(openInput(path))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "1,2\n3,4\n" {
		t.Fatalf("openInput read %q", data)
	}
}

func TestCheckHeap(t *testing.T) {
	checkHeap(0)       // disabled: never fails
	checkHeap(1 << 20) // a 1 TiB cap: comfortably above any test heap
}

func TestConflictingFlags(t *testing.T) {
	cases := []struct {
		name    string
		incr    bool
		saveIdx string
		idxFile string
		probe   int
		shards  int
		wantErr bool
	}{
		{name: "none", probe: -1},
		{name: "probe alone", probe: 3},
		{name: "save alone", saveIdx: "x.idx", probe: -1},
		{name: "open alone", idxFile: "x.idx", probe: -1},
		{name: "open+probe", idxFile: "x.idx", probe: 3},
		{name: "incremental alone", incr: true, probe: -1},
		{name: "incremental+save", incr: true, saveIdx: "x.idx", probe: -1, wantErr: true},
		{name: "incremental+open", incr: true, idxFile: "x.idx", probe: -1, wantErr: true},
		{name: "incremental+probe", incr: true, probe: 0, wantErr: true},
		{name: "save+open", saveIdx: "x.idx", idxFile: "y.idx", probe: -1, wantErr: true},
		{name: "save+probe", saveIdx: "x.idx", probe: 0, wantErr: true},
		{name: "shards alone", probe: -1, shards: 4},
		{name: "shards one+open", idxFile: "x.idx", probe: -1, shards: 1},
		{name: "shards+incremental", incr: true, probe: -1, shards: 4},
		{name: "shards+open", idxFile: "x.idx", probe: -1, shards: 2, wantErr: true},
		{name: "shards+save", saveIdx: "x.idx", probe: -1, shards: 2, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msg := conflictingFlags(tc.incr, tc.saveIdx, tc.idxFile, tc.probe, tc.shards)
			if got := msg != ""; got != tc.wantErr {
				t.Errorf("conflictingFlags(%v,%q,%q,%d,%d) = %q, want error %v",
					tc.incr, tc.saveIdx, tc.idxFile, tc.probe, tc.shards, msg, tc.wantErr)
			}
		})
	}
}

func TestDetectUnknownFormat(t *testing.T) {
	if _, _, err := detectIncremental("xml", strings.NewReader("x"), nil); err == nil {
		t.Error("unknown format should error")
	}
	if _, _, err := detectOneShot("xml", strings.NewReader("x"), nil); err == nil {
		t.Error("unknown format should error")
	}
}
