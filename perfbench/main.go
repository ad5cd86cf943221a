// Command perfbench is the repository benchmark. It drives one workload
// through the public mccatch API and prints, as the last line of its
// standard output, one JSON object with the keys correct, attempted,
// failed and metrics.
//
//	bash perfbench/run.sh --workload http --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it replays each workload step by step through the
// layers' own functions, records spans around every layer call, and
// reports the per-layer metrics instead (README.md lists both sets).
// A failed correctness check prints the result with "correct": false
// and exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, reported by every
// workload; BENCHMARK.json lists the same names and units. Tail
// percentiles are printed with their sample counts but not reported
// here: on a shared virtual machine a p99 moves with the host from run
// to run far more than any regression bound allows.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"detect_s", "s"},
	{"detect_alloc_mb", "MB"},
	{"index_mb", "MB"},
	{"score_p50_ms", "ms"},
	{"success_rate", "%"},
}

// perLayer are the metrics of a traced run. A workload that never calls
// a layer reports its metrics as 0.
var perLayer = []metricSpec{
	{"index.build_s", "s"},
	{"index.build_dist_calls", "count"},
	{"step1.diameter_s", "s"},
	{"step1.dist_calls", "count"},
	{"step2.selfjoin_s", "s"},
	{"step2.dist_calls", "count"},
	{"step2.alloc_mb", "MB"},
	{"step2.share", "ratio"},
	{"step3.gel_s", "s"},
	{"step3.candidates", "count"},
	{"step3.pairs", "count"},
	{"step4.inlier_build_s", "s"},
	{"step4.bridge_s", "s"},
	{"step4.outliers", "count"},
	{"core.rest_s", "s"},
	{"trace.detect_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.samples", "count"},
	{"shard.partition_s", "s"},
	{"shard.build_s", "s"},
	{"shard.self_s", "s"},
	{"shard.cross_s", "s"},
	{"shard.cross_share", "ratio"},
	{"shard.imbalance", "ratio"},
	{"segment.probe_us_per_query", "us"},
	{"segment.insert_p99_ms", "ms"},
	{"segment.insert_max_ms", "ms"},
	{"segment.detect_s", "s"},
	{"segment.busy_share", "ratio"},
	{"serve.batch_size_mean", "count"},
	{"serve.batches", "count"},
	{"serve.detect_cache_hit_ratio", "ratio"},
	{"serve.overhead_us.score", "us"},
	{"serve.overhead_us.ingest", "us"},
	{"serve.overhead_us.detect", "us"},
	{"gen.send_lag_p99_ms", "ms"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration // how long the measured phase runs
	trace    bool
	spansDir string
	workers  int
}

// outcome is what a workload hands back: its metrics by name, the
// operations and checks it attempted and how many failed, and the
// human-readable lines that state each median's sample count.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	notes     []string
	spans     *tracer // nil for an untraced run
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// note records a human-readable report line.
func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// check counts one correctness check, and a failure when err is non-nil.
func (o *outcome) check(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		o.note("FAILED CHECK: %v", err)
	}
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(config) (*outcome, error){
	"http":         runHTTP,
	"http-sharded": runHTTPSharded,
	"names":        runNames,
	"serve":        runServe,
}

// wallCap bounds one invocation: a workload still running past it is
// stopped with a loud error instead of hanging the caller.
func wallCap(window time.Duration) time.Duration {
	c := window + 120*time.Second
	if c > 170*time.Second {
		c = 170 * time.Second
	}
	return c
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: http, http-sharded, names or serve")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 25, "length of the measured phase, in seconds")
		trace    = flag.Int("trace", 0, "1 = traced per-layer run, 0 = untraced end-to-end run")
		spansDir = flag.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	)
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok {
		fatalf("unknown --workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fatalf("--seconds must be positive and --trace 0 or 1")
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		spansDir: *spansDir,
		workers:  runtime.NumCPU(),
	}
	limit := wallCap(cfg.window)
	watchdog := time.AfterFunc(limit, func() {
		fatalf("workload %s exceeded its %v wall-clock cap", cfg.workload, limit)
	})
	out, err := drive(cfg)
	watchdog.Stop()
	if err != nil {
		fatalf("workload %s: %v", cfg.workload, err)
	}
	if out.spans != nil {
		path, err := out.spans.writeFile(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err != nil {
			fatalf("writing spans: %v", err)
		}
		out.note("spans written to %s", path)
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	line, err := resultLine(out, specs, !cfg.trace)
	if err != nil {
		fatalf("workload %s: %v", cfg.workload, err)
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}
	fmt.Println(string(line))
	if out.failed > 0 {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// resultLine encodes the final JSON line with exactly the metrics of
// specs. With requireAll, a metric the workload did not produce is a bug
// in the benchmark; otherwise (per-layer metrics) an idle layer reads 0.
func resultLine(o *outcome, specs []metricSpec, requireAll bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(specs))
	for _, s := range specs {
		v, ok := o.metrics[s.name]
		if !ok && requireAll {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		ms[s.name] = value{v, s.unit}
	}
	if o.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, ms})
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
