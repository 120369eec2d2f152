// Command perfbench is the repository's benchmark. One run drives one
// workload under one seed for a fixed time and prints, as its last line,
// one JSON object with the operations attempted and failed, whether every
// output passed the benchmark's own checks, and the metrics:
//
//	go run . --workload paper_select --seed 1 --seconds 25 --trace 0
//
// (from the repository root: bash perfbench/run.sh ...). With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the run records spans
// around its calls into each layer, prints a self-time table, writes the
// spans to --out, and reports the per-layer metrics instead. README.md
// describes the workloads, the metrics and the checks.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The lists below are
// the ones BENCHMARK.json declares (a test keeps the two equal).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"heap_live_mb", "MB"},
}

var perLayer = []metricDef{
	{"synth.generate_ms", "ms"},
	{"core.joinopt_ms", "ms"},
	{"core.collect_stats_ms", "ms"},
	{"core.decide_ns", "ns"},
	{"dataset.materialize_ms", "ms"},
	{"nb.stats_ms", "ms"},
	{"nb.score_ns_per_cell", "ns"},
	{"fs.nb_evals", "count"},
	{"fs.nb_eval_us", "us"},
	{"fs.filter_ms", "ms"},
	{"fs.nb_select_s", "s"},
	{"fs.logreg_select_s", "s"},
	{"logreg.fits", "count"},
	{"logreg.fit_ms", "ms"},
	{"logreg.onehot_dims", "count"},
	{"http.rtt_us", "us"},
	{"server.handler_us", "us"},
	{"http.outside_handler_us", "us"},
	{"server.direct_us", "us"},
	{"codec.decode_us", "us"},
	{"codec.encode_us", "us"},
	{"http.conns_dialed", "count"},
	{"registry.get_ns", "ns"},
	{"registry.build_ms", "ms"},
	{"registry.entry_kb", "KB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.alloc_mb", "MB"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, options, *tracer) (*outcome, error){
	"paper_select": runPaper,
	"serve_warm":   runServeWarm,
	"serve_cold":   runServeCold,
}

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	out      string
	stderr   io.Writer
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int64
	rounds            int
	e2e, layer        map[string]float64
	runtime           runtimeDelta
	// refs are the reference kernel's times (ns) taken during the run.
	refs []float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// errCheck marks a failed correctness check.
var errCheck = errors.New("check failed")

func checkErr(err error) error { return fmt.Errorf("%w: %w", errCheck, err) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload to run: paper_select, serve_warm or serve_cold")
	seed := fl.Uint64("seed", 1, "input seed")
	seconds := fl.Int("seconds", 10, "length of the measured phase in seconds (whole rounds)")
	traceFlag := fl.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	out := fl.String("out", ".bench_build/perfbench", "directory for span files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload paper_select|serve_warm|serve_cold, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	opt := options{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		out: *out, stderr: stderr}
	traced := *traceFlag == 1

	// SIGINT and SIGTERM cancel the run; the workload's own teardown then
	// stops its server and client and the run exits without a result.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	meta := map[string]any{
		"workload": opt.workload, "seed": opt.seed, "seconds": *seconds, "trace": *traceFlag,
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "num_cpu": runtime.NumCPU(),
		"commit": commit(), "source_sha256": sourceDigest("."),
	}
	if b, err := json.Marshal(map[string]any{"meta": meta}); err == nil {
		fmt.Fprintln(stdout, string(b))
	}

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	goroutines := runtime.NumGoroutine()
	o, err := drive(ctx, opt, tr)
	if herr := goroutinesSettle(goroutines); herr != nil && err == nil {
		err = herr
	}
	if ctx.Err() != nil {
		fmt.Fprintf(stderr, "perfbench: %s interrupted; torn down, no result\n", opt.workload)
		return 130
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opt.workload, err)
		if errors.Is(err, errCheck) {
			res := result{Correct: false, Metrics: map[string]metricValue{}}
			if o != nil {
				res.Attempted, res.Failed = o.attempted, o.failed
			}
			printResult(stdout, res)
		}
		return 1
	}

	res := result{Correct: true, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	if traced {
		o.layer["go.gc_cycles"] = float64(o.runtime.gcCycles)
		o.layer["go.gc_pause_ms"] = ms(o.runtime.pause)
		o.layer["go.alloc_mb"] = o.runtime.allocMB
		fmt.Fprintf(stdout, "per-layer self time (%s, seed %d, %d rounds):\n", opt.workload, opt.seed, o.rounds)
		writeSelfTimeTable(stdout, totals(tr.all()))
		path := filepath.Join(opt.out, fmt.Sprintf("spans-%s-seed%d.jsonl", opt.workload, opt.seed))
		if err := writeSpans(path, tr.all()); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{Value: o.layer[m.name], Unit: m.unit}
		}
	} else {
		if len(o.refs) == 0 {
			fmt.Fprintf(stderr, "perfbench: %s timed no reference kernel\n", opt.workload)
			return 1
		}
		// speed > 1 when the host ran slower than the reference machine.
		speed := median(o.refs) / float64(refNominal)
		fmt.Fprintf(stdout, "reference kernel: median %.3f ms of %d timings; times scaled by %.4f\n",
			median(o.refs)/1e6, len(o.refs), 1/speed)
		for _, m := range endToEnd {
			v, ok := o.e2e[m.name]
			if !ok {
				fmt.Fprintf(stderr, "perfbench: %s measured no %s\n", opt.workload, m.name)
				return 1
			}
			switch m.unit {
			case "s", "ms":
				v /= speed
			case "1/s":
				v *= speed
			}
			res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		}
	}
	printResult(stdout, res)
	return 0
}

func printResult(w io.Writer, r result) {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // only float NaN/Inf could fail, and no metric is either
	}
	fmt.Fprintln(w, string(b))
}

// goroutinesSettle waits for the workload's goroutines (clients, servers,
// connection readers) to exit, and fails the run if any outlives a grace
// period.
func goroutinesSettle(baseline int) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("%d goroutines outlived the workload (baseline %d):\n%s", n, baseline, buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// commit is the VCS revision the binary was built from, when the build saw
// a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod file under root (build
// output excluded), identifying the code measured when no VCS revision is
// available.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && (strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
