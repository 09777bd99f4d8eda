// Command perfbench is the repository's benchmark.  It measures the
// BigFoot system end to end on one of three workloads — suite (one
// evaluation pass of the 19 programs), build (artifact builds only) and
// service (a closed loop of sessions against bigfootd's handler) — and
// checks every output against a known answer.  With --trace 1 it instead
// repeats the workload through the layer functions, records a span
// around each layer call, and reports per-layer metrics.
//
// Run it from the repository root, through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics.  The exit code is 0 only when every
// operation matched its known answer.  See README.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

// heapPeriod is the peak-heap sampling period.
const heapPeriod = 2 * time.Millisecond

// config is one run's parameters.
type config struct {
	seed   int64
	window time.Duration
	traced bool
	outDir string
}

// outcome is what a workload run produces.
type outcome struct {
	v     *values
	t     *tally
	spans []span   // traced runs only
	extra []string // further report lines
}

func newOutcome() *outcome { return &outcome{v: newValues(), t: &tally{}} }

var workloadRuns = map[string]func(context.Context, config) (*outcome, error){
	"suite":   runSuite,
	"build":   runBuild,
	"service": runService,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: suite, build or service")
	seed := fs.Int64("seed", 1, "seed the inputs are drawn from")
	secs := fs.Int("seconds", 20, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	outDir := fs.String("out", ".bench_build/perfbench", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runFn, ok := workloadRuns[*workload]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload suite|build|service, --seconds >= 1, --trace 0|1")
		return 2
	}
	cfg := config{seed: *seed, window: time.Duration(*secs) * time.Second, traced: *trace == 1, outDir: *outDir}
	h := thisHost()
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *secs, *trace)
	fmt.Fprintf(stdout, "host: nproc=%d gomaxprocs=%d go=%s\n", h.NumCPU, h.GOMAXPROCS, h.GoVersion)

	o, err := runFn(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	specs := endToEnd
	if cfg.traced {
		specs = perLayer
		path, err := writeSpans(cfg.outDir, spanFile{Host: h, Workload: *workload, Seed: *seed, Spans: o.spans})
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		o.extra = append(o.extra, fmt.Sprintf("spans: %d written to %s", len(o.spans), path))
	}
	if err := emit(stdout, specs, o.v, o.t, o.extra); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if o.t.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed their known-answer checks\n", o.t.failed, o.t.attempted)
		return 1
	}
	return 0
}

// tracedPasses alternates an untraced pass (plain) with a traced one
// (traced, which records spans under the pass span it is given) until
// the window has passed, then reports the per-layer metrics per traced
// pass and the tracing overhead: traced minus untraced pass time.
func tracedPasses(cfg config, o *outcome,
	plain func(*tally) time.Duration,
	traced func(tr *tracer, pid int, t *tally, clock time.Duration) layerCounts) {
	clock := clockCost()
	tr := newTracer()
	var plainWalls, tracedWalls []time.Duration
	var c layerCounts
	start := time.Now()
	for len(tracedWalls) < 1 || time.Since(start) < cfg.window {
		plainWalls = append(plainWalls, plain(o.t))
		s := time.Now()
		pid := tr.begin(spanPass, 0, 0, false)
		c.add(traced(tr, pid, o.t, clock))
		tr.end(pid)
		tracedWalls = append(tracedWalls, time.Since(s))
	}
	o.spans = tr.snapshot()
	layerValues(o.v, o.spans, c, len(tracedWalls))
	zeroService(o.v)
	p, t := mean(seconds(plainWalls)), mean(seconds(tracedWalls))
	o.v.set("trace.overhead_s", t-p, fmt.Sprintf("traced pass %.3fs vs untraced %.3fs, %d pairs; %.1f%%; clock cost %v per timed hook call",
		t, p, len(tracedWalls), 100*(t-p)/p, clock))
}
