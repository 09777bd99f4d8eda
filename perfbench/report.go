package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	Name string
	Unit string
}

// endToEnd lists the metrics an untraced run reports, on every workload.
// A "session" is the workload's unit of user-visible work: one program
// evaluated (suite), one artifact built (build), one HTTP session
// answered (service).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sessions_per_s", "1/s"},
	{"session_p50_ms", "ms"},
	{"session_p99_ms", "ms"},
	{"peak_heap_mb", "MB"},
}

// perLayer lists the metrics a traced run reports, on every workload.
// A layer a workload does not reach reports 0.  Times and counts are per
// pass (suite: 19 programs evaluated; build: 22 artifacts built;
// service: 100 sessions answered).
var perLayer = []metricSpec{
	{"bfj.parse_s", "s"},
	{"bfj.bytes_per_s", "B/s"},
	{"instrument.every_s", "s"},
	{"instrument.redcard_s", "s"},
	{"analysis.place_s", "s"},
	{"analysis.bodies", "count"},
	{"analysis.checks_placed", "count"},
	{"analysis.check_items", "count"},
	{"proxy.analyze_s", "s"},
	{"interp.compile_s", "s"},
	{"interp.base_run_s", "s"},
	{"interp.variant_run_s", "s"},
	{"interp.run_self_s", "s"},
	{"interp.steps", "count"},
	{"interp.ns_per_step", "ns"},
	{"interp.sched_latency_s", "s"},
	{"detector.hook_s", "s"},
	{"detector.events", "count"},
	{"detector.ns_per_event", "ns"},
	{"detector.shadow_ops", "count"},
	{"detector.footprint_ops", "count"},
	{"detector.peak_words", "count"},
	{"detector.fastpath_hits", "count"},
	{"gc.cpu_s", "s"},
	{"gc.alloc_mb", "MB"},
	{"gc.allocs", "count"},
	{"gc.cycles", "count"},
	{"engine.build_ms", "ms"},
	{"engine.cache_hit_ratio", "ratio"},
	{"engine.evictions", "count"},
	{"engine.collapsed", "count"},
	{"service.overhead_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.hit_p50_ms", "ms"},
	{"service.miss_p50_ms", "ms"},
	{"bench.self_s", "s"},
	{"trace.overhead_s", "s"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and their known-answer checks.  An operation
// that errors or whose output differs from the known answer is failed.
type tally struct {
	attempted, failed int
	problems          []string
}

// op records one operation; problems are the ways its output was wrong
// (none for a correct operation).
func (t *tally) op(problems ...string) {
	t.attempted++
	if len(problems) > 0 {
		t.failed++
		if len(t.problems) < 20 {
			t.problems = append(t.problems, strings.Join(problems, "; "))
		}
	}
}

// values collects a run's metrics with a human-readable note for each.
type values struct {
	m     map[string]metric
	notes map[string]string
}

func newValues() *values {
	return &values{m: map[string]metric{}, notes: map[string]string{}}
}

// set records a metric; note, if given, is printed beside it (sample
// counts, how the value was derived).
func (v *values) set(name string, x float64, note string) {
	v.m[name] = metric{Value: x, Unit: unitOf(name)}
	if note != "" {
		v.notes[name] = note
	}
}

func unitOf(name string) string {
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if s.Name == name {
			return s.Unit
		}
	}
	panic("perfbench: unknown metric " + name)
}

// emit prints the human-readable lines and then the result line, with
// exactly the metrics of specs.  A missing metric is a bug in the
// workload, reported as an error rather than printed as zero.
func emit(w io.Writer, specs []metricSpec, v *values, t *tally, extra []string) error {
	r := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, s := range specs {
		m, ok := v.m[s.Name]
		if !ok {
			return fmt.Errorf("metric %s not measured", s.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// Only failed operations produce these (an empty sample set);
			// the run is already incorrect.
			m.Value = -1
		}
		r.Metrics[s.Name] = m
		note := ""
		if n := v.notes[s.Name]; n != "" {
			note = "  (" + n + ")"
		}
		fmt.Fprintf(w, "%-26s %14.6g %-6s%s\n", s.Name, m.Value, m.Unit, note)
	}
	for _, line := range extra {
		fmt.Fprintln(w, line)
	}
	for _, p := range t.problems {
		fmt.Fprintln(w, "MISMATCH:", p)
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(data))
	return nil
}

// setUp runs setup setupReps times and reports setup_s, the median
// duration.
func setUp(v *values, setup func() error) error {
	var ds []time.Duration
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return err
		}
		ds = append(ds, time.Since(start))
	}
	v.set("setup_s", median(seconds(ds)), fmt.Sprintf("median of %d set-ups", len(ds)))
	return nil
}

// passes records the untraced passes of the suite and build workloads:
// every session's latency, by program too, and each pass's wall time.
type passes struct {
	lat    []float64 // ms; +Inf for a failed session
	byProg map[string][]float64
	walls  []time.Duration
}

func newPasses() *passes { return &passes{byProg: map[string][]float64{}} }

// session records one session's latency; a failed one counts as
// infinitely slow.
func (p *passes) session(name string, d time.Duration, failed bool) {
	if failed {
		p.lat = append(p.lat, math.Inf(1))
		return
	}
	ms := float64(d) / float64(time.Millisecond)
	p.lat = append(p.lat, ms)
	p.byProg[name] = append(p.byProg[name], ms)
}

// measure runs pass until the window has passed (at least once) and
// reports the end-to-end metrics other than setup_s.  what names the
// sessions of a pass, e.g. "program evaluations".
func (p *passes) measure(v *values, window time.Duration, what string, pass func()) {
	hp := startHeapPeak(heapPeriod)
	start := time.Now()
	for len(p.walls) < 1 || time.Since(start) < window {
		pass()
	}
	peak := hp.stop()
	var total time.Duration
	for _, w := range p.walls {
		total += w
	}
	v.set("wall_s", median(seconds(p.walls)), fmt.Sprintf("median of %d passes", len(p.walls)))
	v.set("sessions_per_s", float64(len(p.lat))/total.Seconds(), fmt.Sprintf("%d %s", len(p.lat), what))
	v.set("session_p50_ms", median(p.lat), fmt.Sprintf("n=%d", len(p.lat)))
	if x, err := percentile(p.lat, 99); err == nil {
		_, beyond := rankOf(len(p.lat), 99)
		v.set("session_p99_ms", x, fmt.Sprintf("n=%d, %d beyond", len(p.lat), beyond))
	} else {
		x, which := slowestMedian(p.byProg)
		v.set("session_p99_ms", x, fmt.Sprintf("n=%d is too few for a p99: median of the slowest program, %s", len(p.lat), which))
	}
	v.set("peak_heap_mb", float64(peak)/1e6, "")
}

func seconds(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return xs
}

// slowestMedian returns the largest per-key median: the latency of the
// slowest kind of session.  Suite and build runs have tens of sessions,
// far too few for a p99, so their session_p99_ms is this instead.
func slowestMedian(byKey map[string][]float64) (float64, string) {
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	best, which := math.NaN(), ""
	for _, k := range keys {
		if m := median(byKey[k]); which == "" || m > best {
			best, which = m, k
		}
	}
	return best, which
}
