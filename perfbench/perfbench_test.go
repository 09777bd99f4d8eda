package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestSameSeedSameInputs(t *testing.T) {
	sources := func(seed int64) []string {
		var out []string
		for _, w := range suiteInputs(seed) {
			out = append(out, w.Name+"\n"+w.Source)
		}
		for _, w := range buildInputs(seed) {
			out = append(out, w.Name+"\n"+w.Source)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < poolSize; i++ {
			out = append(out, drawProgram(rng, i, "p").src)
		}
		b := &serviceBench{seed: seed, frHash: map[string]bool{}}
		for i := freshEvery - 1; i < 10*freshEvery; i += freshEvery {
			out = append(out, b.program(i).src)
		}
		return out
	}
	a, b := sources(7), sources(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 generated different inputs on a second call")
	}
	if reflect.DeepEqual(a, sources(8)) {
		t.Fatal("seeds 7 and 8 generated the same inputs")
	}
}

func TestGeneratedBodiesKeepTheirShape(t *testing.T) {
	// The seed may change the programs but not their size: every seed
	// builds the same number of statements.
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		if n := strings.Count(straightLine(rng, straightWrites), "= c.f;"); n != straightWrites {
			t.Errorf("seed %d: straight-line body has %d writes", seed, n)
		}
		if n := strings.Count(ifChain(rng, nestedIfs), "if ("); n != nestedIfs {
			t.Errorf("seed %d: if chain has %d ifs", seed, n)
		}
		if n := strings.Count(loopNest(rng, nestedLoops), "for ("); n != nestedLoops {
			t.Errorf("seed %d: loop nest has %d loops", seed, n)
		}
	}
}

func TestFreshProgramsAreNeverSeen(t *testing.T) {
	b := &serviceBench{seed: 3, frHash: map[string]bool{}}
	seen := map[string]bool{}
	for i := freshEvery - 1; i < 2000; i += freshEvery {
		p := b.program(i)
		if seen[p.src] {
			t.Fatalf("session %d resubmits a program already sent as never-seen", i)
		}
		seen[p.src] = true
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1, unsorted input
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 500}, {90, 900}, {99, 990}} {
		got, err := percentile(xs, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%v = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	if xs[0] != 1000 {
		t.Error("percentile sorted its input")
	}
	// p99 of 999 samples has 9 beyond it: refused.
	if _, err := percentile(xs[:999], 99); err == nil {
		t.Error("p99 of 999 samples was not refused")
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Error("p50 of 19 samples (9 beyond it) was not refused")
	}
	if got, err := percentile(xs[:20], 50); err != nil || got != 990 {
		t.Errorf("p50 of 20 samples = %v, %v; want 990", got, err)
	}
	for _, p := range []float64{0, 100, -1} {
		if _, err := percentile(xs, p); err == nil {
			t.Errorf("p%v was not refused", p)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 values = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 values = %v", m)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "pass", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "parse", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "run", Start: ms(40), End: ms(90)},
		// Two overlapping children of run cover [50, 75): 25 ms, once.
		{ID: 4, Parent: 3, Name: "detector", Start: ms(50), End: ms(70)},
		{ID: 5, Parent: 3, Name: "detector", Start: ms(60), End: ms(75)},
		// A child reaching past its parent counts only inside it.
		{ID: 6, Parent: 2, Name: "lex", Start: ms(25), End: ms(35)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"pass":     ms(100 - 20 - 50),
		"parse":    ms(20 - 5),
		"run":      ms(50 - 25),
		"detector": ms(20 + 15),
		"lex":      ms(10),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	p := tr.begin("outer", 0, 1, false)
	c := tr.begin("inner", p, 1, true)
	time.Sleep(time.Millisecond)
	tr.end(c)
	tr.end(p)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].RT == nil || spans[0].RT != nil {
		t.Fatalf("spans %+v", spans)
	}
	self := selfTimes(spans)
	if self["outer"] < 0 || self["inner"] < time.Millisecond || self["outer"] >= spans[0].End-spans[0].Start {
		t.Errorf("self times %v for spans %+v", self, spans)
	}
}

func TestResultLine(t *testing.T) {
	v := newValues()
	for _, s := range endToEnd {
		v.set(s.Name, 1.25, "")
	}
	tl := &tally{}
	tl.op()
	tl.op("wrong answer")
	var buf bytes.Buffer
	if err := emit(&buf, endToEnd, v, tl, nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var r map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range r {
		keys = append(keys, k)
	}
	if len(keys) != 4 || r["correct"] == nil || r["attempted"] == nil || r["failed"] == nil || r["metrics"] == nil {
		t.Fatalf("result keys %v", keys)
	}
	if string(r["correct"]) != "false" || string(r["attempted"]) != "2" || string(r["failed"]) != "1" {
		t.Errorf("result %s", lines[len(lines)-1])
	}
	if err := emit(&buf, perLayer, v, tl, nil); err == nil {
		t.Error("emit printed a result with unmeasured metrics")
	}
}

// TestMetricListsMatchBenchmarkJSON keeps BENCHMARK.json and the metrics
// the benchmark prints in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var bj struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, benchmark %s %s", what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	for _, w := range bj.Workloads {
		if workloadRuns[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %s, which the benchmark does not run", w.Name)
		}
	}
}

func TestServiceBatchAnswersKnownAnswers(t *testing.T) {
	ctx := context.Background()
	b, err := setupService(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	tr := newTracer()
	ss := b.batch(ctx, 0, 2*freshEvery, tr)
	hits := 0
	for _, s := range ss {
		if len(s.problems) > 0 {
			t.Errorf("session problems: %v", s.problems)
		}
		if s.hit {
			hits++
		}
		if s.hit && s.reported() != s.phases.Run {
			t.Error("a cache hit's reported time includes the cached build phases")
		}
	}
	if hits != 2*freshEvery-2 {
		t.Errorf("%d hits in %d sessions, want all but the 2 never-seen", hits, len(ss))
	}
	var tl tally
	b.verifyFresh(ctx, &tl)
	if tl.failed != 0 || len(b.fresh) != 2 {
		t.Errorf("never-seen programs: %d checked, problems %v", len(b.fresh), tl.problems)
	}
	if got := len(tr.snapshot()); got < len(ss) {
		t.Errorf("%d spans for %d sessions", got, len(ss))
	}
}
