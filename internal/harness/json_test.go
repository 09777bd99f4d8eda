package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"bigfoot/internal/engine"
	"bigfoot/internal/workloads"
)

// reportAt runs three representative workloads at the given worker
// count and wraps them in a Report.
func reportAt(t *testing.T, parallel int) *Report {
	t.Helper()
	r := &Runner{Opts: Options{
		Scale:    workloads.TestScale(),
		Seed:     7,
		Trials:   2,
		Parallel: parallel,
	}}
	var ws []workloads.Workload
	for _, name := range []string{"crypt", "tomcat", "sparse"} {
		w, ok := workloads.ByName(name, r.Opts.Scale)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		ws = append(ws, w)
	}
	rs, err := r.runWorkloads(context.Background(), ws)
	if err != nil {
		t.Fatal(err)
	}
	return NewReport(r.Opts, rs)
}

// renderAll concatenates every paper artifact the report can produce.
func renderAll(rep *Report) string {
	return rep.Figure2() + rep.Figure8() + rep.Table1() + rep.Table1Wall() + rep.Table2()
}

// TestReportJSONRoundTrip pins the tentpole contract: at any worker
// count, serializing a report and reading it back regenerates
// byte-identical Figure 2/8 and Table 1/2 text, an identical
// deterministic signature, and a zero-regression self-diff.
func TestReportJSONRoundTrip(t *testing.T) {
	for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		rep := reportAt(t, par)
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatalf("parallel %d: write: %v", par, err)
		}
		got, err := ReadJSON(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("parallel %d: read back: %v", par, err)
		}
		if want := renderAll(rep); renderAll(got) != want {
			t.Errorf("parallel %d: rendered text changed across JSON round-trip", par)
		}
		if got.Signature() != rep.Signature() {
			t.Errorf("parallel %d: signature changed across JSON round-trip", par)
		}
		if regs := Diff(rep, got, 0); len(regs) != 0 {
			t.Errorf("parallel %d: self-diff after round-trip: %v", par, regs)
		}
		// The on-disk form re-serializes identically, so committed
		// BENCH_*.json files are stable under load/save cycles.
		var buf2 bytes.Buffer
		if err := got.WriteJSON(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Errorf("parallel %d: JSON not stable under round-trip", par)
		}
	}
}

// TestReportPhaseTimings: the job-queue runner records per-phase costs
// for every program.
func TestReportPhaseTimings(t *testing.T) {
	rep := reportAt(t, 2)
	for _, p := range rep.Programs {
		ph := p.Phases
		if ph.Parse <= 0 || ph.Instrument <= 0 || ph.Compile <= 0 || ph.Run <= 0 {
			t.Errorf("%s: phase timings not collected: %+v", p.Name, ph)
		}
		// Run sums every (variant, trial) execution: 6 variants × 2
		// trials, each at least as long as the single best base trial.
		if ph.Run < p.BaseTime {
			t.Errorf("%s: run phase %v below one base execution %v", p.Name, ph.Run, p.BaseTime)
		}
	}
}

// TestReadJSONRejectsBadReports: version skew and structural damage
// fail loudly instead of diffing as garbage.
func TestReadJSONRejectsBadReports(t *testing.T) {
	rep := reportAt(t, 1)
	good, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		in   string
		frag string
	}{
		{"version skew", strings.Replace(string(good), fmt.Sprintf(`"version":%d`, ReportVersion), `"version":99`, 1), "schema version"},
		{"pre-history version", strings.Replace(string(good), fmt.Sprintf(`"version":%d`, ReportVersion), fmt.Sprintf(`"version":%d`, minReadVersion-1), 1), "schema version"},
		{"truncated", string(good[:len(good)/2]), "report"},
		{"unknown field", `{"version":1,"programs":[],"bogus":3}`, "bogus"},
		{"nameless program", `{"version":1,"run":{"scale_n":1,"scale_t":2,"seed":7,"trials":2,"parallel":1,"max_steps":0},"programs":[{"suite":"x"}]}`, "no name"},
	}
	for _, c := range cases {
		if _, err := ReadJSON(strings.NewReader(c.in)); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error = %v, want mention of %q", c.name, err, c.frag)
		}
	}
}

// TestReadJSONAcceptsV1Reports: the v2 schema is purely additive
// (race_reports), so a v1 file — the committed BENCH_*.json trajectory
// before the bump — still reads, renders, and self-diffs cleanly.
func TestReadJSONAcceptsV1Reports(t *testing.T) {
	rep := reportAt(t, 1)
	// Rewrite as a v1 report: drop the v2-only field and stamp version 1.
	for _, p := range rep.Programs {
		for _, d := range p.Detectors {
			d.RaceReports = nil
		}
	}
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	v1 := strings.Replace(string(buf), fmt.Sprintf(`"version":%d`, ReportVersion), `"version":1`, 1)
	got, err := ReadJSON(strings.NewReader(v1))
	if err != nil {
		t.Fatalf("v1 report rejected: %v", err)
	}
	if got.Version != 1 {
		t.Fatalf("version = %d, want 1", got.Version)
	}
	if want := renderAll(rep); renderAll(got) != want {
		t.Error("v1 report renders differently from its v2 source")
	}
	if regs := Diff(rep, got, 0); len(regs) != 0 {
		t.Errorf("v1/v2 self-diff: %v", regs)
	}
}

// TestReadJSONAcceptsV4PipelineFields: schema v5 dropped the v4
// pipeline fields; a v4 report that carries them still reads, renders,
// and self-diffs like its source, while unknown detector fields stay
// errors.
func TestReadJSONAcceptsV4PipelineFields(t *testing.T) {
	rep := reportAt(t, 1)
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	v4 := strings.Replace(string(buf), fmt.Sprintf(`"version":%d`, ReportVersion), `"version":4`, 1)
	for _, name := range engine.VariantNames {
		v4 = strings.ReplaceAll(v4, fmt.Sprintf(`{"name":%q,`, name),
			fmt.Sprintf(`{"name":%q,"pipeline_chunks":3,"pipeline_max_depth":2,"pipeline_stall_ns":1500,`, name))
	}
	if !strings.Contains(v4, `"pipeline_chunks"`) {
		t.Fatal("test setup: no pipeline fields injected")
	}
	got, err := ReadJSON(strings.NewReader(v4))
	if err != nil {
		t.Fatalf("v4 report rejected: %v", err)
	}
	if got.Version != 4 {
		t.Fatalf("version = %d, want 4", got.Version)
	}
	if want := renderAll(rep); renderAll(got) != want {
		t.Error("v4 report renders differently from its source")
	}
	if got.Signature() != rep.Signature() {
		t.Error("v4 report signature differs from its source")
	}
	if regs := Diff(rep, got, 0); len(regs) != 0 {
		t.Errorf("v4/v5 self-diff: %v", regs)
	}
	var out bytes.Buffer
	if err := got.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "pipeline_") {
		t.Error("re-serialized report still carries pipeline fields")
	}

	bogus := strings.Replace(string(buf), `{"name":"FT",`, `{"name":"FT","bogus":1,`, 1)
	if _, err := ReadJSON(strings.NewReader(bogus)); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("unknown detector field: err = %v, want mention of bogus", err)
	}
}

// TestDiffFlagsRegressions: Diff reports exactly the cells that got
// worse, with missing programs/detectors and option mismatches called
// out explicitly.
func TestDiffFlagsRegressions(t *testing.T) {
	old := reportAt(t, 1)

	// A deep copy through the serializer keeps the fixture honest.
	reload := func() *Report {
		var buf bytes.Buffer
		if err := old.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		rep, err := ReadJSON(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	cur := reload()
	bf := cur.Programs[0].Detectors["BF"]
	bf.Overhead *= 1.5
	bf.Races++
	regs := Diff(old, cur, 0.05)
	if len(regs) != 2 {
		t.Fatalf("want 2 regressions (overhead, races), got %v", regs)
	}
	seen := map[string]bool{}
	for _, g := range regs {
		seen[g.Metric] = true
		if g.Program != cur.Programs[0].Name || g.Detector != "BF" {
			t.Errorf("regression attributed to %s/%s", g.Program, g.Detector)
		}
	}
	if !seen["overhead"] || !seen["races"] {
		t.Errorf("wrong metrics flagged: %v", regs)
	}

	// Improvements and drift inside tolerance are not regressions.
	cur = reload()
	cur.Programs[0].Detectors["FT"].Overhead *= 0.5  // better
	cur.Programs[1].Detectors["BF"].Overhead *= 1.04 // within 5%
	if regs := Diff(old, cur, 0.05); len(regs) != 0 {
		t.Errorf("improvement/tolerated drift flagged: %v", regs)
	}

	// Missing detector and missing program.
	cur = reload()
	delete(cur.Programs[0].Detectors, "SS")
	cur.Programs = cur.Programs[:2]
	regs = Diff(old, cur, 0.05)
	var missing []string
	for _, g := range regs {
		if g.Metric == "missing" {
			missing = append(missing, g.String())
		}
	}
	if len(missing) != 2 {
		t.Errorf("want missing detector + missing program, got %v", regs)
	}

	// Reports from different run configurations are not comparable.
	cur = reload()
	cur.Run.Seed++
	regs = Diff(old, cur, 0.05)
	if len(regs) != 1 || regs[0].Metric != "options-mismatch" {
		t.Errorf("want options-mismatch, got %v", regs)
	}
}
