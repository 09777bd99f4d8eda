package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"bigfoot/internal/workloads"
)

func signatureAt(t *testing.T, parallel int) string {
	t.Helper()
	r := &Runner{Opts: Options{
		Scale:    workloads.TestScale(),
		Seed:     7,
		Trials:   2,
		Parallel: parallel,
	}}
	var out []*ProgramResult
	for _, name := range []string{"crypt", "tomcat", "sparse"} {
		w, ok := workloads.ByName(name, r.Opts.Scale)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		pr, err := r.RunProgram(w)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pr)
	}
	return Signature(out)
}

// TestParallelDeterminism pins the runner's concurrency contract: the
// full deterministic result set (all counters, modeled overheads, check
// ratios and splits, shadow stats) is byte-identical at every worker
// count.  Only wall-clock timings may differ, and Signature excludes
// them.
func TestParallelDeterminism(t *testing.T) {
	want := signatureAt(t, 1)
	if want == "" {
		t.Fatal("empty signature")
	}
	for _, par := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := signatureAt(t, par); got != want {
			t.Errorf("results differ between -parallel 1 and -parallel %d:\n--- sequential\n%s\n--- parallel\n%s", par, want, got)
		}
	}
}

// TestPartialResultsOnError: a failing workload no longer aborts the
// evaluation — the good programs still produce results and the joined
// error reports every failure.
func TestPartialResultsOnError(t *testing.T) {
	good, ok := workloads.ByName("crypt", workloads.TestScale())
	if !ok {
		t.Fatal("crypt missing")
	}
	bad := workloads.Workload{Name: "boom", Suite: "synthetic",
		Source: `setup { assert 1 == 2; }`}
	unparsable := workloads.Workload{Name: "mangled", Suite: "synthetic",
		Source: `class {`}

	r := &Runner{Opts: Options{Scale: workloads.TestScale(), Seed: 7, Trials: 1, Parallel: 2}}
	rs, err := r.runWorkloads(context.Background(), []workloads.Workload{bad, good, unparsable})
	if err == nil {
		t.Fatal("expected a joined error")
	}
	if len(rs) != 1 || rs[0].Name != "crypt" {
		t.Fatalf("expected the surviving program's result, got %d results", len(rs))
	}
	for _, frag := range []string{"boom", "assertion failed", "mangled", "parse"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("joined error missing %q:\n%v", frag, err)
		}
	}
}

// TestMaxStepsPlumbed: the harness step bound reaches every interpreted
// execution, so a runaway workload fails fast instead of hanging.
func TestMaxStepsPlumbed(t *testing.T) {
	w, ok := workloads.ByName("crypt", workloads.TestScale())
	if !ok {
		t.Fatal("crypt missing")
	}
	r := &Runner{Opts: Options{Scale: workloads.TestScale(), Seed: 7, Trials: 1, MaxSteps: 1000}}
	_, err := r.RunProgram(w)
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("expected step-limit failure, got: %v", err)
	}
}

// TestContextCancellation: an already-cancelled context yields no
// results and surfaces the cancellation.
func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w, _ := workloads.ByName("crypt", workloads.TestScale())
	r := &Runner{Opts: Options{Scale: workloads.TestScale(), Seed: 7, Trials: 1}}
	rs, err := r.runWorkloads(ctx, []workloads.Workload{w})
	if err == nil || len(rs) != 0 {
		t.Errorf("cancelled run returned %d results, err=%v", len(rs), err)
	}
}

// spinner runs far longer than any test deadline.
const spinner = `class C { field v; }
setup { c = new C; }
thread {
  for (i = 0; i < 100000000; i = i + 1) { c.v = i; }
}
`

// TestBudgetErrorReportedOnce: a deadline that expires mid-run fails
// the job it cuts short and skips every later job.  The program's error
// names the deadline once — not once per skipped job — and still
// classifies as context.DeadlineExceeded.
func TestBudgetErrorReportedOnce(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	r := &Runner{Opts: Options{Seed: 7, Trials: 2, Parallel: 1}}
	_, err := r.RunProgramContext(ctx, workloads.Workload{Name: "spin", Suite: "test", Source: spinner})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if n := strings.Count(err.Error(), context.DeadlineExceeded.Error()); n != 1 {
		t.Errorf("deadline reported %d times, want once:\n%v", n, err)
	}
}

// TestJobErr pins how job errors combine: skipped jobs' bare context
// errors collapse into the failure of the job the context cut short,
// or into one program-level error when no job was cut short.
func TestJobErr(t *testing.T) {
	dl := context.DeadlineExceeded
	cut := fmt.Errorf("p/FT: %w", dl)
	fault := errors.New("p/BF: assertion failed")
	skip := runOutcome{err: dl, skipped: true}
	cases := []struct {
		name string
		jobs []runOutcome
		want string
	}{
		{"clean", []runOutcome{{}, {}}, ""},
		{"cut then skipped", []runOutcome{{}, {err: cut}, skip, skip}, "p/FT: context deadline exceeded"},
		{"all skipped", []runOutcome{skip, skip}, "p: context deadline exceeded"},
		{"fault then skipped", []runOutcome{{err: fault}, skip}, "p/BF: assertion failed\np: context deadline exceeded"},
	}
	for _, c := range cases {
		st := &programState{w: workloads.Workload{Name: "p"}, outcomes: [][]runOutcome{c.jobs}}
		err := st.jobErr()
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("%s: err = %q, want %q", c.name, got, c.want)
		}
		if strings.Contains(c.want, "deadline") && !errors.Is(err, dl) {
			t.Errorf("%s: err does not wrap DeadlineExceeded", c.name)
		}
	}
}
