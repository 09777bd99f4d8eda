package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"bigfoot/internal/bfj"
	"bigfoot/internal/engine"
	"bigfoot/internal/harness"
	"bigfoot/internal/metrics"
	"bigfoot/internal/workloads"
)

// suiteOptions is one evaluation pass as users run it: default scale,
// scheduler seed 42, base plus all five detectors, one trial, one
// worker.
func suiteOptions() harness.Options {
	return harness.Options{Scale: workloads.DefaultScale(), Seed: suiteSchedSeed, Trials: 1, Parallel: 1}
}

// Each set-up of the suite (build) workload evaluates (builds) one
// program, the same for every seed, so the first timed pass does not pay
// the runtime's lazy start-up.  Each takes about a tenth of a second.
const (
	suiteWarmup = "series"
	buildWarmup = "lufact"
)

// setupSuite draws the pass's program order from the seed, checks every
// source parses, and evaluates the warm-up program.
func setupSuite(ctx context.Context, seed int64) ([]workloads.Workload, error) {
	ws := suiteInputs(seed)
	for _, w := range ws {
		if _, err := bfj.Parse(w.Source); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
	}
	w, _ := workloads.ByName(suiteWarmup, workloads.DefaultScale())
	r := &harness.Runner{Opts: suiteOptions()}
	if _, err := r.RunProgramContext(ctx, w); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return ws, nil
}

// suitePass evaluates every program through harness.Runner, one at a
// time, and checks each result: no races under any detector, every
// variant doing the base run's heap accesses, and the signature pinned
// for the program.  It returns the pass's wall time: the sum of the
// evaluations, without the checks.
func suitePass(ctx context.Context, ws []workloads.Workload, t *tally, ps *passes) time.Duration {
	reg := metrics.NewRegistry()
	r := &harness.Runner{Opts: suiteOptions(), Engine: engine.New(engine.Options{Metrics: reg})}
	var wall time.Duration
	for _, w := range ws {
		before := accessTotals(reg)
		start := time.Now()
		pr, err := r.RunProgramContext(ctx, w)
		d := time.Since(start)
		wall += d
		ps.session(w.Name, d, err != nil)
		if err != nil {
			t.op(fmt.Sprintf("%s: %v", w.Name, err))
			continue
		}
		t.op(checkSuiteResult(pr, before, accessTotals(reg))...)
	}
	ps.walls = append(ps.walls, wall)
	return wall
}

// checkSuiteResult compares one program's evaluation with its known
// answers.  before and after are the engine's per-variant heap-access
// totals around the evaluation.
func checkSuiteResult(pr *harness.ProgramResult, before, after map[string]float64) []string {
	var problems []string
	for _, name := range engine.VariantNames {
		d := pr.Detectors[name]
		if d == nil {
			problems = append(problems, fmt.Sprintf("%s: no %s result", pr.Name, name))
			continue
		}
		if d.Races != 0 {
			problems = append(problems, fmt.Sprintf("%s: %s reports %d races", pr.Name, name, d.Races))
		}
		base, got := after[engine.BaseVariant]-before[engine.BaseVariant], after[name]-before[name]
		if got != base || base == 0 {
			problems = append(problems, fmt.Sprintf("%s: %s did %.0f accesses, base %.0f", pr.Name, name, got, base))
		}
	}
	if sig, want := signatureHash(pr), pinnedSignature[pr.Name]; sig != want {
		problems = append(problems, fmt.Sprintf("%s: signature %s, pinned %s", pr.Name, sig, want))
	}
	return problems
}

// signatureHash is the short SHA-256 of one program's harness.Signature.
func signatureHash(pr *harness.ProgramResult) string {
	sum := sha256.Sum256([]byte(harness.Signature([]*harness.ProgramResult{pr})))
	return fmt.Sprintf("%x", sum)[:16]
}

// accessTotals reads the engine's per-variant heap-access counters.
func accessTotals(reg *metrics.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, f := range reg.Snapshot() {
		if f.Name != "bigfoot_engine_accesses_total" {
			continue
		}
		for _, s := range f.Series {
			for _, l := range s.Labels {
				if l.Name == "variant" {
					out[l.Value] = s.Value
				}
			}
		}
	}
	return out
}

func runSuite(ctx context.Context, cfg config) (*outcome, error) {
	o := newOutcome()
	var ws []workloads.Workload
	if err := setUp(o.v, func() (err error) {
		ws, err = setupSuite(ctx, cfg.seed)
		return err
	}); err != nil {
		return nil, err
	}
	ps := newPasses()
	if cfg.traced {
		tracedPasses(cfg, o, func(t *tally) time.Duration {
			return suitePass(ctx, ws, t, ps)
		}, func(tr *tracer, pid int, t *tally, clock time.Duration) layerCounts {
			var c layerCounts
			for i, w := range ws {
				lc, placed, problems, err := tracedProgram(ctx, tr, pid, i+1, w.Source, true, clock)
				if err != nil {
					problems = append(problems, err.Error())
				}
				t.op(append(problems, checkPlaced(w.Name, placed)...)...)
				c.add(lc)
			}
			return c
		})
		return o, nil
	}
	ps.measure(o.v, cfg.window, "program evaluations", func() { suitePass(ctx, ws, o.t, ps) })
	return o, nil
}
