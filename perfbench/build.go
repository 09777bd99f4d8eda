package main

import (
	"context"
	"fmt"
	"time"

	"bigfoot/internal/bfj"
	"bigfoot/internal/engine"
	"bigfoot/internal/workloads"
)

// setupBuild generates the pass's sources from the seed, checks every
// one parses, and builds the warm-up program.
func setupBuild(seed int64) ([]workloads.Workload, error) {
	ws := buildInputs(seed)
	for _, w := range ws {
		if _, err := bfj.Parse(w.Source); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
	}
	w, _ := workloads.ByName(buildWarmup, workloads.DefaultScale())
	if _, _, err := engine.New(engine.Options{}).BuildSource(w.Source, engine.BuildSpec{WithBase: true}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return ws, nil
}

// buildPass builds every source with engine.BuildSource — all five
// variants plus the base, artifact cache off — and checks each
// placement's static check count against the pinned one.  It returns the
// sum of the builds' times, and keeps the artifacts in arts.
func buildPass(ws []workloads.Workload, t *tally, ps *passes, arts map[string]*engine.Artifact) time.Duration {
	eng := engine.New(engine.Options{})
	var wall time.Duration
	for _, w := range ws {
		start := time.Now()
		art, _, err := eng.BuildSource(w.Source, engine.BuildSpec{WithBase: true})
		d := time.Since(start)
		wall += d
		ps.session(w.Name, d, err != nil)
		if err != nil {
			t.op(fmt.Sprintf("%s: %v", w.Name, err))
			continue
		}
		placed := make([]int, len(art.Variants))
		for i, v := range art.Variants {
			placed[i] = v.Stats.ChecksPlaced
		}
		t.op(checkPlaced(w.Name, placed)...)
		arts[w.Name] = art
	}
	ps.walls = append(ps.walls, wall)
	return wall
}

// verifyBuilds runs the FT and BF variants of every artifact of the
// latest pass, untimed, and checks that BigFoot's placement reaches
// FastTrack's race verdict.
func verifyBuilds(ctx context.Context, ws []workloads.Workload, t *tally, arts map[string]*engine.Artifact) {
	eng := engine.New(engine.Options{})
	for _, w := range ws {
		art := arts[w.Name]
		if art == nil {
			continue // its build already failed
		}
		racy := map[string]bool{}
		var problems []string
		for _, name := range []string{"FT", "BF"} {
			out, err := eng.Run(ctx, art.Variant(name), engine.RunSpec{Seed: suiteSchedSeed})
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s/%s run: %v", w.Name, name, err))
				continue
			}
			racy[name] = len(out.Races) > 0
		}
		if len(problems) == 0 && racy["FT"] != racy["BF"] {
			problems = append(problems, fmt.Sprintf("%s: FT racy=%v but BF racy=%v", w.Name, racy["FT"], racy["BF"]))
		}
		t.op(problems...)
	}
}

func runBuild(ctx context.Context, cfg config) (*outcome, error) {
	o := newOutcome()
	var ws []workloads.Workload
	if err := setUp(o.v, func() (err error) {
		ws, err = setupBuild(cfg.seed)
		return err
	}); err != nil {
		return nil, err
	}
	ps, arts := newPasses(), map[string]*engine.Artifact{}
	if cfg.traced {
		tracedPasses(cfg, o, func(t *tally) time.Duration {
			return buildPass(ws, t, ps, arts)
		}, func(tr *tracer, pid int, t *tally, clock time.Duration) layerCounts {
			var c layerCounts
			for i, w := range ws {
				lc, placed, problems, err := tracedProgram(ctx, tr, pid, i+1, w.Source, false, clock)
				if err != nil {
					problems = append(problems, err.Error())
				}
				t.op(append(problems, checkPlaced(w.Name, placed)...)...)
				c.add(lc)
			}
			return c
		})
	} else {
		ps.measure(o.v, cfg.window, "builds", func() { buildPass(ws, o.t, ps, arts) })
	}
	verifyBuilds(ctx, ws, o.t, arts)
	return o, nil
}
