// Long-running differential-fuzz campaigns: bfbench -fuzz generates
// programs with bfgen, sweeps each across scheduler seeds under all
// five detectors, checks the metamorphic oracles, and on any
// disagreement shrinks the program to a minimal repro and writes it
// next to the report as a ready-to-commit .bfj file.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"bigfoot/internal/bfgen"
	"bigfoot/internal/bfj"
	"bigfoot/internal/detector"
	"bigfoot/internal/difftest"
	"bigfoot/internal/engine"
	"bigfoot/internal/interp"
)

// fuzzShrinkMaxSteps bounds candidate executions during shrinking:
// statement deletion routinely produces unbounded loops, which would
// otherwise spin toward the interpreter's default step limit before
// being rejected.
const fuzzShrinkMaxSteps = 500_000

// shard is a parsed -shard i/n selection: of the campaign's program
// indices, this host checks exactly those with index ≡ i (mod n).
type shard struct {
	i, n int
}

// parseShard parses "i/n" with 0 <= i < n.  The empty string is the
// whole campaign (0/1).
func parseShard(s string) (shard, error) {
	if s == "" {
		return shard{0, 1}, nil
	}
	var sh shard
	if _, err := fmt.Sscanf(s, "%d/%d", &sh.i, &sh.n); err != nil {
		return shard{}, fmt.Errorf("-shard %q: want i/n", s)
	}
	if sh.n < 1 || sh.i < 0 || sh.i >= sh.n {
		return shard{}, fmt.Errorf("-shard %q: want 0 <= i < n", s)
	}
	return sh, nil
}

// contains reports whether program index p belongs to this shard.  The
// partition is deterministic and exhaustive: for a fixed campaign seed
// the n shards check disjoint program sets whose union is exactly the
// unsharded campaign (generation itself is never skipped, so program p
// is byte-identical on every host regardless of n).
func (sh shard) contains(p int) bool { return p%sh.n == sh.i }

// runFuzz executes a differential campaign of nProgs generated
// programs, each swept over nSched scheduler seeds; of those programs,
// only the ones in sh are checked (the rest are still generated, so the
// program stream is shard-invariant).  Returns 0 when every checked
// (program, seed) pair agrees, 1 after writing a shrunk repro for the
// first disagreement, 3 on repro I/O errors.
func runFuzz(baseSeed int64, nProgs, nSched int, out string, quiet bool, sh shard, noFast bool) int {
	rng := rand.New(rand.NewSource(baseSeed))
	seeds := make([]int64, nSched)
	for i := range seeds {
		seeds[i] = int64(i)
	}
	// The per-10-programs progress print below can be minutes apart on a
	// large shard (one program sweeps nSched seeds under five detectors,
	// and a sharded host skips most indices); a time-based heartbeat
	// keeps the campaign visibly alive in between.
	var progsDone, pairsChecked atomic.Int64
	if !quiet {
		start := time.Now()
		stopHB := startHeartbeat(fuzzHeartbeatEvery, func() string {
			shardNote := ""
			if sh.n > 1 {
				shardNote = fmt.Sprintf(", shard %d/%d", sh.i, sh.n)
			}
			return fmt.Sprintf("fuzz: alive: %d/%d programs (%d pairs checked), elapsed %s%s",
				progsDone.Load(), nProgs, pairsChecked.Load(),
				time.Since(start).Round(time.Second), shardNote)
		})
		defer stopHB()
	}
	checked := 0
	for p := 0; p < nProgs; p++ {
		g := bfgen.Generate(rng, bfgen.DefaultConfig())
		progsDone.Store(int64(p + 1))
		if !sh.contains(p) {
			continue
		}
		checked++
		pairsChecked.Store(int64(checked * nSched))
		// CompareFastPaths re-runs each detector with the fast-path knob
		// inverted and asserts identical observables, so a campaign hunts
		// fast-path bugs regardless of which setting is primary.
		opts := difftest.Options{Seeds: seeds, DisableFastPaths: noFast, CompareFastPaths: true}
		dis, err := difftest.CheckGenerated(g, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bfbench: program %d failed to run: %v\n%s\n", p, err, g.Source)
			return 1
		}
		if dis == nil {
			var mdis *difftest.Disagreement
			mdis, err = difftest.CheckMetamorphic(g, opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bfbench: program %d metamorphic variant failed to run: %v\n%s\n", p, err, g.Source)
				return 1
			}
			dis = mdis
		}
		if dis != nil {
			return reportFuzzFailure(p, g, dis, out, noFast)
		}
		if !quiet && checked%10 == 0 {
			fmt.Fprintf(os.Stderr, "fuzz: %d/%d programs, %d (program, seed) pairs, no disagreements\n",
				p+1, nProgs, checked*nSched)
		}
	}
	if !quiet {
		suffix := ""
		if sh.n > 1 {
			suffix = fmt.Sprintf(" (shard %d/%d: %d checked)", sh.i, sh.n, checked)
		}
		fmt.Fprintf(os.Stderr, "fuzz: campaign clean: %d programs x %d schedules x %d detectors%s\n",
			nProgs, nSched, len(engine.VariantNames), suffix)
	}
	return 0
}

// reportFuzzFailure shrinks the failing program with respect to "the
// same detector disagrees the same way", writes the minimal repro, and
// prints everything needed to reproduce the failure by hand.
func reportFuzzFailure(p int, g *bfgen.Program, dis *difftest.Disagreement, out string, noFast bool) int {
	src := g.Source
	var pred func(cand string) bool
	if strings.HasPrefix(dis.Kind, "metamorphic-") {
		// A metamorphic failure means the oracle saw a race in a variant
		// that is race-free by construction; shrink with respect to that
		// oracle race, not a detector disagreement.
		if dis.Kind == "metamorphic-locked" {
			src = g.Locked()
		} else {
			src = g.Serialized()
		}
		pred = func(cand string) bool {
			prog, err := bfj.Parse(cand)
			if err != nil {
				return false
			}
			o := detector.NewOracle()
			if _, err := interp.Run(prog, o, interp.Options{Seed: dis.Seed, MaxSteps: fuzzShrinkMaxSteps}); err != nil {
				return false
			}
			return o.HasRaces()
		}
	} else {
		pred = func(cand string) bool {
			d, err := difftest.CheckSource(cand, difftest.Options{
				Seeds: []int64{dis.Seed}, MaxSteps: fuzzShrinkMaxSteps,
				DisableFastPaths: noFast,
			})
			return err == nil && d != nil && d.Detector == dis.Detector && d.Kind == dis.Kind
		}
	}
	min := difftest.Shrink(src, pred)
	fmt.Fprintf(os.Stderr, "bfbench: program %d: %s\ninterpreter seed: %d\nfull program:\n%s\nshrunk repro:\n%s\n",
		p, dis, dis.Seed, src, min)
	header := fmt.Sprintf("// expect: unknown (classify before committing)\n// found by: bfbench -fuzz, disagreement %s, interpreter seed %d\n", dis, dis.Seed)
	if err := os.WriteFile(out, []byte(header+min), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bfbench: write %s: %v\n", out, err)
		return 3
	}
	fmt.Fprintf(os.Stderr, "bfbench: shrunk repro written to %s (commit under testdata/regress/ after classifying)\n", out)
	return 1
}
