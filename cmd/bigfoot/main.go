// Command bigfoot analyzes and runs a BFJ program with a chosen race
// detector.
//
// Usage:
//
//	bigfoot [-mode bigfoot|fasttrack|redcard|slimstate|slimcard]
//	        [-seed N] [-runs K] [-show] [-stats]
//	        [-trace-out f.json] [-trace-rec f.bftrace] [-explain-races]
//	        [-debug-census] [-cpuprofile f] [-memprofile f] [-trace f]
//	        [-metrics-out f] file.bfj
//	bigfoot -trace-replay f.bftrace [-stats] [-explain-races]
//	        [-trace-out f.json] [-cpuprofile f] [-memprofile f] [-trace f]
//	        [-metrics-out f]
//
// -show prints the instrumented program (with placed checks) instead of
// running it.  -runs K explores K consecutive schedule seeds starting at
// -seed, compiling the program once and reusing the artifact for every
// run; races are deduplicated across seeds.  -trace-rec records the
// first seed's execution in the persistent compressed trace format;
// -trace-replay re-analyzes such a recording (also bfbench -trace-rec
// and bigfootd -trace-dir output) through the recorded detector,
// printing the live run's race report; flags that choose what runs are
// usage errors there.  -trace-out writes the first seed's execution, or
// the replayed one, as Chrome trace_event JSON (ui.perfetto.dev or
// chrome://tracing; one lane per thread), rendered by replaying the
// recording.  -explain-races prints a per-race provenance block with both
// access sites.  -debug-census validates the detector's exact
// incremental space census against a full shadow walk at every
// synchronization operation (diagnostic only — the walk is the cost the
// incremental census removed).  The profiling flags capture
// runtime/pprof and runtime/trace output for `go tool pprof` /
// `go tool trace`; -metrics-out dumps the run's metrics registry
// (build/run latency, detector work counters) in the Prometheus text
// format at exit ("-" for stderr).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"bigfoot"
	"bigfoot/internal/profiling"
)

var modes = map[string]bigfoot.Mode{
	"fasttrack": bigfoot.FastTrack,
	"ft":        bigfoot.FastTrack,
	"redcard":   bigfoot.RedCard,
	"rc":        bigfoot.RedCard,
	"slimstate": bigfoot.SlimState,
	"ss":        bigfoot.SlimState,
	"slimcard":  bigfoot.SlimCard,
	"sc":        bigfoot.SlimCard,
	"bigfoot":   bigfoot.BigFoot,
	"bf":        bigfoot.BigFoot,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		modeName = flag.String("mode", "bigfoot", "detector: fasttrack|redcard|slimstate|slimcard|bigfoot")
		seed     = flag.Int64("seed", 0, "first schedule seed")
		runs     = flag.Int("runs", 1, "number of consecutive seeds to run (compiled once)")
		show     = flag.Bool("show", false, "print the instrumented program and exit")
		stats    = flag.Bool("stats", false, "print check/shadow statistics")
		traceOut = flag.String("trace-out", "", "write the first seed's execution (or the -trace-replay recording) as Chrome trace_event JSON to this file")
		traceRec = flag.String("trace-rec", "", "record the first seed's execution as a compressed .bftrace to this file")
		traceRep = flag.String("trace-replay", "", "replay a recorded .bftrace through its detector instead of running a program")
		explain  = flag.Bool("explain-races", false, "print per-race provenance (both access sites)")
		debugCen = flag.Bool("debug-census", false, "cross-check the exact incremental space census against a full shadow walk at every sync op (slow; panics on mismatch)")
	)
	var prof profiling.Config
	prof.AddFlags(flag.CommandLine)
	flag.Parse()
	mode, ok := modes[strings.ToLower(*modeName)]
	switch {
	case *traceRep != "":
		bad := "" // a flag choosing what the recording already fixed
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "mode", "seed", "runs", "show", "trace-rec", "debug-census":
				if bad == "" {
					bad = f.Name
				}
			}
		})
		if bad != "" {
			fmt.Fprintf(os.Stderr, "bigfoot: -%s does not apply to -trace-replay\n", bad)
			return 2
		}
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: bigfoot -trace-replay f.bftrace (no program argument)")
			return 2
		}
	case flag.NArg() != 1 || *runs < 1:
		fmt.Fprintln(os.Stderr, "usage: bigfoot [-mode M] [-seed N] [-runs K] [-show] [-stats] file.bfj")
		return 2
	case !ok:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *modeName)
		return 2
	}
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bigfoot: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "bigfoot: %v\n", err)
		}
		// The facade records every run in the process registry;
		// -metrics-out dumps it.
		if err := prof.WriteMetrics(bigfoot.Metrics()); err != nil {
			fmt.Fprintf(os.Stderr, "bigfoot: %v\n", err)
		}
	}()
	if *traceRep != "" {
		return replayTrace(*traceRep, *traceOut, *stats, *explain)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	prog, err := bigfoot.Parse(string(src))
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", flag.Arg(0), err)
		return 1
	}
	inst := prog.Instrument(mode)
	if *show {
		fmt.Print(inst.Text())
		return 0
	}
	// Compile once; every seed below reuses the artifact.
	compiled, err := inst.Compile()
	if err != nil {
		fmt.Fprintf(os.Stderr, "compile error: %v\n", err)
		return 1
	}
	seen := make(map[string]bool)
	var races []bigfoot.Race
	for k := 0; k < *runs; k++ {
		s := *seed + int64(k)
		cfg := bigfoot.RunConfig{Seed: s, DebugCensus: *debugCen}
		var recording bytes.Buffer // the first seed's, for -trace-out
		var recFile *os.File
		if k == 0 {
			cfg.Out = os.Stdout // print output once; later seeds only hunt races
			var sinks []io.Writer
			if *traceOut != "" {
				sinks = append(sinks, &recording)
			}
			if *traceRec != "" {
				recFile, err = os.Create(*traceRec)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bigfoot: %v\n", err)
					return 1
				}
				sinks = append(sinks, recFile)
			}
			if len(sinks) > 0 {
				cfg.Record = io.MultiWriter(sinks...)
				cfg.RecordName = strings.TrimSuffix(filepath.Base(flag.Arg(0)), ".bfj")
			}
		}
		rep, err := compiled.Run(cfg)
		if recFile != nil {
			if cerr := recFile.Close(); cerr != nil && err == nil {
				err = cerr
			}
			if err == nil {
				fmt.Fprintf(os.Stderr, "trace-rec: seed %d -> %s\n", s, *traceRec)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "runtime error (seed %d): %v\n", s, err)
			return 1
		}
		if k == 0 && *traceOut != "" {
			if _, _, err := replay(&recording, *traceOut); err != nil {
				fmt.Fprintf(os.Stderr, "bigfoot: %v\n", err)
				return 1
			}
		}
		if *stats && k == 0 {
			fmt.Fprintf(os.Stderr, "mode=%s accesses=%d checks=%d ratio=%.3f shadowOps=%d shadowWords=%d\n",
				mode, rep.Accesses, rep.Checks, rep.CheckRatio, rep.ShadowOps, rep.ShadowWords)
		}
		for _, r := range rep.Races {
			if !seen[r.Location] {
				seen[r.Location] = true
				races = append(races, r)
			}
		}
	}
	if len(races) == 0 {
		fmt.Fprintln(os.Stderr, "no races detected")
		return 0
	}
	file := filepath.Base(flag.Arg(0))
	for _, r := range races {
		fmt.Fprintln(os.Stderr, raceLine(file, r))
		if *explain {
			explainRace(os.Stderr, file, r)
		}
	}
	return 3
}

// replayTrace re-analyzes a recorded .bftrace offline: the persisted
// hook stream runs through the recorded detector, reproducing the live
// run's races and statistics without re-interpreting the program, and
// -trace-out renders the recording's Chrome view.  Exit codes mirror a
// live run: 0 clean, 1 replay failure, 3 races.
func replayTrace(path, chromePath string, stats, explain bool) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer f.Close()
	rep, variant, err := replay(f, chromePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bigfoot: replay %s: %v\n", path, err)
		return 1
	}
	if stats {
		fmt.Fprintf(os.Stderr, "variant=%s accesses=%d checks=%d ratio=%.3f shadowOps=%d shadowWords=%d\n",
			variant, rep.Accesses, rep.Checks, rep.CheckRatio, rep.ShadowOps, rep.ShadowWords)
	}
	if len(rep.Races) == 0 {
		fmt.Fprintln(os.Stderr, "no races detected")
		return 0
	}
	file := filepath.Base(path)
	for _, r := range rep.Races {
		fmt.Fprintln(os.Stderr, raceLine(file, r))
		if explain {
			explainRace(os.Stderr, file, r)
		}
	}
	return 3
}

// replay re-analyzes a recording; a non-empty chromePath receives the
// replayed execution as Chrome trace_event JSON, checked to be valid.
func replay(recording io.Reader, chromePath string) (*bigfoot.Report, string, error) {
	var js bytes.Buffer
	var chrome io.Writer
	if chromePath != "" {
		chrome = &js
	}
	rep, variant, err := bigfoot.ReplayTrace(recording, chrome)
	if err != nil || chrome == nil {
		return rep, variant, err
	}
	if !json.Valid(js.Bytes()) {
		return nil, variant, fmt.Errorf("trace: emitted invalid JSON (%d bytes)", js.Len())
	}
	if err := os.WriteFile(chromePath, js.Bytes(), 0o644); err != nil {
		return nil, variant, err
	}
	fmt.Fprintf(os.Stderr, "trace: %s view -> %s\n", variant, chromePath)
	return rep, variant, nil
}

func kindName(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

func site(file string, p bigfoot.Pos) string {
	if !p.IsValid() {
		return file + ":?"
	}
	return fmt.Sprintf("%s:%d", file, p.Line)
}

// raceLine renders the two-sited report, later access first:
//
//	RACE on Counter#1.hits: write at racy.bfj:9 by T2 races read at racy.bfj:8 by T1
//
// Falling back to the position-free form when neither site carries a
// source position (hand-written check statements).
func raceLine(file string, r bigfoot.Race) string {
	if !r.PrevPos.IsValid() && !r.CurPos.IsValid() {
		return fmt.Sprintf("RACE on %s between threads %d and %d", r.Location, r.Threads[0], r.Threads[1])
	}
	return fmt.Sprintf("RACE on %s: %s at %s by T%d races %s at %s by T%d",
		r.Location,
		kindName(r.CurWrite), site(file, r.CurPos), r.Threads[1],
		kindName(r.PrevWrite), site(file, r.PrevPos), r.Threads[0])
}

// explainRace prints the provenance block for -explain-races.
func explainRace(w io.Writer, file string, r bigfoot.Race) {
	fmt.Fprintf(w, "  earlier: %-5s of %s at %s (line:col %s) by thread %d\n",
		kindName(r.PrevWrite), r.Location, site(file, r.PrevPos), r.PrevPos, r.Threads[0])
	fmt.Fprintf(w, "  later:   %-5s of %s at %s (line:col %s) by thread %d\n",
		kindName(r.CurWrite), r.Location, site(file, r.CurPos), r.CurPos, r.Threads[1])
}
