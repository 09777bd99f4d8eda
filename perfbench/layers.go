package main

import (
	"context"
	"fmt"
	"time"

	"bigfoot/internal/analysis"
	"bigfoot/internal/bfj"
	"bigfoot/internal/detector"
	"bigfoot/internal/engine"
	"bigfoot/internal/instrument"
	"bigfoot/internal/interp"
	"bigfoot/internal/proxy"
)

// Span names of the traced layer sequence.
const (
	spanPass     = "bench.pass"
	spanProgram  = "bench.program"
	spanParse    = "bfj.parse"
	spanEvery    = "instrument.every"
	spanRedCard  = "instrument.redcard"
	spanAnalysis = "analysis.place"
	spanProxy    = "proxy.analyze"
	spanCompile  = "interp.compile"
	spanBaseRun  = "interp.run.base"
	spanVarRun   = "interp.run.variant"
	spanHook     = "detector.hook"
	spanClock    = "trace.clock"
)

// layerCounts are the deterministic counters of a traced pass.
type layerCounts struct {
	srcBytes     int
	bodies       int
	checksPlaced int
	checkItems   int
	steps        uint64 // base runs
	events       uint64 // hook calls into the detectors
	shadowOps    uint64
	footprintOps uint64
	peakWords    uint64
	fastHits     uint64
	hookNet      time.Duration // estimated detector time, clock cost removed
}

func (c *layerCounts) add(o layerCounts) {
	c.srcBytes += o.srcBytes
	c.bodies += o.bodies
	c.checksPlaced += o.checksPlaced
	c.checkItems += o.checkItems
	c.steps += o.steps
	c.events += o.events
	c.shadowOps += o.shadowOps
	c.footprintOps += o.footprintOps
	c.peakWords += o.peakWords
	c.fastHits += o.fastHits
	c.hookNet += o.hookNet
}

// tracedProgram repeats, one layer call at a time, what the harness does
// for one program — bfj.Parse, instrument.EveryAccess and RedCard,
// analysis, proxy.Analyze, interp.Compile of every placement and the
// base — recording a span around each call.  With run set it also
// executes the base under NopHook and each of the five detectors under
// a timed wrapper, as the harness's runs do, and checks what the
// harness checks: no races on these race-free programs, and every
// variant doing the base run's heap accesses.  It returns the
// placements' check counts in engine.VariantNames order.
func tracedProgram(ctx context.Context, tr *tracer, parent, req int, src string, run bool, clock time.Duration) (layerCounts, []int, []string, error) {
	var c layerCounts
	c.srcBytes = len(src)
	pid := tr.begin(spanProgram, parent, req, false)
	defer tr.end(pid)
	call := func(name string, f func()) {
		id := tr.begin(name, pid, req, true)
		f()
		tr.end(id)
	}

	var base *bfj.Program
	var err error
	call(spanParse, func() { base, err = bfj.Parse(src) })
	if err != nil {
		return c, nil, nil, fmt.Errorf("parse: %w", err)
	}
	// The engine shares one every-access placement between FT and SS and
	// one RedCard placement between RC and SC; so does this sequence.
	var every, red, bf *bfj.Program
	var everySt, redSt instrument.Stats
	var redProx, bfProx *proxy.Table
	call(spanEvery, func() { every, everySt = instrument.EveryAccess(base) })
	call(spanRedCard, func() { red, redSt = instrument.RedCard(base) })
	call(spanProxy, func() { redProx = proxy.Analyze(red) })
	var an *analysis.Analyzer
	call(spanAnalysis, func() {
		an = analysis.New(base, analysis.DefaultOptions())
		bf = an.Instrument()
	})
	call(spanProxy, func() { bfProx = proxy.Analyze(bf) })
	c.bodies = an.Stats.BodiesAnalyzed
	c.checksPlaced = an.Stats.ChecksPlaced
	c.checkItems = an.Stats.CheckItems
	placed := []int{everySt.ChecksInserted, redSt.ChecksInserted, everySt.ChecksInserted, redSt.ChecksInserted, an.Stats.ChecksPlaced}

	compiled := map[*bfj.Program]*interp.Compiled{}
	for _, p := range []*bfj.Program{every, red, bf, base} {
		var cp *interp.Compiled
		call(spanCompile, func() { cp, err = interp.Compile(p) })
		if err != nil {
			return c, placed, nil, fmt.Errorf("compile: %w", err)
		}
		compiled[p] = cp
	}
	if !run {
		return c, placed, nil, nil
	}

	opts := interp.Options{Seed: suiteSchedSeed}
	var baseCnt interp.Counters
	call(spanBaseRun, func() { baseCnt, err = compiled[base].RunContext(ctx, interp.NopHook{}, opts) })
	if err != nil {
		return c, placed, nil, fmt.Errorf("base run: %w", err)
	}
	c.steps = baseCnt.Steps
	var problems []string
	variants := []struct {
		name       string
		prog       *bfj.Program
		prox       *proxy.Table
		footprints bool
	}{
		{"FT", every, nil, false},
		{"RC", red, redProx, false},
		{"SS", every, nil, true},
		{"SC", red, redProx, true},
		{"BF", bf, bfProx, true},
	}
	for _, v := range variants {
		d := detector.New(detector.Config{Name: v.name, Footprints: v.footprints, Proxies: v.prox})
		h := &timedHook{h: d}
		id := tr.begin(spanVarRun, pid, req, true)
		start := tr.now()
		cnt, rerr := compiled[v.prog].RunContext(ctx, h, opts)
		tr.end(id)
		if rerr != nil {
			return c, placed, problems, fmt.Errorf("%s run: %w", v.name, rerr)
		}
		// The detector's estimated time and the sampled clock reads are
		// laid end to end inside the run span, so the run's self time is
		// the interpreter's alone.
		net := h.busy(clock)
		tr.add(spanHook, id, req, start, start+net)
		tr.add(spanClock, id, req, start+net, start+net+time.Duration(h.samples)*clock)
		c.events += h.events
		c.hookNet += net
		c.shadowOps += d.Stats.ShadowOps
		c.footprintOps += d.Stats.FootprintOps
		c.peakWords += d.Stats.PeakWords
		c.fastHits += d.Stats.Fast.Total()
		if n := d.RaceCount(); n != 0 {
			problems = append(problems, fmt.Sprintf("%s reports %d races", v.name, n))
		}
		if cnt.Accesses() != baseCnt.Accesses() {
			problems = append(problems, fmt.Sprintf("%s did %d accesses, base %d", v.name, cnt.Accesses(), baseCnt.Accesses()))
		}
	}
	return c, placed, problems, nil
}

// checkPlaced compares placement counts (engine.VariantNames order)
// with the pinned ones.
func checkPlaced(name string, got []int) []string {
	want, ok := pinnedPlaced[name]
	if !ok {
		return []string{name + ": no pinned check counts"}
	}
	var problems []string
	for i, v := range engine.VariantNames {
		if i >= len(got) || got[i] != want[i] {
			problems = append(problems, fmt.Sprintf("%s/%s placed %v checks, want %d", name, v, got, want[i]))
			break
		}
	}
	return problems
}

// layerValues turns a traced run's spans and counters into the per-layer
// metrics, each divided by the number of traced passes.
func layerValues(v *values, spans []span, c layerCounts, passes int) {
	n := float64(passes)
	per := func(d time.Duration) float64 { return d.Seconds() / n }
	self := selfTimes(spans)
	parse := totalTime(spans, spanParse)
	v.set("bfj.parse_s", per(parse), "")
	v.set("bfj.bytes_per_s", ratioOr0(float64(c.srcBytes), parse.Seconds()), "")
	v.set("instrument.every_s", per(totalTime(spans, spanEvery)), "")
	v.set("instrument.redcard_s", per(totalTime(spans, spanRedCard)), "")
	v.set("analysis.place_s", per(totalTime(spans, spanAnalysis)), "timed around analysis.New(..).Instrument()")
	v.set("analysis.bodies", float64(c.bodies)/n, "")
	v.set("analysis.checks_placed", float64(c.checksPlaced)/n, "")
	v.set("analysis.check_items", float64(c.checkItems)/n, "")
	v.set("proxy.analyze_s", per(totalTime(spans, spanProxy)), "")
	v.set("interp.compile_s", per(totalTime(spans, spanCompile)), "")
	baseRun := totalTime(spans, spanBaseRun)
	v.set("interp.base_run_s", per(baseRun), "")
	v.set("interp.variant_run_s", per(totalTime(spans, spanVarRun)), "includes detector.hook_s")
	v.set("interp.run_self_s", per(self[spanBaseRun]+self[spanVarRun]), "runs minus detector time")
	v.set("interp.steps", float64(c.steps)/n, "base runs")
	v.set("interp.ns_per_step", ratioOr0(float64(baseRun.Nanoseconds()), float64(c.steps)), "base runs")
	v.set("detector.hook_s", per(c.hookNet), "sampled 1 call in 16, clock cost subtracted")
	v.set("detector.events", float64(c.events)/n, "")
	v.set("detector.ns_per_event", ratioOr0(float64(c.hookNet.Nanoseconds()), float64(c.events)), "")
	v.set("detector.shadow_ops", float64(c.shadowOps)/n, "")
	v.set("detector.footprint_ops", float64(c.footprintOps)/n, "")
	v.set("detector.peak_words", float64(c.peakWords)/n, "summed over runs")
	v.set("detector.fastpath_hits", float64(c.fastHits)/n, "")
	var rt rtStat
	var sched float64
	for _, s := range spans {
		if s.RT == nil {
			continue
		}
		rt = rt.add(*s.RT)
		if s.Name == spanBaseRun || s.Name == spanVarRun {
			sched += s.RT.SchedLat
		}
	}
	rt.SchedLat = sched
	setRT(v, rt, passes)
	builds := 0
	var build time.Duration
	for _, s := range spans {
		switch s.Name {
		case spanProgram:
			builds++
		case spanParse, spanEvery, spanRedCard, spanAnalysis, spanProxy, spanCompile:
			build += s.End - s.Start
		}
	}
	v.set("engine.build_ms", ratioOr0(float64(build)/float64(time.Millisecond), float64(builds)), "mean per program: parse through compile")
	v.set("bench.self_s", per(self[spanPass]+self[spanProgram]), "pass and program glue")
}

// setRT reports runtime counter deltas per pass.  For suite and build
// they are summed over the layer calls (the scheduler latency over the
// runs only); for service, taken around the whole traced window.
func setRT(v *values, rt rtStat, passes int) {
	n := float64(passes)
	v.set("gc.cpu_s", rt.GCCPU/n, "")
	v.set("gc.alloc_mb", float64(rt.AllocBytes)/1e6/n, "")
	v.set("gc.allocs", float64(rt.Allocs)/n, "")
	v.set("gc.cycles", float64(rt.Cycles)/n, "")
	v.set("interp.sched_latency_s", rt.SchedLat/n, "/sched/latencies total, bucket midpoints")
}

func ratioOr0(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// zeroService reports the service-only layers as unreached.
func zeroService(v *values) {
	for _, name := range []string{"engine.cache_hit_ratio", "engine.evictions", "engine.collapsed",
		"service.overhead_ms", "service.queue_wait_ms", "service.hit_p50_ms", "service.miss_p50_ms"} {
		v.set(name, 0, "not reached by this workload")
	}
}
