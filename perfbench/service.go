package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bigfoot/internal/engine"
	"bigfoot/internal/harness"
	"bigfoot/internal/metrics"
	"bigfoot/internal/service"
	"bigfoot/internal/workloads"
)

const (
	// serviceClients is the closed loop's client count, one per CPU of
	// the 2-CPU host the benchmark was tuned on: each client sends its
	// next session only after the previous one is answered.
	serviceClients = 2
	// poolSize programs are resubmitted, in turn, for cache hits.  Between
	// two uses of one pool program the cache sees the other poolSize-1
	// and poolSize/4 never-seen programs, 59 entries, which fit in
	// service.DefaultCacheSize (64): a pool program is never the least
	// recently used entry when a never-seen one is inserted.
	poolSize = 48
	// freshEvery: one session in freshEvery submits a never-seen program.
	freshEvery = 5
	// batchSessions sessions make one service pass (wall_s).
	batchSessions = 100
	// serviceSchedSeed is the thread-schedule seed every session asks for.
	serviceSchedSeed = 42
)

// serviceBench is a bigfootd handler with default admission and cache
// settings, served by httptest on loopback, plus the programs its
// clients submit and their known answers.
type serviceBench struct {
	seed   int64
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
	pool   []sessionProgram
	refs   map[string]string // program name → signature hash

	mu     sync.Mutex
	fresh  []sessionProgram  // never-seen programs submitted, in order
	sigs   map[string]string // never-seen program name → response signature
	srcs   map[string]string // program name → source, every program submitted
	frHash map[string]bool   // source hashes of every program submitted
}

// serviceRunner evaluates a program in process exactly as a session
// does, to record the signature a response must carry.
func serviceRunner() *harness.Runner {
	return &harness.Runner{Opts: harness.Options{
		Seed: serviceSchedSeed, Trials: 1, Parallel: 1,
		MaxSteps: service.DefaultMaxSteps, Detectors: engine.VariantNames,
	}}
}

func reference(ctx context.Context, p sessionProgram) (string, error) {
	pr, err := serviceRunner().RunProgramContext(ctx, workloads.Workload{Name: p.name, Suite: "service", Source: p.src})
	if err != nil {
		return "", fmt.Errorf("reference for %s: %w", p.name, err)
	}
	return signatureHash(pr), nil
}

// setupService draws the pool from the seed, records each pool
// program's signature in process, starts the server and submits the
// pool once, so every later pool session is a cache hit.
func setupService(ctx context.Context, seed int64) (*serviceBench, error) {
	rng := rand.New(rand.NewSource(seed))
	b := &serviceBench{seed: seed, refs: map[string]string{}, sigs: map[string]string{},
		srcs: map[string]string{}, frHash: map[string]bool{}}
	for i := 0; i < poolSize; i++ {
		p := drawProgram(rng, i, fmt.Sprintf("pool-%d", i))
		sig, err := reference(ctx, p)
		if err != nil {
			return nil, err
		}
		b.pool = append(b.pool, p)
		b.refs[p.name] = sig
		b.srcs[p.name] = p.src
		b.frHash[engine.SourceHash(p.src)] = true
	}
	b.srv = service.New(service.Config{Metrics: metrics.NewRegistry()})
	b.ts = httptest.NewServer(b.srv)
	b.client = b.ts.Client()
	for _, p := range b.pool {
		s := b.session(ctx, p)
		if len(s.problems) > 0 {
			b.close()
			return nil, fmt.Errorf("warming the cache: %s", strings.Join(s.problems, "; "))
		}
	}
	return b, nil
}

func (b *serviceBench) close() {
	b.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.srv.Drain(ctx) // every session has been answered: nothing to wait for
}

// program returns the i-th session's program: a never-seen one for every
// freshEvery-th session, otherwise the next pool program in turn.
// Never-seen programs are drawn from their own seed stream, so session i
// submits the same program whichever client sends it.
func (b *serviceBench) program(i int) sessionProgram {
	if i%freshEvery != freshEvery-1 {
		return b.pool[(i-i/freshEvery)%poolSize]
	}
	k := i / freshEvery
	for attempt := int64(0); ; attempt++ {
		rng := rand.New(rand.NewSource(b.seed*1_000_003 + int64(k)*101 + attempt + 1))
		p := drawProgram(rng, k, fmt.Sprintf("fresh-%d", k))
		h := engine.SourceHash(p.src)
		b.mu.Lock()
		seen := b.frHash[h]
		b.frHash[h] = true
		b.mu.Unlock()
		if !seen {
			return p
		}
	}
}

// sessionResult is one answered session as its client saw it.
type sessionResult struct {
	start, end time.Time
	status     int
	hit        bool
	phases     harness.PhaseTimings
	pr         *harness.ProgramResult
	problems   []string
}

func (s sessionResult) latency() time.Duration { return s.end.Sub(s.start) }

// reported is the server time the response accounts for: the runs, plus
// the build phases when this session built the artifact.  On a cache
// hit the response repeats the cached artifact's original build
// timings, which this session did not spend.
func (s sessionResult) reported() time.Duration {
	d := s.phases.Run
	if !s.hit {
		d += s.phases.Parse + s.phases.Instrument + s.phases.Compile
	}
	return d
}

// session submits one program and checks the answer: status 200, the
// race verdict the program's shape implies for every detector, and,
// for a pool program, the signature recorded in setup.
func (b *serviceBench) session(ctx context.Context, p sessionProgram) sessionResult {
	body, err := json.Marshal(service.RunRequest{Name: p.name, Program: p.src, Seed: serviceSchedSeed, Trials: 1})
	if err != nil {
		return sessionResult{problems: []string{err.Error()}}
	}
	var s sessionResult
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.ts.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return sessionResult{problems: []string{err.Error()}}
	}
	req.Header.Set("Content-Type", "application/json")
	s.start = time.Now()
	resp, err := b.client.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s.end = time.Now()
	if err != nil {
		s.problems = append(s.problems, fmt.Sprintf("%s: %v", p.name, err))
		return s
	}
	s.status = resp.StatusCode
	s.hit = resp.Header.Get("X-Bigfoot-Cache") == "hit"
	if s.status != http.StatusOK {
		s.problems = append(s.problems, fmt.Sprintf("%s: status %d: %s", p.name, s.status, bytes.TrimSpace(data)))
		return s
	}
	rep, err := harness.ReadJSON(bytes.NewReader(data))
	if err != nil || len(rep.Programs) != 1 {
		s.problems = append(s.problems, fmt.Sprintf("%s: unreadable report: %v", p.name, err))
		return s
	}
	s.pr = rep.Programs[0]
	s.phases = s.pr.Phases
	for _, name := range engine.VariantNames {
		d := s.pr.Detectors[name]
		switch {
		case d == nil:
			s.problems = append(s.problems, fmt.Sprintf("%s: no %s result", p.name, name))
		case p.racy && d.Races == 0:
			s.problems = append(s.problems, fmt.Sprintf("%s (%s): %s missed the race", p.name, p.shaped, name))
		case !p.racy && d.Races != 0:
			s.problems = append(s.problems, fmt.Sprintf("%s (%s): %s reports %d races", p.name, p.shaped, name, d.Races))
		}
	}
	sig := signatureHash(s.pr)
	if want, ok := b.refs[p.name]; ok {
		if sig != want {
			s.problems = append(s.problems, fmt.Sprintf("%s: signature %s, recorded %s", p.name, sig, want))
		}
	} else {
		b.mu.Lock()
		b.fresh = append(b.fresh, p)
		b.sigs[p.name] = sig
		b.srcs[p.name] = p.src
		b.mu.Unlock()
	}
	return s
}

// batch runs one closed-loop batch: serviceClients clients send
// sessions next, next+1, ... until n have been sent.  Spans are recorded
// when tr is non-nil.
func (b *serviceBench) batch(ctx context.Context, next, n int, tr *tracer) []sessionResult {
	out := make([]sessionResult, n)
	var issued atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(issued.Add(1)) - 1
				if j >= n {
					return
				}
				p := b.program(next + j)
				s := b.session(ctx, p)
				if tr != nil {
					traceSession(tr, next+j+1, s)
				}
				out[j] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// Span names of a traced service session: the client's request and the
// phases the response reports inside it.
const (
	spanSession  = "service.session"
	spanSrvParse = "bfj.parse"
	spanSrvInstr = "instrument+analysis+proxy"
	spanSrvComp  = "interp.compile"
	spanSrvRun   = "interp.run"
)

// traceSession records a session's client span and, inside it, the
// phases the server reported, laid end to end from the request's start.
// Build phases are recorded only for a session that built (a miss).
func traceSession(tr *tracer, req int, s sessionResult) {
	start := s.start.Sub(tr.epoch)
	id := tr.add(spanSession, 0, req, start, s.end.Sub(tr.epoch))
	at := start
	phase := func(name string, d time.Duration) {
		tr.add(name, id, req, at, at+d)
		at += d
	}
	if !s.hit {
		phase(spanSrvParse, s.phases.Parse)
		phase(spanSrvInstr, s.phases.Instrument)
		phase(spanSrvComp, s.phases.Compile)
	}
	phase(spanSrvRun, s.phases.Run)
}

// verifyFresh records, in process and untimed, the signature of every
// never-seen program the run submitted and compares it with the one its
// response carried.  It uses one worker per client.
func (b *serviceBench) verifyFresh(ctx context.Context, t *tally) {
	b.mu.Lock()
	fresh, sigs := b.fresh, b.sigs
	b.mu.Unlock()
	problems := make([]string, len(fresh))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < serviceClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(fresh) {
					return
				}
				p := fresh[i]
				want, err := reference(ctx, p)
				switch {
				case err != nil:
					problems[i] = err.Error()
				case sigs[p.name] != want:
					problems[i] = fmt.Sprintf("%s: signature %s, in process %s", p.name, sigs[p.name], want)
				}
			}
		}()
	}
	wg.Wait()
	// One operation: the whole check of the run's never-seen programs.
	var bad []string
	for _, p := range problems {
		if p != "" {
			bad = append(bad, p)
		}
	}
	t.op(bad...)
}

// queueWaitSum reads the bigfoot_http_queue_wait_seconds sum and count
// from the server's /metrics exposition.
func (b *serviceBench) queueWaitSum(ctx context.Context) (sum, count float64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.ts.URL+"/metrics", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		switch f[0] {
		case "bigfoot_http_queue_wait_seconds_sum":
			sum, err = strconv.ParseFloat(f[1], 64)
		case "bigfoot_http_queue_wait_seconds_count":
			count, err = strconv.ParseFloat(f[1], 64)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("/metrics: %w", err)
		}
	}
	return sum, count, sc.Err()
}

// split separates session latencies (ms) by cache outcome.  A session
// that was not answered 200 counts as infinitely slow.
func split(ss []sessionResult) (all, hits, misses []float64) {
	for _, s := range ss {
		ms := float64(s.latency()) / float64(time.Millisecond)
		if s.status != http.StatusOK {
			ms = math.Inf(1)
		}
		all = append(all, ms)
		if s.hit {
			hits = append(hits, ms)
		} else {
			misses = append(misses, ms)
		}
	}
	return all, hits, misses
}

func runService(ctx context.Context, cfg config) (*outcome, error) {
	o := newOutcome()
	var b *serviceBench
	if err := setUp(o.v, func() (err error) {
		if b != nil {
			b.close()
		}
		b, err = setupService(ctx, cfg.seed)
		return err
	}); err != nil {
		return nil, err
	}
	defer b.close()
	cache0 := b.srv.Engine().Cache().Stats()

	var sessions []sessionResult
	var walls []time.Duration
	next := 0
	runBatch := func(tr *tracer) []sessionResult {
		start := time.Now()
		ss := b.batch(ctx, next, batchSessions, tr)
		walls = append(walls, time.Since(start))
		next += batchSessions
		for _, s := range ss {
			o.t.op(s.problems...)
		}
		return ss
	}
	if cfg.traced {
		return o, tracedService(ctx, cfg, o, b, runBatch)
	}

	hp := startHeapPeak(heapPeriod)
	start := time.Now()
	for len(walls) < 1 || time.Since(start) < cfg.window {
		sessions = append(sessions, runBatch(nil)...)
	}
	peak := hp.stop()
	b.verifyFresh(ctx, o.t)

	all, hits, misses := split(sessions)
	var total time.Duration
	for _, w := range walls {
		total += w
	}
	v := o.v
	v.set("wall_s", median(seconds(walls)), fmt.Sprintf("median of %d batches of %d sessions", len(walls), batchSessions))
	v.set("sessions_per_s", float64(len(all))/total.Seconds(), fmt.Sprintf("%d sessions, %d clients, closed loop", len(all), serviceClients))
	v.set("session_p50_ms", median(all), fmt.Sprintf("n=%d", len(all)))
	p99, err := percentile(all, 99)
	if err != nil {
		return nil, fmt.Errorf("session_p99_ms: %w", err)
	}
	_, beyond := rankOf(len(all), 99)
	v.set("session_p99_ms", p99, fmt.Sprintf("n=%d, %d beyond", len(all), beyond))
	v.set("peak_heap_mb", float64(peak)/1e6, "")
	cs := b.srv.Engine().Cache().Stats()
	o.extra = append(o.extra,
		fmt.Sprintf("hit_p50_ms  %.4f (n=%d)", median(hits), len(hits)),
		fmt.Sprintf("miss_p50_ms %.4f (n=%d)", median(misses), len(misses)),
		fmt.Sprintf("cache: hits=%d misses=%d evictions=%d collapsed=%d", cs.Hits-cache0.Hits, cs.Misses-cache0.Misses,
			cs.Evictions-cache0.Evictions, cs.Collapsed-cache0.Collapsed))
	return o, nil
}

// tracedService alternates untraced and traced batches until the window
// has passed, and reports the per-layer metrics per traced batch: what
// the clients measured, the phases the responses reported, the cache
// counters, the queue wait from /metrics, and runtime counter deltas
// around the traced batches.
func tracedService(ctx context.Context, cfg config, o *outcome, b *serviceBench,
	runBatch func(*tracer) []sessionResult) error {
	tr := newTracer()
	var plainWalls, tracedWalls []time.Duration
	var traced []sessionResult
	var rt rtStat
	var cache engine.CacheStats
	var qSum, qCount float64
	start := time.Now()
	for len(tracedWalls) < 1 || time.Since(start) < cfg.window {
		s := time.Now()
		runBatch(nil)
		plainWalls = append(plainWalls, time.Since(s))

		c0 := b.srv.Engine().Cache().Stats()
		qs0, qc0, err := b.queueWaitSum(ctx)
		if err != nil {
			return err
		}
		r0 := readRT()
		s = time.Now()
		traced = append(traced, runBatch(tr)...)
		tracedWalls = append(tracedWalls, time.Since(s))
		rt = rt.add(readRT().sub(r0))
		qs1, qc1, err := b.queueWaitSum(ctx)
		if err != nil {
			return err
		}
		qSum, qCount = qSum+qs1-qs0, qCount+qc1-qc0
		c1 := b.srv.Engine().Cache().Stats()
		cache.Hits += c1.Hits - c0.Hits
		cache.Misses += c1.Misses - c0.Misses
		cache.Evictions += c1.Evictions - c0.Evictions
		cache.Collapsed += c1.Collapsed - c0.Collapsed
	}
	b.verifyFresh(ctx, o.t)
	o.spans = tr.snapshot()

	n := float64(len(tracedWalls))
	v := o.v
	var parse, instr, comp, baseRun, varRun, overhead time.Duration
	var srcBytes, bodies, placed, steps, events, shadow, fp, peak float64
	var builds int
	for _, s := range traced {
		overhead += s.latency() - s.reported()
		if s.pr == nil {
			continue
		}
		baseRun += s.pr.BaseTime
		steps += float64(s.pr.BaseSteps)
		for _, name := range engine.VariantNames {
			if d := s.pr.Detectors[name]; d != nil {
				varRun += d.Time
				events += float64(s.pr.Accesses + d.Checks + d.SyncOps)
				shadow += float64(d.ShadowOps)
				fp += float64(d.FootprintOps)
				peak += float64(d.PeakWords)
			}
		}
		if !s.hit {
			builds++
			parse += s.phases.Parse
			instr += s.phases.Instrument
			comp += s.phases.Compile
			srcBytes += float64(len(b.sourceOf(s.pr.Name)))
			bodies += float64(s.pr.MethodsAnalyzed)
			placed += float64(s.pr.ChecksInserted)
		}
	}
	_, hits, misses := split(traced)
	per := func(d time.Duration) float64 { return d.Seconds() / n }
	unseen := "not visible to a client"
	v.set("bfj.parse_s", per(parse), "reported by misses")
	v.set("bfj.bytes_per_s", ratioOr0(srcBytes, parse.Seconds()), "")
	v.set("instrument.every_s", 0, "responses report instrument+analysis+proxy as one phase")
	v.set("instrument.redcard_s", 0, "responses report instrument+analysis+proxy as one phase")
	v.set("analysis.place_s", per(instr), "whole instrument phase of misses: every placement, analysis and proxy")
	v.set("analysis.bodies", bodies/n, "")
	v.set("analysis.checks_placed", placed/n, "")
	v.set("analysis.check_items", 0, unseen)
	v.set("proxy.analyze_s", 0, "inside analysis.place_s")
	v.set("interp.compile_s", per(comp), "")
	v.set("interp.base_run_s", per(baseRun), "")
	v.set("interp.variant_run_s", per(varRun), "includes the detector")
	v.set("interp.run_self_s", 0, "detector time "+unseen)
	v.set("interp.steps", steps/n, "base runs")
	v.set("interp.ns_per_step", ratioOr0(float64(baseRun.Nanoseconds()), steps), "base runs")
	v.set("detector.hook_s", 0, unseen)
	v.set("detector.events", events/n, "accesses + check items + sync ops")
	v.set("detector.ns_per_event", 0, unseen)
	v.set("detector.shadow_ops", shadow/n, "")
	v.set("detector.footprint_ops", fp/n, "")
	v.set("detector.peak_words", peak/n, "summed over runs")
	v.set("detector.fastpath_hits", 0, unseen)
	setRT(v, rt, len(tracedWalls))
	v.set("engine.build_ms", ratioOr0(float64(parse+instr+comp)/float64(time.Millisecond), float64(builds)), fmt.Sprintf("mean of %d misses", builds))
	v.set("engine.cache_hit_ratio", ratioOr0(float64(cache.Hits), float64(cache.Hits+cache.Misses)), "")
	v.set("engine.evictions", float64(cache.Evictions)/n, "")
	v.set("engine.collapsed", float64(cache.Collapsed)/n, "")
	v.set("service.overhead_ms", ratioOr0(float64(overhead)/float64(time.Millisecond), float64(len(traced))), "mean per session: latency minus reported phases")
	v.set("service.queue_wait_ms", ratioOr0(1000*qSum, float64(len(traced))), fmt.Sprintf("mean per session; %.0f sessions queued", qCount))
	v.set("service.hit_p50_ms", median(hits), fmt.Sprintf("n=%d", len(hits)))
	v.set("service.miss_p50_ms", median(misses), fmt.Sprintf("n=%d", len(misses)))
	v.set("bench.self_s", 0, "no benchmark glue inside a session")
	p, t := mean(seconds(plainWalls)), mean(seconds(tracedWalls))
	v.set("trace.overhead_s", t-p, fmt.Sprintf("traced batch %.3fs vs untraced %.3fs, %d pairs; %.1f%%", t, p, len(tracedWalls), 100*(t-p)/p))
	return nil
}

// sourceOf returns the source of a submitted program by name.
func (b *serviceBench) sourceOf(name string) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.srcs[name]
}
