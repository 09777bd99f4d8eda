// Package engine is the compile-once/run-many session core of the
// BigFoot system: it owns program preparation (parse → per-variant
// instrumentation → compilation into immutable interp.Compiled
// artifacts) and detected execution (detector + hook assembly,
// context-aware cancellation, per-run step and wall-clock budgets,
// structured outcomes).
//
// Every execution in the repository flows through (*Engine).Run — the
// public facade, the batch harness, and the bigfootd service are all
// thin clients layered on this package:
//
//	engine   — sessions: build artifacts, run them under budgets
//	harness  — batch client: trials, aggregation, tables, JSON views
//	service  — daemon: HTTP sessions over the engine + artifact cache
//
// Artifacts are immutable and goroutine-safe: one *Artifact (and each
// *Variant inside it) may back any number of concurrent Run calls.
// The optional bounded artifact cache (see Cache) exploits exactly that
// property to share compilations across requests.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"bigfoot/internal/analysis"
	"bigfoot/internal/bfj"
	"bigfoot/internal/detector"
	"bigfoot/internal/instrument"
	"bigfoot/internal/interp"
	"bigfoot/internal/metrics"
	"bigfoot/internal/proxy"
	"bigfoot/internal/trace"
)

// placement is a check-placement strategy: the static half of a
// detector variant.
type placement int

const (
	everyAccess placement = iota // a check at every heap access
	redCard                      // minus checks redundant within a release-free span
	bigFoot                      // the full static analysis: deferred, eliminated, coalesced
)

// variantTable is Figure 2 of the paper, and the only definition of a
// detector variant in the system: each row names a variant, its check
// placement, and whether its detector defers array checks through
// per-thread footprints onto compressed shadow state (SlimState §4).
// Field proxies follow from the placement: the RedCard and BigFoot
// placements compute them, the every-access placement does not.
var variantTable = []struct {
	name       string
	placement  placement
	footprints bool
}{
	{"FT", everyAccess, false},
	{"RC", redCard, false},
	{"SS", everyAccess, true},
	{"SC", redCard, true},
	{"BF", bigFoot, true},
}

// VariantNames lists the five detector variants in the paper's order
// (Figure 2).  These short names are the engine's canonical variant
// identifiers; clients map their own naming (facade modes, service
// request fields) onto them.
var VariantNames = func() []string {
	names := make([]string, len(variantTable))
	for i, row := range variantTable {
		names[i] = row.name
	}
	return names
}()

// BaseVariant names the uninstrumented configuration: Artifact.Base,
// its outcomes and metrics, and recorded trace headers.  It is not a
// detector variant name; Run builds no detector for it.
const BaseVariant = "base"

// lookupVariant returns the variantTable row index for name, or -1
// when name is not a detector variant.
func lookupVariant(name string) int {
	for i, row := range variantTable {
		if row.name == name {
			return i
		}
	}
	return -1
}

// IsVariantName reports whether name is one of the five canonical
// detector variant names.
func IsVariantName(name string) bool { return lookupVariant(name) >= 0 }

// DetectorConfig is the one place a variant becomes a detector
// configuration: the named variant's footprint setting plus the proxy
// table its placement computed (nil for the every-access placement).
// It returns nil for BaseVariant and any other name that is not a
// detector variant.  Callers own the returned config and may set its
// diagnostic fields.
func DetectorConfig(name string, proxies *proxy.Table) *detector.Config {
	i := lookupVariant(name)
	if i < 0 {
		return nil
	}
	return &detector.Config{Name: name, Footprints: variantTable[i].footprints, Proxies: proxies}
}

// Logf is the engine's injectable logging seam.  The engine never
// writes to any stream on its own: a nil Logf discards, and clients
// that want progress noise (the CLIs log to stderr, the daemon to its
// request logger) inject their own sink.  This keeps long-lived hosts'
// stdout clean by construction.
type Logf func(format string, args ...any)

// Options configures an Engine.
type Options struct {
	// CacheSize bounds the artifact cache in entries; 0 disables
	// caching (every BuildSource compiles).
	CacheSize int
	// Logf receives diagnostic lines (cache hits/misses/evictions,
	// build failures).  nil discards.
	Logf Logf
	// Metrics receives the engine's instruments: build/run latency
	// histograms, outcome and cache counters.  nil meters into detached
	// instruments (no exposition, negligible cost).  Deterministic
	// counters are folded in only after each run completes, so
	// attaching a registry never perturbs signatures.
	Metrics *metrics.Registry
}

// Engine builds and runs detection sessions.  The zero value is not
// usable; construct with New.
type Engine struct {
	cache *Cache
	logf  Logf
	m     engineMetrics
}

// New creates an engine.
func New(opts Options) *Engine {
	e := &Engine{logf: opts.Logf, m: newEngineMetrics(opts.Metrics)}
	if e.logf == nil {
		e.logf = func(string, ...any) {}
	}
	if opts.CacheSize > 0 {
		e.cache = NewCacheMetered(opts.CacheSize, opts.Metrics)
	}
	return e
}

// Cache returns the engine's artifact cache, or nil when caching is
// disabled.
func (e *Engine) Cache() *Cache { return e.cache }

// Placement is a program instrumented for one detector variant but not
// yet compiled: the check-carrying AST, the proxy table (nil for
// variants without static field proxies), and the placement cost.  For
// the BF variant Stats carries the full static analysis's cost; the
// static instrumenters (FT/SS every access, RC/SC RedCard) fill only
// ChecksPlaced.
type Placement struct {
	Name    string
	Prog    *bfj.Program
	Proxies *proxy.Table
	Stats   analysis.Stats
}

// InstrumentFor places race checks on base according to the named
// variant's placement strategy; BaseVariant (or any name that is not a
// detector variant) places none.  The base AST is not mutated.
func InstrumentFor(base *bfj.Program, name string) *Placement {
	p := &Placement{Name: name, Prog: base}
	i := lookupVariant(name)
	if i < 0 {
		return p
	}
	switch variantTable[i].placement {
	case everyAccess:
		prog, st := instrument.EveryAccess(base)
		p.Prog = prog
		p.Stats.ChecksPlaced = st.ChecksInserted
	case redCard:
		prog, st := instrument.RedCard(base)
		p.Prog = prog
		p.Stats.ChecksPlaced = st.ChecksInserted
		p.Proxies = proxy.Analyze(prog)
	case bigFoot:
		an := analysis.New(base, analysis.DefaultOptions())
		p.Prog = an.Instrument()
		p.Stats = an.Stats
		p.Proxies = proxy.Analyze(p.Prog)
	}
	return p
}

// Variant is one compiled configuration: the execution artifact plus
// everything Run needs to assemble its detector (none for the
// BaseVariant).  It is immutable and goroutine-safe.
type Variant struct {
	Name     string
	Compiled *interp.Compiled
	Proxies  *proxy.Table
	Stats    analysis.Stats
	prog     *bfj.Program
}

// Program returns the instrumented AST the variant was compiled from
// (for rendering; must not be mutated).
func (v *Variant) Program() *bfj.Program { return v.prog }

// Compile lowers the placement into a runnable Variant.
func (p *Placement) Compile() (*Variant, error) {
	c, err := interp.Compile(p.Prog)
	if err != nil {
		return nil, err
	}
	return p.variant(p.Name, c), nil
}

// variant wraps a compilation of the placement as the named variant.
func (p *Placement) variant(name string, c *interp.Compiled) *Variant {
	return &Variant{
		Name:     name,
		Compiled: c,
		Proxies:  p.Proxies,
		Stats:    p.Stats,
		prog:     p.Prog,
	}
}

// BuildTimings records the wall-clock cost of the three preparation
// stages.  Instrument covers every requested placement including proxy
// analysis; Compile covers every variant plus the base artifact.
type BuildTimings struct {
	Parse      time.Duration
	Instrument time.Duration
	Compile    time.Duration
}

// BuildSpec selects what an Artifact contains.
type BuildSpec struct {
	// Variants is the requested detector set (canonical names, any
	// order); nil or empty requests all five.
	Variants []string
	// WithBase additionally compiles the uninstrumented program (for
	// overhead baselines).
	WithBase bool
}

// NormalizeVariants validates and normalizes a requested variant set
// into the paper's canonical order, deduplicating.  nil or empty
// requests all five.
func NormalizeVariants(req []string) ([]string, error) {
	if len(req) == 0 {
		return VariantNames, nil
	}
	want := map[string]bool{}
	for _, n := range req {
		if !IsVariantName(n) {
			return nil, &UsageError{Msg: "unknown detector variant " + n}
		}
		want[n] = true
	}
	out := make([]string, 0, len(want))
	for _, n := range VariantNames {
		if want[n] {
			out = append(out, n)
		}
	}
	return out, nil
}

// UsageError marks a request the engine rejected before doing any work
// (unknown variant, unparsable spec).  Clients map it to their usage
// exit code / HTTP 400.
type UsageError struct{ Msg string }

func (e *UsageError) Error() string { return e.Msg }

// Artifact is the compile-once product of one program: the requested
// detector variants (paper order) and optionally the uninstrumented
// base, a BaseVariant kept out of Variants.  It is immutable and
// goroutine-safe; one artifact backs any number of concurrent Run
// calls.
type Artifact struct {
	// Hash is the content address of the source this artifact was built
	// from (empty when built from a bare AST).
	Hash string
	// Stats is the BigFoot placement's analysis cost (zero when BF was
	// not requested).
	Stats   analysis.Stats
	Timings BuildTimings

	Base     *Variant
	Variants []*Variant

	byName map[string]*Variant

	// Rebuild provenance for cache persistence (Cache.SaveIndex):
	// artifacts built through BuildSource remember the exact inputs that
	// produced them, so a saved index can re-derive them after a
	// restart.  Empty for artifacts built from a bare AST.
	src         string
	srcVariants []string
	srcWithBase bool
}

// Variant returns the named variant, or nil when the artifact was built
// without it.
func (a *Artifact) Variant(name string) *Variant { return a.byName[name] }

// BuildAST instruments and compiles base for the requested variant set.
// Variants whose variantTable rows share a placement share one
// instrumented AST and one compilation: FT+SS both run on the
// every-access placement, RC+SC on the RedCard placement.
func (e *Engine) BuildAST(base *bfj.Program, spec BuildSpec) (*Artifact, error) {
	names, err := NormalizeVariants(spec.Variants)
	if err != nil {
		return nil, err
	}
	art := &Artifact{byName: map[string]*Variant{}}

	instStart := time.Now()
	placements := make(map[string]*Placement, len(names))
	shared := map[placement]*Placement{}
	for _, n := range names {
		kind := variantTable[lookupVariant(n)].placement
		p := shared[kind]
		if p == nil {
			p = InstrumentFor(base, n)
			shared[kind] = p
		}
		placements[n] = p
		if kind == bigFoot {
			art.Stats = p.Stats
		}
	}
	art.Timings.Instrument = time.Since(instStart)

	compStart := time.Now()
	defer func() { art.Timings.Compile = time.Since(compStart) }()
	type built struct {
		c *interp.Compiled
		d time.Duration
	}
	compiled := map[*Placement]built{}
	for _, n := range names {
		p := placements[n]
		b, ok := compiled[p]
		if !ok {
			one := time.Now()
			c, cerr := interp.Compile(p.Prog)
			if cerr != nil {
				return nil, &BuildError{Variant: n, Err: cerr}
			}
			b = built{c: c, d: time.Since(one)}
			compiled[p] = b
		}
		e.m.buildSeconds.With(n).ObserveDuration(b.d)
		v := p.variant(n, b.c)
		art.Variants = append(art.Variants, v)
		art.byName[n] = v
	}
	if spec.WithBase {
		one := time.Now()
		v, err := InstrumentFor(base, BaseVariant).Compile()
		if err != nil {
			return nil, &BuildError{Variant: BaseVariant, Err: err}
		}
		e.m.buildSeconds.With(BaseVariant).ObserveDuration(time.Since(one))
		art.Base = v
	}
	return art, nil
}

// BuildError reports a failed program preparation: parse or compile, of
// one variant or the base.  Clients map it to their workload-failure
// exit code / HTTP 422 — the program, not the service, is at fault.
type BuildError struct {
	Variant string // "parse", "base", or a variant name
	Err     error
}

func (e *BuildError) Error() string { return e.Variant + ": " + e.Err.Error() }
func (e *BuildError) Unwrap() error { return e.Err }

// BuildSource parses src and builds its artifact, consulting the
// artifact cache when the engine has one.  The boolean reports a cache
// hit.  Cached artifacts are shared across callers — safe because
// artifacts are immutable — and keep the timings of their original
// build.
func (e *Engine) BuildSource(src string, spec BuildSpec) (*Artifact, bool, error) {
	names, err := NormalizeVariants(spec.Variants)
	if err != nil {
		return nil, false, err
	}
	spec.Variants = names
	build := func() (*Artifact, error) {
		parseStart := time.Now()
		base, err := bfj.Parse(src)
		parse := time.Since(parseStart)
		if err != nil {
			return nil, &BuildError{Variant: "parse", Err: err}
		}
		art, err := e.BuildAST(base, spec)
		if err != nil {
			return nil, err
		}
		art.Hash = SourceHash(src)
		art.Timings.Parse = parse
		art.src = src
		art.srcVariants = names
		art.srcWithBase = spec.WithBase
		return art, nil
	}
	if e.cache == nil {
		art, err := build()
		return art, false, err
	}
	key := CacheKey(src, names, spec.WithBase)
	art, hit, err := e.cache.GetOrBuild(key, build)
	if err != nil {
		return nil, false, err
	}
	if hit {
		e.logf("engine: cache hit %s", key)
	} else {
		e.logf("engine: cache miss %s (compiled %d variants)", key, len(art.Variants))
	}
	return art, hit, nil
}

// RunSpec configures one execution.
type RunSpec struct {
	// Seed drives the deterministic thread schedule.
	Seed int64
	// MaxSteps bounds the execution's interpreted steps (0 = interpreter
	// default).  Exceeding it fails the run with interp.ErrStepLimit.
	MaxSteps uint64
	// Timeout bounds the execution's wall-clock time (0 = none); it
	// layers a deadline onto the caller's context.
	Timeout time.Duration
	// Out receives print-statement output (nil discards).
	Out io.Writer
	// Record, when non-nil, persists the execution's hook stream in the
	// compressed trace format (trace.Writer) for offline replay, the
	// only trace a live run records.  The engine writes header, chunks,
	// and footer; the caller owns the underlying writer.
	Record io.Writer
	// RecordMeta labels a recorded trace's header (ignored when Record
	// is nil).
	RecordMeta RecordMeta
	// DebugCensus cross-checks the incremental space census (slow;
	// diagnostic only).
	DebugCensus bool
}

// RecordMeta is the workload identity stamped into a recorded trace's
// header alongside the variant and budgets.
type RecordMeta struct {
	// Program and Suite label the workload.
	Program string
	Suite   string
	// Bodies and Placed are the static placement stats (methods
	// analyzed, BigFoot checks inserted) the harness reports.
	Bodies int
	Placed int
}

// Outcome is the structured result of one execution: wall-clock cost,
// the interpreter's deterministic counters, the detector's dynamic cost
// and findings.  For base (uninstrumented) runs the detector fields
// stay zero.
type Outcome struct {
	Variant  string
	Duration time.Duration
	Counters interp.Counters

	ShadowOps    uint64
	FootprintOps uint64
	PeakWords    uint64
	Races        []detector.Race
	ArrayModes   map[string]int

	// FieldChecks and ArrayChecks split the executed check items into
	// field and array checks (the Figure 8 split).
	FieldChecks uint64
	ArrayChecks uint64

	// FastPaths counts the detector's epoch-level fast-path hits and
	// adaptive read-metadata transitions.
	FastPaths detector.FastPathStats
}

// newDetection builds one execution's detector and hook chain, leaving
// out nil stages: the BFTR writer (Run), then the ring recorder
// (Replay; each check event is recorded before the observer events the
// detector derives from it), then the detector.  A nil cfg is the base
// configuration: no detector, and d is nil.
func newDetection(cfg *detector.Config, tw *trace.Writer, rec *trace.Recorder) (d *detector.Detector, hook interp.Hook) {
	hooks := make([]interp.Hook, 0, 3)
	if tw != nil {
		hooks = append(hooks, tw)
	}
	if rec != nil {
		hooks = append(hooks, rec)
	}
	if cfg != nil {
		d = detector.New(*cfg)
		if rec != nil {
			d.SetObserver(rec)
		}
		hooks = append(hooks, d)
	}
	return d, interp.Tee(hooks...)
}

// fillDetector copies the detector's findings and dynamic cost into
// out; a nil detector (base run) leaves the fields zero.
func fillDetector(out *Outcome, d *detector.Detector) {
	if d == nil {
		return
	}
	out.ShadowOps = d.Stats.ShadowOps
	out.FootprintOps = d.Stats.FootprintOps
	out.PeakWords = d.Stats.PeakWords
	out.Races = d.Races()
	out.ArrayModes = d.ArrayModes()
	out.FieldChecks = d.Stats.FieldChecks
	out.ArrayChecks = d.Stats.ArrayChecks
	out.FastPaths = d.Stats.Fast
}

// Run executes one variant — or the uninstrumented base, which runs
// without a detector — under the budgets.  This is the single execution
// path of the system: detector construction, hook assembly (BFTR
// recording), budget enforcement, and outcome extraction all live here.
// The returned Outcome is populated (with whatever completed) even when
// err is non-nil, so batch clients can attribute partial work.
func (e *Engine) Run(ctx context.Context, v *Variant, spec RunSpec) (*Outcome, error) {
	var tw *trace.Writer
	if spec.Record != nil {
		var err error
		tw, err = trace.NewWriter(spec.Record, trace.Header{
			Program:  spec.RecordMeta.Program,
			Suite:    spec.RecordMeta.Suite,
			Variant:  v.Name,
			ProxyRep: v.Proxies.Pairs(),
			Seed:     spec.Seed,
			MaxSteps: spec.MaxSteps,
			Bodies:   spec.RecordMeta.Bodies,
			Placed:   spec.RecordMeta.Placed,
		})
		if err != nil {
			return &Outcome{Variant: v.Name}, fmt.Errorf("trace record: %w", err)
		}
	}
	cfg := DetectorConfig(v.Name, v.Proxies)
	if cfg != nil {
		cfg.DebugCensus = spec.DebugCensus
	}
	d, hook := newDetection(cfg, tw, nil)
	if spec.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, spec.Timeout)
		defer cancel()
	}
	start := time.Now()
	cnt, err := v.Compiled.RunContext(ctx, hook, interp.Options{
		Seed:     spec.Seed,
		Out:      spec.Out,
		MaxSteps: spec.MaxSteps,
	})
	out := &Outcome{Variant: v.Name, Duration: time.Since(start), Counters: cnt}
	if tw != nil {
		if werr := tw.Close(out.Counters, err); werr != nil && err == nil {
			err = fmt.Errorf("trace record: %w", werr)
		}
	}
	fillDetector(out, d)
	e.observeRun(v.Name, out, err)
	return out, err
}

// IsBudget reports whether err is budget exhaustion — a cancelled or
// expired deadline, or the interpreter's step limit — as opposed to a
// fault of the program (runtime error, deadlock) or of the service.
// The service layer audits the two classes under different error codes.
func IsBudget(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, interp.ErrStepLimit)
}
