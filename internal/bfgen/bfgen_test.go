package bfgen

import (
	"math/rand"
	"strings"
	"testing"

	"bigfoot/internal/bfj"
	"bigfoot/internal/interp"
)

// TestGeneratedProgramsParseAndRun: every rendering of every generated
// program parses and executes without runtime errors on several seeds.
func TestGeneratedProgramsParseAndRun(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 10
	}
	for seed := int64(0); seed < int64(n); seed++ {
		p := New(seed)
		for name, src := range map[string]string{
			"plain": p.Source, "locked": p.Locked(), "serialized": p.Serialized(),
		} {
			prog, err := bfj.Parse(src)
			if err != nil {
				t.Fatalf("seed %d %s: parse: %v\n%s", seed, name, err, src)
			}
			for sched := int64(0); sched < 2; sched++ {
				if _, err := interp.Run(prog, interp.NopHook{}, interp.Options{Seed: sched}); err != nil {
					t.Fatalf("seed %d %s sched %d: run: %v\n%s", seed, name, sched, err, src)
				}
			}
		}
	}
}

// TestDeterministic: generation is a pure function of the seed.
func TestDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a, b := New(seed), New(seed)
		if a.Source != b.Source || a.Locked() != b.Locked() || a.Serialized() != b.Serialized() {
			t.Fatalf("seed %d: generation not deterministic", seed)
		}
		if a.ScheduleSensitive != b.ScheduleSensitive {
			t.Fatalf("seed %d: sensitivity flag not deterministic", seed)
		}
	}
}

// TestGrammarCoverage: across a modest seed range, every production of
// the grammar appears at least once.
func TestGrammarCoverage(t *testing.T) {
	var all strings.Builder
	sensitive, insensitive := false, false
	for seed := int64(0); seed < 200; seed++ {
		p := New(seed)
		all.WriteString(p.Source)
		if p.ScheduleSensitive {
			sensitive = true
		} else {
			insensitive = true
		}
	}
	text := all.String()
	for _, marker := range []string{
		"fork ",        // fork/join production
		".addTo(",      // grouped Vec fields
		".bump(",       // unlocked method call
		".lockedBump(", // locked method call
		".total(",      // forked array-reading method
		"acquire lb",   // second lock / nested region
		".flag",        // volatile publication
		"= vs[",        // aliasing through the reference array
		"o3.",          // static alias accesses
		"+ 2)",         // non-unit stride
		"if (",         // branches
		".peek(",       // read-shared churn (promotion + demotion)
		"    acquire ", // lock-protected ownership loop (indented body)
		"= sb",         // same-thread access burst
	} {
		if !strings.Contains(text, marker) {
			t.Errorf("no generated program used production %q", marker)
		}
	}
	if !sensitive || !insensitive {
		t.Errorf("seed range produced sensitive=%v insensitive=%v, want both", sensitive, insensitive)
	}
}

// TestConfigNoVolatiles: the NoVolatiles toggle removes the only
// schedule-sensitive production.
func TestConfigNoVolatiles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoVolatiles = true
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		p := Generate(rng, cfg)
		if p.ScheduleSensitive || strings.Contains(p.Source, ".flag") {
			t.Fatalf("NoVolatiles program is schedule-sensitive:\n%s", p.Source)
		}
	}
}

// TestLockedWrapsEveryGroup: the locked variant holds gl around every
// top-level group (balanced acquire/release counts, one per group).
func TestLockedWrapsEveryGroup(t *testing.T) {
	p := New(3)
	groups := 0
	for _, th := range p.threads {
		groups += len(th)
	}
	locked := p.Locked()
	if got := strings.Count(locked, "acquire gl;"); got != groups {
		t.Errorf("acquire gl count = %d, want %d", got, groups)
	}
	if got := strings.Count(locked, "release gl;"); got != groups {
		t.Errorf("release gl count = %d, want %d", got, groups)
	}
	if strings.Contains(p.Source, "acquire gl;") {
		t.Error("plain rendering must not touch gl")
	}
}
