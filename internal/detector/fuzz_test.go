package detector

import (
	"math/rand"
	"testing"

	"bigfoot/internal/analysis"
	"bigfoot/internal/bfgen"
	"bigfoot/internal/bfj"
	"bigfoot/internal/instrument"
	"bigfoot/internal/interp"
	"bigfoot/internal/proxy"
)

// TestFuzzTracePrecision draws random programs from the bfgen grammar
// (fork/join, nested and strided loops, field groups, aliasing,
// volatiles, lock nests, method calls) and verifies, for every detector
// and several schedules, that a race is reported exactly when the
// oracle observes one.  On any disagreement the failing program source
// and the interpreter seed are logged, so the failure reproduces from
// the test output alone; the full differential harness (cross-detector
// invariants, metamorphic oracles, shrinking) lives in
// internal/difftest.
func TestFuzzTracePrecision(t *testing.T) {
	nProgs := 40
	if testing.Short() {
		nProgs = 8
	}
	rng := rand.New(rand.NewSource(20260704))
	for p := 0; p < nProgs; p++ {
		g := bfgen.Generate(rng, bfgen.DefaultConfig())
		src := g.Source
		base, err := bfj.Parse(src)
		if err != nil {
			t.Fatalf("generated program does not parse: %v\n%s", err, src)
		}
		every, _ := instrument.EveryAccess(base)
		red, _ := instrument.RedCard(base)
		big := analysis.New(base, analysis.DefaultOptions()).Instrument()
		redProx := proxy.Analyze(red)
		bigProx := proxy.Analyze(big)
		vs := []variant{
			{"FT", every, nil}, {"RC", red, nil}, {"SS", every, nil},
			{"SC", red, nil}, {"BF", big, nil},
		}
		cfgs := []Config{
			{Name: "FT"},
			{Name: "RC", Proxies: redProx},
			{Name: "SS", Footprints: true},
			{Name: "SC", Footprints: true, Proxies: redProx},
			{Name: "BF", Footprints: true, Proxies: bigProx},
		}
		for vi, v := range vs {
			for seed := int64(0); seed < 3; seed++ {
				d := New(cfgs[vi])
				o := NewOracle()
				if _, err := interp.Run(v.prog, interp.Tee(d, o), interp.Options{Seed: seed}); err != nil {
					t.Fatalf("prog %d %s seed %d: %v\n%s", p, v.name, seed, err, src)
				}
				oHas, dHas := o.HasRaces(), d.RaceCount() > 0
				if oHas != dHas {
					t.Errorf("prog %d detector %s: oracle=%v detector=%v\noracle: %v\ndetector: %v\ninterpreter seed: %d\nprogram source:\n%s\ninstrumented:\n%s",
						p, v.name, oHas, dHas, o.RacyDescs(), d.SortedRaceDescs(),
						seed, src, bfj.FormatProgram(v.prog))
					return
				}
				// Empirical address precision: every reported location
				// is genuinely racy per the oracle.  Field locations are
				// exact when proxies are off; array reports must contain
				// at least one racy element.
				for _, r := range d.Races() {
					if r.ArrayID >= 0 {
						hit := false
						for i := r.Lo; i < r.Hi; i += maxStep(r.Step) {
							if o.IndexRacy(r.ArrayID, i) {
								hit = true
								break
							}
						}
						if !hit {
							t.Errorf("prog %d detector %s: reported array race %s has no racy element\ninterpreter seed: %d\nprogram source:\n%s",
								p, v.name, r.Desc, seed, src)
							return
						}
					} else if cfgs[vi].Proxies == nil {
						if !o.FieldRacy(r.ObjID, r.ClassTag, r.Field) {
							t.Errorf("prog %d detector %s: reported field race %s not racy per oracle\ninterpreter seed: %d\nprogram source:\n%s",
								p, v.name, r.Desc, seed, src)
							return
						}
					}
				}
			}
		}
	}
}

func maxStep(s int) int {
	if s < 1 {
		return 1
	}
	return s
}
