package bigfoot_test

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"bigfoot"
)

// TestQuickstartProvenanceGolden pins the two-sited race report on the
// quickstart example: the race on Counter#0.hits is between the two
// `c.hits = h + 1;` statements — line 8 in the first thread and line 14
// in the second thread of examples/quickstart/quickstart.bfj.  Which
// site is "earlier" depends on the schedule, but the site pair is the
// same on every seed.
func TestQuickstartProvenanceGolden(t *testing.T) {
	src, err := os.ReadFile("examples/quickstart/quickstart.bfj")
	if err != nil {
		t.Fatal(err)
	}
	inst := bigfoot.MustParse(string(src)).Instrument(bigfoot.BigFoot)
	for seed := int64(0); seed < 4; seed++ {
		rep, err := inst.Run(bigfoot.RunConfig{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(rep.Races) != 1 {
			t.Fatalf("seed %d: races = %v, want exactly 1", seed, rep.Races)
		}
		r := rep.Races[0]
		if r.Location != "Counter#0.hits" {
			t.Errorf("seed %d: location = %q", seed, r.Location)
		}
		if !r.PrevWrite || !r.CurWrite {
			t.Errorf("seed %d: kinds = prevWrite=%v curWrite=%v, want write/write", seed, r.PrevWrite, r.CurWrite)
		}
		lines := map[int]bool{r.PrevPos.Line: true, r.CurPos.Line: true}
		if !lines[8] || !lines[14] {
			t.Errorf("seed %d: sites = %s and %s, want lines 8 and 14", seed, r.PrevPos, r.CurPos)
		}
		if r.PrevPos.Col != 5 || r.CurPos.Col != 5 {
			t.Errorf("seed %d: columns = %d and %d, want 5 and 5", seed, r.PrevPos.Col, r.CurPos.Col)
		}
	}
}

// TestRaceProvenanceAllModes: every detector mode reports the same site
// pair with valid positions on a minimal racy program (writes on lines
// 4 and 5).
func TestRaceProvenanceAllModes(t *testing.T) {
	prog := bigfoot.MustParse(racySrc)
	for _, m := range []bigfoot.Mode{
		bigfoot.FastTrack, bigfoot.RedCard, bigfoot.SlimState,
		bigfoot.SlimCard, bigfoot.BigFoot,
	} {
		rep, err := prog.Instrument(m).Run(bigfoot.RunConfig{Seed: 0})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(rep.Races) != 1 {
			t.Fatalf("%s: races = %v", m, rep.Races)
		}
		r := rep.Races[0]
		if !r.PrevPos.IsValid() || !r.CurPos.IsValid() {
			t.Errorf("%s: missing provenance: %+v", m, r)
			continue
		}
		lines := map[int]bool{r.PrevPos.Line: true, r.CurPos.Line: true}
		if !lines[4] || !lines[5] {
			t.Errorf("%s: sites = %s and %s, want lines 4 and 5", m, r.PrevPos, r.CurPos)
		}
		if !r.PrevWrite || !r.CurWrite {
			t.Errorf("%s: want a write/write race, got %+v", m, r)
		}
	}
}

// TestPointmoveRaceFree pins the paper's Figure 1 example: the two
// threads move disjoint halves of the array, so no detector mode may
// report a race on any probed schedule.
func TestPointmoveRaceFree(t *testing.T) {
	src, err := os.ReadFile("testdata/pointmove.bfj")
	if err != nil {
		t.Fatal(err)
	}
	inst := bigfoot.MustParse(string(src)).Instrument(bigfoot.BigFoot)
	for seed := int64(0); seed < 4; seed++ {
		rep, err := inst.Run(bigfoot.RunConfig{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(rep.Races) != 0 {
			t.Errorf("seed %d: false races: %v", seed, rep.Races)
		}
	}
}

// TestRecordChromeView: recording a run changes no reported number, and
// replaying the recording renders a valid Chrome export with the
// program's threads.
func TestRecordChromeView(t *testing.T) {
	inst := bigfoot.MustParse(racySrc).Instrument(bigfoot.BigFoot)
	plain, err := inst.Run(bigfoot.RunConfig{Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	var recording bytes.Buffer
	traced, err := inst.Run(bigfoot.RunConfig{Seed: 0, Record: &recording})
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.Races) != len(plain.Races) ||
		traced.Checks != plain.Checks ||
		traced.ShadowOps != plain.ShadowOps ||
		traced.FootprintOps != plain.FootprintOps {
		t.Errorf("recording changed results: %+v vs %+v", traced, plain)
	}
	var buf bytes.Buffer
	if _, _, err := bigfoot.ReplayTrace(&recording, &buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("Chrome export is not valid JSON")
	}
	var doc struct {
		TraceEvents []struct {
			Phase string `json:"ph"`
			TID   int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	lanes := 0
	for _, e := range doc.TraceEvents {
		if e.Phase == "M" {
			lanes++
		}
	}
	if len(doc.TraceEvents) == lanes {
		t.Fatal("Chrome export holds no events")
	}
	if lanes < 3 {
		t.Errorf("thread lanes = %d, want main + two workers", lanes)
	}
}
