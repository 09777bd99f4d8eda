package engine

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"bigfoot/internal/detector"
	"bigfoot/internal/interp"
	"bigfoot/internal/trace"
)

// recordVariant runs one variant with Record wired and returns the
// encoded trace alongside the live outcome.
func recordVariant(t *testing.T, e *Engine, v *Variant, seed int64) (*bytes.Buffer, *Outcome) {
	t.Helper()
	var buf bytes.Buffer
	out, err := e.Run(context.Background(), v, RunSpec{
		Seed:       seed,
		Record:     &buf,
		RecordMeta: RecordMeta{Program: "racy", Suite: "test"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &buf, out
}

// mixed exercises every detector path a replay must reproduce: field
// and array checks, same-epoch and lock fast paths, and a race.
const mixed = `class Cell { field v; }
setup {
  n = 16;
  a = newarray n;
  c = new Cell;
  m = new Cell;
}
thread {
  for (i = 0; i < 8; i = i + 1) {
    a[i] = i;
    y = a[i];
    a[i] = y + 1;
  }
  for (j = 0; j < 4; j = j + 1) {
    acquire m;
    x = m.v;
    m.v = x + 1;
    release m;
  }
  c.v = 1;
}
thread {
  for (i = 8; i < 16; i = i + 1) {
    a[i] = i;
    y = a[i];
    a[i] = y + 1;
  }
  for (j = 0; j < 4; j = j + 1) {
    acquire m;
    x = m.v;
    m.v = x + 1;
    release m;
  }
  c.v = 2;
}
`

// TestReplayReproducesLiveOutcome: for every variant plus base and
// several seeds, replaying a recorded trace reproduces every
// deterministic outcome field of the live run — counters, detector
// costs, races, array modes, the field/array check split, and the
// fast-path counts.  Only the wall-clock Duration may differ.
func TestReplayReproducesLiveOutcome(t *testing.T) {
	for _, src := range []string{racy, mixed} {
		e, art := buildAll(t, src)
		for _, v := range append([]*Variant{art.Base}, art.Variants...) {
			for _, seed := range []int64{0, 7} {
				buf, live := recordVariant(t, e, v, seed)
				rep, err := Replay(bytes.NewReader(buf.Bytes()), nil)
				if err != nil {
					t.Fatalf("%s seed %d: %v", v.Name, seed, err)
				}
				if rep.RunErr != nil {
					t.Fatalf("%s seed %d: replay reports run error %v", v.Name, seed, rep.RunErr)
				}
				if hdr := rep.Header; hdr.Variant != v.Name || hdr.Seed != seed || hdr.Program != "racy" {
					t.Errorf("%s seed %d: header = %+v", v.Name, seed, hdr)
				}
				got := *rep.Outcome
				want := *live
				got.Duration, want.Duration = 0, 0
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s seed %d: replayed outcome\n%+v\nwant live\n%+v", v.Name, seed, got, want)
				}
			}
		}
	}
}

// looper emits well over trace.DefaultCapacity events (70k writes
// alone), so a default-capacity Recorder wraps.
const looper = `class Cell { field v; }
setup { c = new Cell; }
thread {
  for (i = 0; i < 35000; i = i + 1) { c.v = i; }
}
thread {
  for (i = 0; i < 35000; i = i + 1) { c.v = i; }
}
`

// TestReplayRendersLiveChromeView: the Chrome view rendered from a
// replay is byte-identical to that of a Recorder wired into the live
// run ahead of the detector and observing it, for the base run and
// every variant, and for a run long enough to wrap the ring.
func TestReplayRendersLiveChromeView(t *testing.T) {
	e, art := buildAll(t, mixed)
	for _, v := range append([]*Variant{art.Base}, art.Variants...) {
		checkChromeReplay(t, e, v)
	}
	e, art = buildAll(t, looper)
	if live := checkChromeReplay(t, e, art.Variant("BF")); live.Dropped() == 0 {
		t.Errorf("looper: %d events did not wrap the ring", live.Len())
	}
}

// checkChromeReplay runs v live into a Recorder, records the same run
// through the engine, and compares the live Chrome view with the one
// Replay renders.  It returns the live recorder.
func checkChromeReplay(t *testing.T, e *Engine, v *Variant) *trace.Recorder {
	t.Helper()
	const seed = 7
	live := trace.NewRecorder(0)
	hook := interp.Hook(live)
	if cfg := DetectorConfig(v.Name, v.Proxies); cfg != nil {
		d := detector.New(*cfg)
		d.SetObserver(live)
		hook = interp.Tee(live, d)
	}
	if _, err := v.Compiled.Run(hook, interp.Options{Seed: seed}); err != nil {
		t.Fatalf("%s: live run: %v", v.Name, err)
	}
	buf, _ := recordVariant(t, e, v, seed)
	replayed := trace.NewRecorder(0)
	if _, err := Replay(bytes.NewReader(buf.Bytes()), replayed); err != nil {
		t.Fatalf("%s: replay: %v", v.Name, err)
	}
	var want, got bytes.Buffer
	if err := live.WriteChrome(&want); err != nil {
		t.Fatal(err)
	}
	if err := replayed.WriteChrome(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("%s: replayed Chrome view (%d bytes) differs from live (%d bytes)", v.Name, got.Len(), want.Len())
	}
	return live
}

// TestReplayBaseTrace: base traces carry variant "base", replay without
// a detector, and reproduce the base counters from the footer.
func TestReplayBaseTrace(t *testing.T) {
	e, art := buildAll(t, racy)
	var buf bytes.Buffer
	live, err := e.Run(context.Background(), art.Base, RunSpec{Seed: 2, Record: &buf})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Header.Variant != BaseVariant || rep.Header.ProxyRep != nil {
		t.Errorf("header = %+v, want variant %q with no proxies", rep.Header, BaseVariant)
	}
	if rep.Outcome.Counters != live.Counters {
		t.Errorf("counters %+v, want %+v", rep.Outcome.Counters, live.Counters)
	}
	if rep.Outcome.ShadowOps != 0 || len(rep.Outcome.Races) != 0 {
		t.Errorf("base replay grew detector state: %+v", rep.Outcome)
	}
}

// TestRecordFailedRun: budget-exhausted runs record a complete trace
// with a footer error; the replay reports it via RunErr while still
// reproducing the partial counters and detector state.
func TestRecordFailedRun(t *testing.T) {
	e, art := buildAll(t, spinner)
	v := art.Variant("BF")
	var buf bytes.Buffer
	live, err := e.Run(context.Background(), v, RunSpec{Seed: 0, MaxSteps: 5000, Record: &buf})
	if err == nil {
		t.Fatal("spinner under 5000 steps succeeded; want step-limit error")
	}
	rep, rerr := Replay(bytes.NewReader(buf.Bytes()), nil)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if rep.RunErr == nil {
		t.Error("replay of failed run reports no RunErr")
	}
	if rep.Outcome.Counters != live.Counters {
		t.Errorf("counters %+v, want %+v", rep.Outcome.Counters, live.Counters)
	}
	if rep.Outcome.ShadowOps != live.ShadowOps {
		t.Errorf("shadow ops %d, want %d", rep.Outcome.ShadowOps, live.ShadowOps)
	}
}

// TestPipelineDrainsOnError: when the run fails (step budget) the
// recorder still flushes everything the run emitted, so the trace is
// complete and consistent (it replays and carries the failure).
func TestPipelineDrainsOnError(t *testing.T) {
	e, art := buildAll(t, spinner)
	v := art.Variant("FT")
	var buf bytes.Buffer
	_, err := e.Run(context.Background(), v, RunSpec{Seed: 0, MaxSteps: 5000, Record: &buf})
	if err == nil {
		t.Fatal("want step-limit error")
	}
	rep, rerr := Replay(bytes.NewReader(buf.Bytes()), nil)
	if rerr != nil {
		t.Fatalf("trace from failed run does not replay: %v", rerr)
	}
	if rep.RunErr == nil {
		t.Error("replay misses the recorded failure")
	}
	if rep.Events == 0 {
		t.Error("no events drained into the trace")
	}
}
