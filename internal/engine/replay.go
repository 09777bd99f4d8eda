package engine

import (
	"fmt"
	"io"
	"time"

	"bigfoot/internal/proxy"
	"bigfoot/internal/trace"
)

// Replayed is the result of one trace replay: the recorded identity
// plus a fully populated Outcome — interpreter counters from the
// trace's footer, detector findings and costs re-derived by running the
// real detector over the replayed stream.
type Replayed struct {
	Header trace.Header
	// Outcome mirrors a live run's outcome.  Duration is the replay's
	// own wall-clock time (detection only — no interpretation), which is
	// exactly what an events/sec throughput metric wants.
	Outcome *Outcome
	// Events is the number of hook events replayed.
	Events uint64
	// RunErr is the recorded run's own failure (step limit, timeout,
	// fault), reconstructed from the footer; nil when the run succeeded.
	RunErr error
}

// Replay feeds a recorded trace through a detector without
// re-interpreting the program.  The stream is observationally identical
// to the live run's hook stream, and the detector and its hook chain
// are assembled exactly as Run assembles them, so every deterministic
// detector value (shadow ops, footprint ops, peak words, races, array
// modes, the field/array check split, fast-path hits) is reproduced
// exactly; interpreter counters come from the trace footer.
//
// Base traces (variant "base") replay without a detector and reproduce
// the base counters.
//
// A non-nil rec receives the stream ahead of the detector and observes
// it, as a Recorder wired into the live run would: it renders the
// execution's Chrome view.
func Replay(r io.Reader, rec *trace.Recorder) (*Replayed, error) {
	rd, err := trace.NewReader(r)
	if err != nil {
		return nil, err
	}
	hdr := rd.Header()
	cfg := DetectorConfig(hdr.Variant, proxy.FromPairs(hdr.ProxyRep))
	if cfg == nil && hdr.Variant != BaseVariant {
		return nil, fmt.Errorf("trace records unknown variant %q", hdr.Variant)
	}
	res := &Replayed{Header: hdr, Outcome: &Outcome{Variant: hdr.Variant}}
	d, hook := newDetection(cfg, nil, rec)

	start := time.Now()
	n, err := rd.Replay(hook)
	res.Outcome.Duration = time.Since(start)
	res.Events = n
	if err != nil {
		return res, err
	}
	ftr := rd.Footer()
	res.Outcome.Counters = ftr.Counters
	if ftr.Err != "" {
		res.RunErr = fmt.Errorf("recorded run failed: %s", ftr.Err)
	}
	fillDetector(res.Outcome, d)
	return res, nil
}
