// Package trace records executions and renders them.  A live run
// records one artifact, the compressed BFTR stream of its interp.Hook
// events (Writer; see format.go).  The Chrome view is a replay
// consumer: engine.Replay feeds the bounded ring Recorder the replayed
// stream plus the detector-side dynamics (footprint commits, array-mode
// refinements, shadow-state transitions), and WriteChrome exports it as
// Chrome trace_event JSON viewable in Perfetto or chrome://tracing.
// Replay is sequential, so the Recorder needs no locking and its order
// is the deterministic execution order of the recorded seed.
package trace

import (
	"fmt"
	"strings"

	"bigfoot/internal/bfj"
	"bigfoot/internal/interp"
)

// Event is one recorded execution event.
type Event struct {
	// Seq is the global step index of the event (0-based, monotonically
	// increasing across all threads — the serialized hook order).
	Seq uint64 `json:"seq"`
	// Thread is the acting thread id.
	Thread int `json:"thread"`
	// Op names the event kind: fork, thread-end, join, acquire, release,
	// vol-read, vol-write, read, write, check-fields, check-range,
	// finish, fp-commit, refine, read-shared.
	Op string `json:"op"`
	// Write distinguishes write accesses/checks (false for pure reads
	// and for ops where the distinction is meaningless).
	Write bool `json:"write,omitempty"`
	// Target describes the accessed location or peer thread, e.g.
	// "Counter#1.hits", "array#0[2..10:2]", "T3".
	Target string `json:"target,omitempty"`
	// Pos is the source position (set) of the access or check,
	// "line:col" or "l1:c1 l2:c2 ..."; empty when unknown.
	Pos string `json:"pos,omitempty"`
}

// DefaultCapacity is the ring-buffer capacity used when NewRecorder is
// given a non-positive capacity: large enough for the bundled workloads'
// interesting suffix, small enough to keep recording allocation-free
// after warm-up.
const DefaultCapacity = 1 << 16

// Recorder is a bounded ring-buffer event recorder implementing
// interp.Hook and the detector's Observer callbacks.  When the buffer is
// full the oldest events are overwritten (the tail of an execution is
// what explains a race found at the end); Dropped reports how many were
// lost.  It must only be attached to one execution at a time.
type Recorder struct {
	interp.NopHook

	buf     []Event
	seq     uint64 // next sequence number == total events recorded
	dropped uint64
}

// NewRecorder creates a recorder holding at most capacity events
// (DefaultCapacity if capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{buf: make([]Event, 0, capacity)}
}

func (r *Recorder) record(e Event) {
	e.Seq = r.seq
	r.seq++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	// Ring overwrite: slot of the oldest event.  Reduce in uint64 before
	// converting — int(e.Seq)%cap would go negative (and panic indexing)
	// once seq no longer fits in int.
	r.buf[int(e.Seq%uint64(cap(r.buf)))] = e
	r.dropped++
}

// Events returns the recorded events oldest-first.  The slice is a copy.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	if r.dropped == 0 {
		return append(out, r.buf...)
	}
	// Buffer full and wrapped: the oldest event sits right after the
	// newest one.  Same uint64 reduction as record: int(r.seq)%cap is
	// negative once seq exceeds MaxInt.
	start := int(r.seq % uint64(cap(r.buf)))
	out = append(out, r.buf[start:]...)
	return append(out, r.buf[:start]...)
}

// Len returns the number of buffered events.
func (r *Recorder) Len() int { return len(r.buf) }

// Dropped returns how many events were overwritten by the ring.
func (r *Recorder) Dropped() uint64 { return r.dropped }

// Threads returns the sorted set of thread ids appearing in the buffer.
func (r *Recorder) Threads() []int {
	seen := map[int]bool{}
	for _, e := range r.buf {
		seen[e.Thread] = true
	}
	out := make([]int, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	for i := 1; i < len(out); i++ { // insertion sort: thread counts are tiny
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func objTarget(o *interp.Object, field string) string {
	return fmt.Sprintf("%s#%d.%s", o.Class.Name, o.ID, field)
}

// ---------------------------------------------------------------------------
// interp.Hook
// ---------------------------------------------------------------------------

// Fork implements interp.Hook.
func (r *Recorder) Fork(parent, child int) {
	r.record(Event{Thread: parent, Op: "fork", Target: fmt.Sprintf("T%d", child)})
}

// ThreadEnd implements interp.Hook.
func (r *Recorder) ThreadEnd(t int) { r.record(Event{Thread: t, Op: "thread-end"}) }

// Join implements interp.Hook.
func (r *Recorder) Join(parent, child int) {
	r.record(Event{Thread: parent, Op: "join", Target: fmt.Sprintf("T%d", child)})
}

// Acquire implements interp.Hook.
func (r *Recorder) Acquire(t int, lock *interp.Object) {
	r.record(Event{Thread: t, Op: "acquire", Target: fmt.Sprintf("%s#%d", lock.Class.Name, lock.ID)})
}

// Release implements interp.Hook.
func (r *Recorder) Release(t int, lock *interp.Object) {
	r.record(Event{Thread: t, Op: "release", Target: fmt.Sprintf("%s#%d", lock.Class.Name, lock.ID)})
}

// VolRead implements interp.Hook.
func (r *Recorder) VolRead(t int, o *interp.Object, field string) {
	r.record(Event{Thread: t, Op: "vol-read", Target: objTarget(o, field)})
}

// VolWrite implements interp.Hook.
func (r *Recorder) VolWrite(t int, o *interp.Object, field string) {
	r.record(Event{Thread: t, Op: "vol-write", Write: true, Target: objTarget(o, field)})
}

// ReadField implements interp.Hook.
func (r *Recorder) ReadField(t int, o *interp.Object, field string, pos bfj.Pos) {
	r.record(Event{Thread: t, Op: "read", Target: objTarget(o, field), Pos: posStr(pos)})
}

// WriteField implements interp.Hook.
func (r *Recorder) WriteField(t int, o *interp.Object, field string, pos bfj.Pos) {
	r.record(Event{Thread: t, Op: "write", Write: true, Target: objTarget(o, field), Pos: posStr(pos)})
}

// ReadIndex implements interp.Hook.
func (r *Recorder) ReadIndex(t int, a *interp.Array, i int, pos bfj.Pos) {
	r.record(Event{Thread: t, Op: "read", Target: fmt.Sprintf("array#%d[%d]", a.ID, i), Pos: posStr(pos)})
}

// WriteIndex implements interp.Hook.
func (r *Recorder) WriteIndex(t int, a *interp.Array, i int, pos bfj.Pos) {
	r.record(Event{Thread: t, Op: "write", Write: true, Target: fmt.Sprintf("array#%d[%d]", a.ID, i), Pos: posStr(pos)})
}

// CheckField implements interp.Hook.
func (r *Recorder) CheckField(t int, write bool, o *interp.Object, fc *interp.FieldCheck) {
	r.record(Event{Thread: t, Op: "check-fields", Write: write,
		Target: objTarget(o, strings.Join(fc.Fields, "/")), Pos: bfj.FormatPositions(fc.Poss)})
}

// CheckRange implements interp.Hook.
func (r *Recorder) CheckRange(t int, write bool, a *interp.Array, lo, hi, step int, poss []bfj.Pos) {
	r.record(Event{Thread: t, Op: "check-range", Write: write,
		Target: fmt.Sprintf("array#%d[%d..%d:%d]", a.ID, lo, hi, step), Pos: bfj.FormatPositions(poss)})
}

// Finish implements interp.Hook.
func (r *Recorder) Finish() { r.record(Event{Thread: 0, Op: "finish"}) }

// ---------------------------------------------------------------------------
// detector.Observer (satisfied structurally; no detector import)
// ---------------------------------------------------------------------------

// FootprintCommit records a detector footprint commit.
func (r *Recorder) FootprintCommit(t int, arrays, entries int) {
	r.record(Event{Thread: t, Op: "fp-commit",
		Target: fmt.Sprintf("%d arrays/%d entries", arrays, entries)})
}

// ArrayRefinement records an array shadow representation change.
func (r *Recorder) ArrayRefinement(t int, arrayID int, from, to string) {
	r.record(Event{Thread: t, Op: "refine",
		Target: fmt.Sprintf("array#%d %s->%s", arrayID, from, to)})
}

// ReadShared records a field shadow location going read-shared.
func (r *Recorder) ReadShared(t int, desc string) {
	r.record(Event{Thread: t, Op: "read-shared", Target: desc})
}

func posStr(p bfj.Pos) string {
	if !p.IsValid() {
		return ""
	}
	return p.String()
}
