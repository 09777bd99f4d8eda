package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced call into a layer: its name, its interval relative
// to the tracer's epoch, the span that caused it (0 for a root), and the
// request it belongs to.  Spans that wrap a single layer call also carry
// the runtime counters that call moved (RT, nil otherwise).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	RT     *rtStat       `json:"rt,omitempty"`

	rtStart rtStat
}

// tracer keeps spans in memory; they are written out once, at the end
// of the run, so recording costs no I/O.  It is safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens a span and returns its ID.  With rt set, the runtime
// counters are read at both ends and the difference is kept on the span.
func (t *tracer) begin(name string, parent, req int, rt bool) int {
	var base rtStat
	if rt {
		base = readRT()
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: start, rtStart: base}
	if rt {
		s.RT = &rtStat{}
	}
	t.spans = append(t.spans, s)
	return id
}

// end closes the span opened under id.
func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	rt := t.spans[id-1].RT != nil
	t.mu.Unlock()
	var cur rtStat
	if rt {
		cur = readRT()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = end
	if rt {
		d := cur.sub(s.rtStart)
		s.RT = &d
	}
}

// add records a span whose interval is already known: an aggregate of
// many short calls (the detector's hook time inside one run) or a phase
// a server reported inside a client's request.
func (t *tracer) add(name string, parent, req int, start, end time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span name, the summed self time of its spans:
// each span's duration minus the part of its interval that its child
// spans cover.  Overlapping children (concurrent work under one parent)
// are counted once.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of p's interval the union of kids' intervals
// covers.
func covered(p span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// totalTime sums the durations of the spans named name.
func totalTime(spans []span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

// spanFile is the document a traced run writes: the host it ran on, the
// run's parameters, and every span.
type spanFile struct {
	Host     host   `json:"host"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

// writeSpans writes the spans of a traced run under dir and returns the
// file's path.
func writeSpans(dir string, f spanFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", f.Workload, f.Seed))
	data, err := json.Marshal(f)
	if err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	return path, nil
}
