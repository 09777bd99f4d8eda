package main

import (
	"time"

	"bigfoot/internal/bfj"
	"bigfoot/internal/interp"
)

// timedHook forwards every interpreter event to the detector, counts
// the events, and times a pseudo-random one in 16 of the calls into
// the detector.  Timing every call would put two clock reads around
// each ~20 ns detector call and slow the traced run by a third; sampling
// keeps the clock off the path of most events.  The interpreter never
// type-asserts its hook, so wrapping changes nothing it does.  Callbacks
// run on the scheduler token, so the counters need no locking.
type timedHook struct {
	h       interp.Hook
	events  uint64
	samples uint64
	sampled time.Duration // time inside the detector over the sampled calls
	rng     uint64
}

// tick counts an event and reports whether to time it.
func (w *timedHook) tick() bool {
	w.events++
	w.rng = w.rng*6364136223846793005 + 1442695040888963407
	if w.rng>>60 != 0 { // top 4 bits zero: probability 1/16
		return false
	}
	w.samples++
	return true
}

func (w *timedHook) done(start time.Time) { w.sampled += time.Since(start) }

// busy estimates the total time spent inside the detector: the sampled
// time, less what the clock reads themselves add (clock per sample),
// scaled up to every event.
func (w *timedHook) busy(clock time.Duration) time.Duration {
	if w.samples == 0 {
		return 0
	}
	net := max(w.sampled-time.Duration(w.samples)*clock, 0)
	return time.Duration(float64(net) * float64(w.events) / float64(w.samples))
}

func (w *timedHook) Fork(parent, child int) {
	if w.tick() {
		s := time.Now()
		w.h.Fork(parent, child)
		w.done(s)
		return
	}
	w.h.Fork(parent, child)
}

func (w *timedHook) ThreadEnd(t int) {
	if w.tick() {
		s := time.Now()
		w.h.ThreadEnd(t)
		w.done(s)
		return
	}
	w.h.ThreadEnd(t)
}

func (w *timedHook) Join(parent, child int) {
	if w.tick() {
		s := time.Now()
		w.h.Join(parent, child)
		w.done(s)
		return
	}
	w.h.Join(parent, child)
}

func (w *timedHook) Acquire(t int, lock *interp.Object) {
	if w.tick() {
		s := time.Now()
		w.h.Acquire(t, lock)
		w.done(s)
		return
	}
	w.h.Acquire(t, lock)
}

func (w *timedHook) Release(t int, lock *interp.Object) {
	if w.tick() {
		s := time.Now()
		w.h.Release(t, lock)
		w.done(s)
		return
	}
	w.h.Release(t, lock)
}

func (w *timedHook) VolRead(t int, o *interp.Object, field string) {
	if w.tick() {
		s := time.Now()
		w.h.VolRead(t, o, field)
		w.done(s)
		return
	}
	w.h.VolRead(t, o, field)
}

func (w *timedHook) VolWrite(t int, o *interp.Object, field string) {
	if w.tick() {
		s := time.Now()
		w.h.VolWrite(t, o, field)
		w.done(s)
		return
	}
	w.h.VolWrite(t, o, field)
}

func (w *timedHook) ReadField(t int, o *interp.Object, field string, pos bfj.Pos) {
	if w.tick() {
		s := time.Now()
		w.h.ReadField(t, o, field, pos)
		w.done(s)
		return
	}
	w.h.ReadField(t, o, field, pos)
}

func (w *timedHook) WriteField(t int, o *interp.Object, field string, pos bfj.Pos) {
	if w.tick() {
		s := time.Now()
		w.h.WriteField(t, o, field, pos)
		w.done(s)
		return
	}
	w.h.WriteField(t, o, field, pos)
}

func (w *timedHook) ReadIndex(t int, a *interp.Array, i int, pos bfj.Pos) {
	if w.tick() {
		s := time.Now()
		w.h.ReadIndex(t, a, i, pos)
		w.done(s)
		return
	}
	w.h.ReadIndex(t, a, i, pos)
}

func (w *timedHook) WriteIndex(t int, a *interp.Array, i int, pos bfj.Pos) {
	if w.tick() {
		s := time.Now()
		w.h.WriteIndex(t, a, i, pos)
		w.done(s)
		return
	}
	w.h.WriteIndex(t, a, i, pos)
}

func (w *timedHook) CheckField(t int, write bool, o *interp.Object, fc *interp.FieldCheck) {
	if w.tick() {
		s := time.Now()
		w.h.CheckField(t, write, o, fc)
		w.done(s)
		return
	}
	w.h.CheckField(t, write, o, fc)
}

func (w *timedHook) CheckRange(t int, write bool, a *interp.Array, lo, hi, step int, poss []bfj.Pos) {
	if w.tick() {
		s := time.Now()
		w.h.CheckRange(t, write, a, lo, hi, step, poss)
		w.done(s)
		return
	}
	w.h.CheckRange(t, write, a, lo, hi, step, poss)
}

func (w *timedHook) Finish() {
	if w.tick() {
		s := time.Now()
		w.h.Finish()
		w.done(s)
		return
	}
	w.h.Finish()
}

// clockCost estimates what timing one call adds on its own — the clock
// reads and the wrapper's bookkeeping — by timing calls into a hook that
// does nothing.
func clockCost() time.Duration {
	const n = 200_000
	w := &timedHook{h: interp.NopHook{}}
	for i := 0; i < n; i++ {
		s := time.Now()
		w.h.ThreadEnd(0)
		w.done(s)
	}
	return w.sampled / n
}
