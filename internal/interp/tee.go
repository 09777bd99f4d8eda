package interp

import "bigfoot/internal/bfj"

// Tee fans the hook event stream out to every non-nil hook in order.
// With zero hooks it returns a NopHook; with one it returns that hook
// directly (no wrapping overhead on the common untraced path); with
// more it returns a combinator that forwards each event to all of them
// in argument order.  Hooks run on the interpreter's serialized event
// stream, so fan-out adds no synchronization.
func Tee(hooks ...Hook) Hook {
	live := make([]Hook, 0, len(hooks))
	for _, h := range hooks {
		if h != nil {
			live = append(live, h)
		}
	}
	switch len(live) {
	case 0:
		return NopHook{}
	case 1:
		return live[0]
	}
	return tee(live)
}

type tee []Hook

func (ts tee) Fork(parent, child int) {
	for _, h := range ts {
		h.Fork(parent, child)
	}
}

func (ts tee) ThreadEnd(t int) {
	for _, h := range ts {
		h.ThreadEnd(t)
	}
}

func (ts tee) Join(parent, child int) {
	for _, h := range ts {
		h.Join(parent, child)
	}
}

func (ts tee) Acquire(t int, lock *Object) {
	for _, h := range ts {
		h.Acquire(t, lock)
	}
}

func (ts tee) Release(t int, lock *Object) {
	for _, h := range ts {
		h.Release(t, lock)
	}
}

func (ts tee) VolRead(t int, o *Object, field string) {
	for _, h := range ts {
		h.VolRead(t, o, field)
	}
}

func (ts tee) VolWrite(t int, o *Object, field string) {
	for _, h := range ts {
		h.VolWrite(t, o, field)
	}
}

func (ts tee) ReadField(t int, o *Object, field string, pos bfj.Pos) {
	for _, h := range ts {
		h.ReadField(t, o, field, pos)
	}
}

func (ts tee) WriteField(t int, o *Object, field string, pos bfj.Pos) {
	for _, h := range ts {
		h.WriteField(t, o, field, pos)
	}
}

func (ts tee) ReadIndex(t int, a *Array, i int, pos bfj.Pos) {
	for _, h := range ts {
		h.ReadIndex(t, a, i, pos)
	}
}

func (ts tee) WriteIndex(t int, a *Array, i int, pos bfj.Pos) {
	for _, h := range ts {
		h.WriteIndex(t, a, i, pos)
	}
}

func (ts tee) CheckField(t int, write bool, o *Object, fc *FieldCheck) {
	for _, h := range ts {
		h.CheckField(t, write, o, fc)
	}
}

func (ts tee) CheckRange(t int, write bool, a *Array, lo, hi, step int, poss []bfj.Pos) {
	for _, h := range ts {
		h.CheckRange(t, write, a, lo, hi, step, poss)
	}
}

func (ts tee) Finish() {
	for _, h := range ts {
		h.Finish()
	}
}
