package main

import (
	"fmt"
	"math/rand"
	"strings"

	"bigfoot/internal/bfgen"
	"bigfoot/internal/workloads"
)

// Every input is a pure function of the run's --seed: the same seed
// yields byte-identical programs in the same order.  Seeds vary what a
// program says (array offsets, constants, statement order, generated
// statements) but not its shape, so the work a pass does stays the same
// from seed to seed and the figures compare across seeds.

// Sizes of the generated large bodies.  Each takes on the order of a
// second of static analysis (2-CPU x86-64 host, Go 1.24): the analysis
// cost grows quadratically or worse in these sizes.
const (
	straightWrites = 200 // straight-line a[k] = c.f writes
	nestedIfs      = 40  // nested ifs, each guarding one write
	nestedLoops    = 5   // nested loops around one strided write
)

// suiteInputs returns the 19 evaluation programs at the default scale,
// in an order drawn from the seed.
func suiteInputs(seed int64) []workloads.Workload {
	ws := workloads.All(workloads.DefaultScale())
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
	return ws
}

// buildInputs returns the suite's 19 sources plus the three generated
// large bodies drawn from the seed.  The order is fixed: a build's time
// includes collecting the garbage of the builds before it, so a drawn
// order would move the per-build figures from seed to seed.
func buildInputs(seed int64) []workloads.Workload {
	rng := rand.New(rand.NewSource(seed))
	ws := workloads.All(workloads.DefaultScale())
	ws = append(ws,
		workloads.Workload{Name: "straight", Suite: "generated", Source: straightLine(rng, straightWrites)},
		workloads.Workload{Name: "ifs", Suite: "generated", Source: ifChain(rng, nestedIfs)},
		workloads.Workload{Name: "loops", Suite: "generated", Source: loopNest(rng, nestedLoops)},
	)
	return ws
}

// straightLine is n writes a[k] = c.f, one to each slot k of an n-slot
// array, in an order drawn from rng.  (An offset on k would change the
// analysis cost severalfold from seed to seed, so none is drawn.)
func straightLine(rng *rand.Rand, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "class Cell { field f; }\nsetup {\n  c = new Cell;\n  a = newarray %d;\n}\nthread {\n", n)
	for _, k := range rng.Perm(n) {
		fmt.Fprintf(&b, "  a[%d] = c.f;\n", k)
	}
	b.WriteString("}\n")
	return b.String()
}

// ifChain is n nested ifs on a field read, each guarding one write
// a[k] = c.f, with thresholds and offsets drawn from rng.  The
// thresholds rise with depth, so every seed draws the same shape.
func ifChain(rng *rand.Rand, n int) string {
	off, base := rng.Intn(1000), rng.Intn(1000)
	var b strings.Builder
	fmt.Fprintf(&b, "class Cell { field f, g; }\nsetup {\n  c = new Cell;\n  c.g = %d;\n  a = newarray %d;\n}\nthread {\n", base+n, off+n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  a[%d] = c.f;\n  if (c.g > %d) {\n", off+i, base+i)
	}
	b.WriteString("  c.f = 1;\n")
	b.WriteString(strings.Repeat("  }\n", n))
	b.WriteString("}\n")
	return b.String()
}

// loopNest is depth nested two-trip loops around one strided write into
// a flat array, at an offset drawn from rng.
func loopNest(rng *rand.Rand, depth int) string {
	off := rng.Intn(1000)
	var b strings.Builder
	fmt.Fprintf(&b, "class Cell { field f; }\nsetup {\n  c = new Cell;\n  a = newarray %d;\n}\nthread {\n", off+(1<<depth))
	idx := fmt.Sprint(off)
	for i := 0; i < depth; i++ {
		v := fmt.Sprintf("i%d", i)
		fmt.Fprintf(&b, "for (%s = 0; %s < 2; %s = %s + 1) {\n", v, v, v, v)
		idx += fmt.Sprintf(" + %s * %d", v, 1<<(depth-1-i))
	}
	fmt.Fprintf(&b, "  a[%s] = c.f;\n", idx)
	b.WriteString(strings.Repeat("}\n", depth))
	b.WriteString("}\n")
	return b.String()
}

// racyCounter is the quickstart shape: two threads each
// read-modify-write one shared counter field without a lock, a drawn
// number of times, from a drawn initial count.  Every detector must
// report it.
func racyCounter(rng *rand.Rand) string {
	const threads = 2
	iters := 50 + rng.Intn(51)
	var b strings.Builder
	fmt.Fprintf(&b, "class Counter { field hits; }\nsetup {\n  c = new Counter;\n  c.hits = %d;\n}\n", rng.Intn(1_000_000))
	for t := 0; t < threads; t++ {
		fmt.Fprintf(&b, "thread {\n  for (i = 0; i < %d; i = i + 1) {\n    h = c.hits;\n    c.hits = h + %d;\n  }\n}\n", iters, 1+t)
	}
	return b.String()
}

// sessionProgram is one program a service client submits, with the
// race verdict every detector must reach on it.
type sessionProgram struct {
	name   string
	src    string
	racy   bool
	shaped string // "locked", "serialized" or "racy"
}

// programConfig fixes the thread and statement counts of generated
// service programs, so the seed changes what the programs do but not
// how much of it: the session mix costs the same from seed to seed.
var programConfig = bfgen.Config{MinThreads: 2, MaxThreads: 2, MinStmts: 5, MaxStmts: 5}

// drawProgram draws the service program of the given kind from rng:
// kinds cycle through a racy counter, a Serialized rendering and two
// Locked renderings of a bfgen program.
func drawProgram(rng *rand.Rand, kind int, name string) sessionProgram {
	switch kind % 4 {
	case 0:
		return sessionProgram{name: name, src: racyCounter(rng), racy: true, shaped: "racy"}
	case 1:
		return sessionProgram{name: name, src: bfgen.Generate(rng, programConfig).Serialized(), shaped: "serialized"}
	default:
		return sessionProgram{name: name, src: bfgen.Generate(rng, programConfig).Locked(), shaped: "locked"}
	}
}
