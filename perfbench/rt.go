package main

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"
)

// The runtime/metrics series the benchmark reads.
const (
	mGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	mAllocB    = "/gc/heap/allocs:bytes"
	mAllocN    = "/gc/heap/allocs:objects"
	mCycles    = "/gc/cycles/total:gc-cycles"
	mSchedLat  = "/sched/latencies:seconds"
	mHeapBytes = "/memory/classes/heap/objects:bytes"
)

// rtStat is one reading of the runtime counters a layer call can move.
type rtStat struct {
	GCCPU      float64 // seconds of CPU spent in the garbage collector
	AllocBytes uint64
	Allocs     uint64
	Cycles     uint64
	SchedLat   float64 // approximate total of /sched/latencies, seconds
}

func (a rtStat) sub(b rtStat) rtStat {
	return rtStat{
		GCCPU:      a.GCCPU - b.GCCPU,
		AllocBytes: a.AllocBytes - b.AllocBytes,
		Allocs:     a.Allocs - b.Allocs,
		Cycles:     a.Cycles - b.Cycles,
		SchedLat:   a.SchedLat - b.SchedLat,
	}
}

func (a rtStat) add(b rtStat) rtStat {
	return rtStat{
		GCCPU:      a.GCCPU + b.GCCPU,
		AllocBytes: a.AllocBytes + b.AllocBytes,
		Allocs:     a.Allocs + b.Allocs,
		Cycles:     a.Cycles + b.Cycles,
		SchedLat:   a.SchedLat + b.SchedLat,
	}
}

// readRT reads the runtime counters.  /sched/latencies is a histogram
// without a sum, so its total is estimated from bucket midpoints (the
// lower bound for the open top bucket).
func readRT() rtStat {
	s := []metrics.Sample{{Name: mGCCPU}, {Name: mAllocB}, {Name: mAllocN}, {Name: mCycles}, {Name: mSchedLat}}
	metrics.Read(s)
	return rtStat{
		GCCPU:      s[0].Value.Float64(),
		AllocBytes: s[1].Value.Uint64(),
		Allocs:     s[2].Value.Uint64(),
		Cycles:     s[3].Value.Uint64(),
		SchedLat:   histTotal(s[4].Value.Float64Histogram()),
	}
}

func histTotal(h *metrics.Float64Histogram) float64 {
	total := 0.0
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, +1):
			mid = lo
		}
		total += float64(c) * mid
	}
	return total
}

// heapPeak samples the live-plus-garbage heap size on a fixed period
// and keeps the largest reading.  Start it with startHeapPeak; stop
// returns the peak in bytes after the sampler goroutine has exited.
type heapPeak struct {
	stopCh chan struct{}
	done   sync.WaitGroup
	peak   uint64
}

func startHeapPeak(period time.Duration) *heapPeak {
	h := &heapPeak{stopCh: make(chan struct{})}
	h.peak = heapBytes()
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-h.stopCh:
				return
			case <-t.C:
				h.peak = max(h.peak, heapBytes())
			}
		}
	}()
	return h
}

func (h *heapPeak) stop() uint64 {
	close(h.stopCh)
	h.done.Wait()
	return max(h.peak, heapBytes())
}

func heapBytes() uint64 {
	s := []metrics.Sample{{Name: mHeapBytes}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
