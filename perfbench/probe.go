package main

// Instrumentation the traced runs wrap around the layers' exported APIs, and
// the small statistics the result line needs. Nothing here reaches inside a
// package: a layer is timed at the calls the benchmark (or a wrapper the
// layer accepts, such as a scheduler) makes into it. Every duration is read
// from the process CPU clock (cpuNow).

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"ccf/internal/coflow"
	"ccf/internal/partition"
	"ccf/internal/placement"
)

// timedAllocator is a coflow scheduler that times every Allocate call. It
// embeds the sparse interface so the simulator keeps the scheduler's sparse
// (event-horizon) mode exactly as it would without the wrapper.
type timedAllocator struct {
	coflow.SparseAllocator
	busy  time.Duration
	calls int
}

func newTimedVarys() *timedAllocator {
	return &timedAllocator{SparseAllocator: coflow.NewVarys().(coflow.SparseAllocator)}
}

func (a *timedAllocator) Allocate(now float64, active []*coflow.Coflow, egCap, inCap []float64) {
	t := cpuNow()
	a.SparseAllocator.Allocate(now, active, egCap, inCap)
	a.busy += cpuNow() - t
	a.calls++
}

// timedPlacer is a placement scheduler that times every Place call.
type timedPlacer struct {
	placement.Scheduler
	busy time.Duration
}

func (p *timedPlacer) Place(m *partition.ChunkMatrix, initial *partition.Loads) (*partition.Placement, error) {
	t := cpuNow()
	pl, err := p.Scheduler.Place(m, initial)
	p.busy += cpuNow() - t
	return pl, err
}

// heapPeak tracks the largest heap seen by samples taken from a driver loop
// (no sampling goroutine).
type heapPeak struct {
	sample []metrics.Sample
	peak   uint64
}

func newHeapPeak() *heapPeak {
	runtime.GC()
	return &heapPeak{sample: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

func (h *heapPeak) observe() {
	metrics.Read(h.sample)
	if v := h.sample[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

func (h *heapPeak) mb() float64 { return float64(h.peak) / 1e6 }

// median returns the middle value (the mean of the two middle values for an
// even count).
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-th percentile of v (0 < q <= 100).
func percentile(v []float64, q float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q/100*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// size scales a workload size, keeping at least least.
func size(n int, scale float64, least int) int {
	return max(int(math.Round(float64(n)*scale)), least)
}

// unitCount is how many units of nominal CPU cost unitSeconds fill seconds
// (at least one). The count depends only on the arguments, so a run's
// simulated outputs are a function of its seed and --seconds alone.
func unitCount(seconds, unitSeconds float64) int {
	return max(1, int(math.Round(seconds/unitSeconds)))
}

// unitSeed derives the input seed of a run's k-th unit. Every unit replays
// different inputs, so a run averages over more of the workload than one
// unit holds.
func unitSeed(seed uint64, k int) uint64 { return seed*1000 + uint64(k) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
