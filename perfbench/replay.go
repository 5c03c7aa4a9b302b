package main

// Trace-replay workloads: the synthetic Facebook trace (fbtrace.Stream) on a
// 16-port fabric under Varys, streamed through core.ReplayStream with the
// event-horizon loop and completed-coflow release on. A unit replays one
// seeded stream; a run replays as many units, each with its own seed, as
// fill --seconds, and reports medians over them.

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"ccf/internal/coflow"
	"ccf/internal/core"
	"ccf/internal/fbtrace"
	"ccf/internal/netsim"
)

const replayMachines = 16

// replayWorkload sizes one replay workload (at --scale 1).
type replayWorkload struct {
	coflows int     // coflows per unit
	gap     float64 // mean interarrival in seconds: 1/density
	// densePrefix is how many leading coflows are also replayed through the
	// dense batch simulator, which must agree bit for bit.
	densePrefix int
	// unitSeconds is the nominal CPU time of one unit on a 2-core x86 VM.
	unitSeconds float64
}

var (
	// Density 0.5: residency stays near 40 coflows, so per-epoch work
	// (water-filling) dominates.
	replaySteady = replayWorkload{coflows: 4000, gap: 2, densePrefix: 2000, unitSeconds: 0.6}
	// Density 1000: every coflow stays resident, so priority ordering
	// dominates. The dense oracle is quadratic here, hence the short prefix.
	replayOverload = replayWorkload{coflows: 1000, gap: 0.001, densePrefix: 1000, unitSeconds: 0.45}
)

func (w replayWorkload) config(seed uint64, coflows int) fbtrace.Config {
	return fbtrace.Config{Machines: replayMachines, Coflows: coflows, MeanInterarrivalSec: w.gap, Seed: seed}
}

func replayOptions(s coflow.Scheduler) core.ReplayOptions {
	return core.ReplayOptions{Scheduler: s, EventHorizon: true, ReleaseCompleted: true}
}

// feed is the coflow source of an untraced unit: the trace stream plus what
// the end-to-end metrics and the checks need. The CPU time between two pulls
// is the time the replay took to absorb one arrival.
type feed struct {
	src *fbtrace.Streamer
	// withhold is the index of a coflow counted as fed but never handed to
	// the simulator (the drop-coflow defect); -1 for none.
	withhold int
	pulled   int
	last     time.Duration
	lat      []float64 // ms per arrival
	bytes    float64   // sum of the flow sizes fed in
	open     []*coflow.Coflow
	heap     *heapPeak
}

func (f *feed) Next() (*coflow.Coflow, bool) {
	now := cpuNow()
	if f.pulled > 0 {
		f.lat = append(f.lat, ms(now-f.last))
	}
	f.last = now
	if f.pulled%64 == 0 {
		f.heap.observe()
		f.sweep()
	}
	c, ok := f.src.Next()
	if ok && f.pulled == f.withhold {
		f.account(c)
		c, ok = f.src.Next()
	}
	if !ok {
		return nil, false
	}
	f.account(c)
	return c, true
}

func (f *feed) account(c *coflow.Coflow) {
	f.pulled++
	for _, fl := range c.Flows {
		f.bytes += fl.Size
	}
	f.open = append(f.open, c)
}

// sweep forgets the fed coflows that have completed; what stays open at the
// end never finished.
func (f *feed) sweep() {
	w := 0
	for _, c := range f.open {
		if !c.Completed {
			f.open[w] = c
			w++
		}
	}
	clear(f.open[w:])
	f.open = f.open[:w]
}

// replayUnit is one untraced replay of the stream.
type replayUnit struct {
	rep        *core.ReplayReport
	cpu        time.Duration
	fed        int
	unfinished int
	fedBytes   float64
	lat        []float64
	heapMB     float64
}

func replayOnce(cfg fbtrace.Config, withhold int) (*replayUnit, error) {
	st, err := fbtrace.Stream(cfg)
	if err != nil {
		return nil, err
	}
	f := &feed{src: st, withhold: withhold, lat: make([]float64, 0, st.Total()), heap: newHeapPeak()}
	t := cpuNow()
	rep, err := core.ReplayStream(replayMachines, f, replayOptions(coflow.NewVarys()))
	cpu := cpuNow() - t
	if err != nil {
		return nil, err
	}
	f.sweep()
	return &replayUnit{rep: rep, cpu: cpu, fed: f.pulled, unfinished: len(f.open),
		fedBytes: f.bytes, lat: f.lat, heapMB: f.heap.mb()}, nil
}

// replayLayers is the per-layer time of one traced replay.
type replayLayers struct {
	next, advanceSelf, admit, finish, alloc time.Duration
	allocCalls                              int
}

// tracedUnit is one instrumented replay: the same loop core.ReplayStream
// runs, driven call by call through the netsim session API so that every
// layer boundary can be timed from outside.
type tracedUnit struct {
	rep       *core.ReplayReport
	completed int
	cpu       time.Duration
	layers    replayLayers
}

func replayTraced(cfg fbtrace.Config) (*tracedUnit, error) {
	runtime.GC()
	st, err := fbtrace.Stream(cfg)
	if err != nil {
		return nil, err
	}
	sched := newTimedVarys()
	fabric, err := netsim.NewFabric(replayMachines, 0)
	if err != nil {
		return nil, err
	}
	sim := netsim.NewSimulator(fabric, sched)
	sim.EventHorizon, sim.ReleaseCompleted = true, true // as replayOptions
	ses, err := sim.Session()
	if err != nil {
		return nil, err
	}
	var l replayLayers
	out := &core.ReplayReport{}
	begin := cpuNow()
	for {
		t := cpuNow()
		c, ok := st.Next()
		l.next += cpuNow() - t
		if !ok {
			break
		}
		inAlloc := sched.busy
		t = cpuNow()
		if err := ses.Advance(c.Arrival); err != nil {
			return nil, err
		}
		l.advanceSelf += cpuNow() - t - (sched.busy - inAlloc)
		t = cpuNow()
		if err := ses.Admit(c); err != nil {
			return nil, err
		}
		l.admit += cpuNow() - t
		out.Coflows++
		out.PeakResident = max(out.PeakResident, ses.AdmittedCount())
	}
	t := cpuNow()
	rep, err := ses.Finish()
	if err != nil {
		return nil, err
	}
	l.finish = cpuNow() - t
	cpu := cpuNow() - begin
	l.alloc, l.allocCalls = sched.busy, sched.calls
	out.AvgCCT, out.WeightedAvgCCT, out.MaxCCT = rep.AvgCCT, rep.WeightedAvgCCT, rep.MaxCCT
	out.Makespan, out.TotalBytes, out.Epochs = rep.Makespan, rep.TotalBytes, rep.Epochs
	return &tracedUnit{rep: out, completed: ses.CompletedCount(), cpu: cpu, layers: l}, nil
}

// densePrefixMatches replays the first k coflows of the stream both ways —
// streaming with the event horizon, and through the dense batch simulator
// over the materialised slice — and reports any difference.
func densePrefixMatches(cfg fbtrace.Config, k int) (string, error) {
	cfg.Coflows = k
	st, err := fbtrace.Stream(cfg)
	if err != nil {
		return "", err
	}
	stream, err := core.ReplayStream(replayMachines, st, replayOptions(coflow.NewVarys()))
	if err != nil {
		return "", err
	}
	cfs, err := fbtrace.Generate(cfg)
	if err != nil {
		return "", err
	}
	fabric, err := netsim.NewFabric(replayMachines, 0)
	if err != nil {
		return "", err
	}
	var dense netsim.Report
	if err := netsim.NewSimulator(fabric, coflow.NewVarys()).RunInto(cfs, &dense); err != nil {
		return "", err
	}
	if len(dense.CCTs) != k || stream.AvgCCT != dense.AvgCCT || stream.WeightedAvgCCT != dense.WeightedAvgCCT ||
		stream.MaxCCT != dense.MaxCCT || stream.Makespan != dense.Makespan ||
		stream.TotalBytes != dense.TotalBytes || stream.Epochs != dense.Epochs {
		return fmt.Sprintf("streaming replay of the first %d coflows diverged from the dense simulator: "+
			"completed %d, avg CCT %v vs %v, makespan %v vs %v, epochs %d vs %d",
			k, len(dense.CCTs), stream.AvgCCT, dense.AvgCCT, stream.Makespan, dense.Makespan,
			stream.Epochs, dense.Epochs), nil
	}
	return "", nil
}

// replaySetup times what a replay builds before its first coflow: the trace
// stream, the scheduler, the fabric, the simulator and its session. It
// returns the mean wall time of one build over 2,000 builds: a build takes
// microseconds, and averaging over several garbage-collection cycles keeps
// the figure steady.
func replaySetup(cfg fbtrace.Config) (float64, error) {
	const builds = 2000
	t := time.Now()
	for range builds {
		if _, err := fbtrace.Stream(cfg); err != nil {
			return 0, err
		}
		fabric, err := netsim.NewFabric(replayMachines, 0)
		if err != nil {
			return 0, err
		}
		sim := netsim.NewSimulator(fabric, coflow.NewVarys())
		sim.EventHorizon, sim.ReleaseCompleted = true, true
		if _, err := sim.Session(); err != nil {
			return 0, err
		}
	}
	return time.Since(t).Seconds() / builds, nil
}

func runReplay(r *run, w replayWorkload) error {
	o := r.opts
	n := size(w.coflows, o.scale, 20)
	withhold := -1
	if o.tamper == "drop-coflow" {
		withhold = n / 2
	}
	units := unitCount(o.seconds, w.unitSeconds)
	if o.trace {
		// Each unit runs twice, untraced and traced.
		units = unitCount(o.seconds, 2*w.unitSeconds)
	}

	var plain []*replayUnit
	var traced []*tracedUnit
	var setup []float64
	for k := range units {
		cfg := w.config(unitSeed(o.seed, k), n)
		s, err := replaySetup(cfg)
		if err != nil {
			return err
		}
		setup = append(setup, s)
		u, err := replayOnce(cfg, withhold)
		if err != nil {
			return err
		}
		plain = append(plain, u)
		r.attempted += u.fed
		r.failed += u.unfinished
		r.check(u.fed == n && u.rep.Coflows == n, "unit %d: fed %d coflows, the replay admitted %d, want %d", k, u.fed, u.rep.Coflows, n)
		r.check(u.unfinished == 0, "unit %d: %d of %d coflows never completed", k, u.unfinished, u.fed)
		// Every flow ends with under 1e-6 bytes left (netsim's completion
		// threshold); the rest of the tolerance covers float summation.
		r.check(math.Abs(u.rep.TotalBytes-u.fedBytes) <= 1e-9*u.fedBytes,
			"unit %d: delivered %v bytes, fed %v", k, u.rep.TotalBytes, u.fedBytes)
		if !o.trace {
			continue
		}
		t, err := replayTraced(cfg)
		if err != nil {
			return err
		}
		traced = append(traced, t)
		r.attempted += t.rep.Coflows
		r.failed += t.rep.Coflows - t.completed
		r.check(*t.rep == *u.rep, "unit %d: traced replay diverged from the untraced one: %+v vs %+v", k, *t.rep, *u.rep)
	}
	diff, err := densePrefixMatches(w.config(unitSeed(o.seed, 0), n), min(size(w.densePrefix, o.scale, 10), n))
	if err != nil {
		return err
	}
	r.check(diff == "", "%s", diff)

	if !o.trace {
		var rate, lat, heap []float64
		cct := 0.0
		for _, u := range plain {
			rate = append(rate, float64(u.fed)/u.cpu.Seconds())
			lat = append(lat, u.lat...)
			heap = append(heap, u.heapMB)
			cct += u.rep.AvgCCT
		}
		// A trace coflow is one job's shuffle, so the two rates coincide.
		r.set("coflows_per_s", median(rate))
		r.set("jobs_per_s", median(rate))
		r.set("p50_ms", percentile(lat, 50))
		r.set("p99_ms", percentile(lat, 99))
		r.set("heap_peak_mb", median(heap))
		r.set("sim_avg_cct_s", cct/float64(len(plain)))
		r.set("setup_s", median(setup))
		return nil
	}

	var next, adv, admit, finish, alloc, calls, epochs, peak, tracedCPU, plainCPU []float64
	for i, t := range traced {
		next = append(next, t.layers.next.Seconds())
		adv = append(adv, t.layers.advanceSelf.Seconds())
		admit = append(admit, t.layers.admit.Seconds())
		finish = append(finish, t.layers.finish.Seconds())
		alloc = append(alloc, t.layers.alloc.Seconds())
		calls = append(calls, float64(t.layers.allocCalls))
		epochs = append(epochs, float64(t.rep.Epochs))
		peak = append(peak, float64(t.rep.PeakResident))
		tracedCPU = append(tracedCPU, t.cpu.Seconds())
		plainCPU = append(plainCPU, plain[i].cpu.Seconds())
	}
	r.set("fbtrace.next_s", median(next))
	r.set("netsim.advance_self_s", median(adv))
	r.set("netsim.admit_s", median(admit))
	r.set("netsim.finish_s", median(finish))
	r.set("netsim.epochs", median(epochs))
	r.set("netsim.peak_resident", median(peak))
	r.set("coflow.allocate_s", median(alloc))
	r.set("coflow.allocate_calls", median(calls))
	r.set("coflow.allocate_us_per_call", median(alloc)/median(calls)*1e6)
	r.set("trace.overhead_frac", median(tracedCPU)/median(plainCPU)-1)
	return nil
}
