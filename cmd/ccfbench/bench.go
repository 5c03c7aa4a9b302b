package main

// netsim-bench: machine-readable perf tracking for the simulator hot path.
// Runs the steady-state netsim benchmarks in-process via testing.Benchmark
// and writes BENCH_netsim.json (ns/op, allocs/op, epochs/s) so the perf
// trajectory is comparable across PRs without parsing `go test -bench` text.
//
// Besides the per-scheduler SteadyStateRun rows, the file carries a cores
// axis: SweepThroughput/cores=C measures sweep parallelism (a fixed batch
// of independent runs through the worker pool, one warm simulator per
// worker) and reports speedup_vs_serial against its cores=1 row, measured
// on this machine — CI validates the JSON shape, not the speedup, because
// small shared runners can't promise scaling.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
	"ccf/internal/parallel"
)

type benchResult struct {
	Name         string  `json:"name"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	EpochsPerRun int     `json:"epochs_per_run"`
	EpochsPerSec float64 `json:"epochs_per_sec"`
	// Cores and SpeedupVsSerial are set only on the cores-axis rows
	// (SweepThroughput); the SteadyStateRun rows keep their
	// original shape.
	Cores           int     `json:"cores,omitempty"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial,omitempty"`
}

// benchCoflows mirrors the staggered-arrival workload of the netsim
// steady-state benchmarks: ncf coflows of n/2 flows each, arriving 0.25 s
// apart, so the scheduler sees admissions, completions, and re-sorts.
func benchCoflows(n, ncf int) []*coflow.Coflow {
	out := make([]*coflow.Coflow, 0, ncf)
	for ci := 0; ci < ncf; ci++ {
		var flows []coflow.Flow
		for f := 0; f < n/2; f++ {
			src := (ci + f) % n
			dst := (src + 1 + f%(n-1)) % n
			flows = append(flows, coflow.Flow{ID: f, Src: src, Dst: dst, Size: float64(1+(ci+f)%9) * 1e6})
		}
		out = append(out, coflow.New(ci, "bench", float64(ci)/4, flows))
	}
	return out
}

// coresAxis is the cores dimension of the parallel benchmark rows:
// {1, 2, 4, NumCPU}, deduplicated and sorted. `-workers 1` collapses it to
// {1} — the explicit all-serial escape hatch.
func coresAxis(workers int) []int {
	if workers == 1 {
		return []int{1}
	}
	set := map[int]bool{1: true, 2: true, 4: true, runtime.NumCPU(): true}
	var out []int
	for c := range set {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// benchRun times one closure via testing.Benchmark and returns the result
// plus ns/op. The closure is re-run b.N times; any error aborts the bench.
func benchRun(fn func() error) (testing.BenchmarkResult, float64, error) {
	var runErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := fn(); err != nil {
				runErr = err
				b.FailNow()
			}
		}
	})
	if runErr != nil {
		return r, 0, runErr
	}
	return r, float64(r.T.Nanoseconds()) / float64(r.N), nil
}

func printBenchRow(res benchResult) {
	fmt.Printf("  %-32s %12.0f ns/op  %6d allocs/op  %12.0f epochs/s",
		res.Name, res.NsPerOp, res.AllocsPerOp, res.EpochsPerSec)
	if res.Cores > 0 {
		fmt.Printf("  %5.2fx vs serial", res.SpeedupVsSerial)
	}
	fmt.Println()
}

// steadyStateRows is the original per-scheduler hot-path benchmark: one warm
// simulator re-running the same staggered workload.
func steadyStateRows() ([]benchResult, error) {
	scheds := []struct {
		name string
		mk   func() coflow.Scheduler
	}{
		{"varys", coflow.NewVarys},
		{"aalo", func() coflow.Scheduler { return coflow.NewAalo() }},
		{"fifo", coflow.NewFIFO},
		{"per-flow-fair", func() coflow.Scheduler { return coflow.PerFlowFair{} }},
	}
	var results []benchResult
	for _, sc := range scheds {
		for _, n := range []int{16, 64} {
			cfs := benchCoflows(n, 24)
			fab, err := netsim.NewFabric(n, 0)
			if err != nil {
				return nil, err
			}
			sim := netsim.NewSimulator(fab, sc.mk())
			var rep netsim.Report
			if err := sim.RunInto(cfs, &rep); err != nil { // warm the scratch
				return nil, err
			}
			epochs := rep.Epochs
			r, nsOp, err := benchRun(func() error { return sim.RunInto(cfs, &rep) })
			if err != nil {
				return nil, err
			}
			res := benchResult{
				Name:         fmt.Sprintf("SteadyStateRun/%s/n=%d", sc.name, n),
				NsPerOp:      nsOp,
				AllocsPerOp:  r.AllocsPerOp(),
				BytesPerOp:   r.AllocedBytesPerOp(),
				EpochsPerRun: epochs,
				EpochsPerSec: float64(epochs) * 1e9 / nsOp,
			}
			results = append(results, res)
			printBenchRow(res)
		}
	}
	return results, nil
}

// sweepThroughputRows measures sweep parallelism: a fixed batch of
// independent simulator runs dispatched through the worker pool, each worker
// keeping one warm simulator and one private coflow set. The op is the whole
// batch, so ns/op shrinking with cores is the pool's wall-clock win.
func sweepThroughputRows(workers int) ([]benchResult, error) {
	const (
		batch = 16
		n     = 64
		ncf   = 24
	)
	type workerState struct {
		sim *netsim.Simulator
		cfs []*coflow.Coflow
		rep netsim.Report
	}
	axis := coresAxis(workers)
	maxCores := axis[len(axis)-1]
	// One warm state per worker slot, shared across the benchmark
	// iterations so the op measures scheduling, not allocation.
	states := make([]*workerState, maxCores)
	var epochs int
	for w := range states {
		fab, err := netsim.NewFabric(n, 0)
		if err != nil {
			return nil, err
		}
		st := &workerState{sim: netsim.NewSimulator(fab, coflow.NewVarys()), cfs: benchCoflows(n, ncf)}
		if err := st.sim.RunInto(st.cfs, &st.rep); err != nil {
			return nil, err
		}
		epochs = st.rep.Epochs
		states[w] = st
	}
	var results []benchResult
	var serialNs float64
	for _, cores := range axis {
		c := cores
		r, nsOp, err := benchRun(func() error {
			_, err := parallel.RunWithState(c, batch,
				func(w int) *workerState { return states[w] },
				func(st *workerState, _ int) (struct{}, error) {
					return struct{}{}, st.sim.RunInto(st.cfs, &st.rep)
				})
			return err
		})
		if err != nil {
			return nil, err
		}
		if c == 1 {
			serialNs = nsOp
		}
		res := benchResult{
			Name:            fmt.Sprintf("SweepThroughput/cores=%d", c),
			NsPerOp:         nsOp,
			AllocsPerOp:     r.AllocsPerOp(),
			BytesPerOp:      r.AllocedBytesPerOp(),
			EpochsPerRun:    epochs * batch,
			EpochsPerSec:    float64(epochs*batch) * 1e9 / nsOp,
			Cores:           c,
			SpeedupVsSerial: serialNs / nsOp,
		}
		results = append(results, res)
		printBenchRow(res)
	}
	return results, nil
}

func netsimBench(path string, workers int) error {
	results, err := steadyStateRows()
	if err != nil {
		return err
	}
	sweepRows, err := sweepThroughputRows(workers)
	if err != nil {
		return err
	}
	results = append(results, sweepRows...)
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", path)
	return nil
}
