package netsim_test

// Microbenchmarks pinning the allocation-free hot path: a steady-state
// simulation run (reused Simulator + RunInto + reused coflows) must report
// 0 allocs/op. Any allocation that sneaks back into the epoch loop, the
// schedulers, or the live-flow caches shows up here immediately.

import (
	"fmt"
	"testing"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
)

func allToAll(b testing.TB, n int) []*coflow.Coflow {
	b.Helper()
	vol := make([]int64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				vol[i*n+j] = int64(1e6 * (1 + (i+j)%7))
			}
		}
	}
	cf, err := coflow.FromVolumes(0, "bench", 0, n, vol)
	if err != nil {
		b.Fatal(err)
	}
	return []*coflow.Coflow{cf}
}

func staggered(b testing.TB, n, ncf int) []*coflow.Coflow {
	b.Helper()
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

// BenchmarkSteadyStateRun measures a full simulation run on the steady-state
// path for each scheduler family; allocs/op must be 0.
func BenchmarkSteadyStateRun(b *testing.B) {
	scheds := []struct {
		name string
		mk   func() coflow.Scheduler
	}{
		{"varys", coflow.NewVarys},
		{"aalo", func() coflow.Scheduler { return coflow.NewAalo() }},
		{"fifo", coflow.NewFIFO},
		{"per-flow-fair", func() coflow.Scheduler { return coflow.PerFlowFair{} }},
	}
	for _, sc := range scheds {
		for _, n := range []int{16, 64} {
			b.Run(fmt.Sprintf("%s/n=%d", sc.name, n), func(b *testing.B) {
				cfs := staggered(b, n, 24)
				fab, err := netsim.NewFabric(n, 0)
				if err != nil {
					b.Fatal(err)
				}
				sim := netsim.NewSimulator(fab, sc.mk())
				var rep netsim.Report
				if err := sim.RunInto(cfs, &rep); err != nil { // warm the scratch
					b.Fatal(err)
				}
				epochs := rep.Epochs
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := sim.RunInto(cfs, &rep); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if b.Elapsed() > 0 {
					b.ReportMetric(float64(epochs)*float64(b.N)/b.Elapsed().Seconds(), "epochs/s")
				}
				// Guard, not just a metric: the nil-probe steady state must
				// stay at 0 allocs/op, and a regression fails the benchmark
				// instead of quietly shifting the reported number.
				if !raceEnabled {
					if avg := testing.AllocsPerRun(5, func() {
						if err := sim.RunInto(cfs, &rep); err != nil {
							b.Fatal(err)
						}
					}); avg != 0 {
						b.Fatalf("steady-state RunInto allocated %v allocs/op with nil probe", avg)
					}
				}
			})
		}
	}
}

// chainDeps makes every third of ncf staggered coflows depend on the next
// one, which arrives after it, so it waits in the admission queue past its
// own arrival.
func chainDeps(ncf int) map[int][]int {
	deps := map[int][]int{}
	for ci := 0; ci+1 < ncf; ci += 3 {
		deps[ci] = []int{ci + 1}
	}
	return deps
}

// TestSteadyStateRunZeroAllocs pins the telemetry overhead contract on the
// regular test path (no -bench flag needed): with Probe nil, a steady-state
// run performs zero heap allocations per op for every scheduler family —
// those that report grants and those the loop treats as granting
// everywhere (per-flow-fair, varys-deadline) — and with Deps.
func TestSteadyStateRunZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs allocation counts")
	}
	scheds := []struct {
		name string
		mk   func() coflow.Scheduler
		deps bool
	}{
		{"varys", coflow.NewVarys, false},
		{"aalo", func() coflow.Scheduler { return coflow.NewAalo() }, false},
		{"fifo", coflow.NewFIFO, false},
		{"per-flow-fair", func() coflow.Scheduler { return coflow.PerFlowFair{} }, false},
		{"varys-deadline", func() coflow.Scheduler { return coflow.NewVarysDeadline() }, false},
		{"varys-deps", coflow.NewVarys, true},
	}
	for _, sc := range scheds {
		t.Run(sc.name, func(t *testing.T) {
			cfs := staggered(t, 16, 24)
			fab, err := netsim.NewFabric(16, 0)
			if err != nil {
				t.Fatal(err)
			}
			sim := netsim.NewSimulator(fab, sc.mk())
			if sc.deps {
				sim.Deps = chainDeps(len(cfs))
			}
			var rep netsim.Report
			if err := sim.RunInto(cfs, &rep); err != nil { // warm the scratch
				t.Fatal(err)
			}
			if sc.deps && cfs[0].Arrival == 0 {
				t.Fatal("coflow 0 never waited for its predecessor; the variant measures nothing")
			}
			if avg := testing.AllocsPerRun(10, func() {
				if err := sim.RunInto(cfs, &rep); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Fatalf("steady-state RunInto allocated %v allocs/op with nil probe", avg)
			}
		})
	}
}

// TestSessionAdvanceZeroAllocs extends the allocation contract to the
// resumable session: the online engine's steady state — begin a session,
// stream coflows in at their arrivals, Advance between them, read the
// backlog in place, Finish — must perform zero heap allocations per full
// cycle once the simulator's buffers are warm. This is what makes the O(J)
// incremental backlog path allocation-free where the probe path cloned every
// flow per arrival.
func TestSessionAdvanceZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs allocation counts")
	}
	scheds := []struct {
		name    string
		mk      func() coflow.Scheduler
		deps    bool // chainDeps: coflows wait in the queue past arrival
		release bool // ReleaseCompleted, over enough coflows to sweep
	}{
		{"varys", coflow.NewVarys, false, false},
		{"aalo", func() coflow.Scheduler { return coflow.NewAalo() }, false, false},
		{"per-flow-fair", func() coflow.Scheduler { return coflow.PerFlowFair{} }, false, false},
		{"varys-deadline", func() coflow.Scheduler { return coflow.NewVarysDeadline() }, false, false},
		{"varys-deps", coflow.NewVarys, true, false},
		{"varys-release", coflow.NewVarys, false, true},
	}
	for _, sc := range scheds {
		t.Run(sc.name, func(t *testing.T) {
			const n = 16
			ncf := 24
			if sc.release {
				ncf = 96
			}
			cfs := staggered(t, n, ncf)
			fab, err := netsim.NewFabric(n, 0)
			if err != nil {
				t.Fatal(err)
			}
			sim := netsim.NewSimulator(fab, sc.mk())
			if sc.deps {
				sim.Deps = chainDeps(ncf)
			}
			sim.ReleaseCompleted = sc.release
			minKept := ncf
			eg, in := make([]int64, n), make([]int64, n)
			arrivals := make([]float64, ncf)
			for i, c := range cfs {
				arrivals[i] = c.Arrival
			}
			cycle := func() {
				ses, err := sim.Session()
				if err != nil {
					t.Fatal(err)
				}
				if sc.deps {
					// A predecessor arrives after its dependant, so the
					// whole set is admitted up front, with the arrivals the
					// previous cycle lifted restored.
					for i, c := range cfs {
						c.Arrival = arrivals[i]
					}
					if err := ses.AdmitBatch(cfs); err != nil {
						t.Fatal(err)
					}
				}
				for i, c := range cfs {
					if err := ses.Advance(arrivals[i]); err != nil {
						t.Fatal(err)
					}
					if err := ses.BacklogInto(eg, in); err != nil {
						t.Fatal(err)
					}
					if !sc.deps {
						if err := ses.Admit(c); err != nil {
							t.Fatal(err)
						}
					}
					minKept = min(minKept, ses.AdmittedCount())
				}
				if _, err := ses.Finish(); err != nil {
					t.Fatal(err)
				}
			}
			cycle() // warm the scratch and the session buffers
			if sc.release && minKept == ncf {
				t.Fatal("no coflow was released; the variant measures nothing")
			}
			if sc.deps && cfs[0].Arrival == arrivals[0] {
				t.Fatal("coflow 0 never waited for its predecessor; the variant measures nothing")
			}
			if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
				t.Fatalf("steady-state session cycle allocated %v allocs/op", avg)
			}
		})
	}
}

// BenchmarkSteadyStateSingleCoflow is the MADD fast path: one all-to-all
// coflow (n²−n flows), the shape behind the paper's bandwidth-model check.
func BenchmarkSteadyStateSingleCoflow(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfs := allToAll(b, n)
			fab, err := netsim.NewFabric(n, 0)
			if err != nil {
				b.Fatal(err)
			}
			sim := netsim.NewSimulator(fab, coflow.NewVarys())
			var rep netsim.Report
			if err := sim.RunInto(cfs, &rep); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sim.RunInto(cfs, &rep); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
