package netsim_test

// Live-state backlog and release: Session.BacklogInto reads only the active
// coflows and the un-admitted queue, and ReleaseCompleted replaces finished
// coflows with tombstones. Both are claimed exact, so the checks here are
// bit equality: the live backlog against PortBacklog over every coflow ever
// admitted (the history scan it replaced), after every Advance; and Digest,
// every Report field and every CCT with release on against release off.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
)

// streamSpec is a seeded stream long enough for release to sweep several
// times mid-run: moderate load, so coflows complete while others arrive, on
// a few heterogeneous ports. Some coflows carry deadlines, and one has no
// flows.
func streamSpec(rng *rand.Rand, withDeadlines bool) workloadSpec {
	n := 3 + rng.Intn(4)
	w := workloadSpec{ports: n, egCap: make([]float64, n), inCap: make([]float64, n)}
	for p := 0; p < n; p++ {
		w.egCap[p] = 80 + float64(rng.Intn(60))
		w.inCap[p] = 80 + float64(rng.Intn(60))
	}
	arrival := 0.0
	for ci := 0; ci < 150; ci++ {
		arrival += rng.ExpFloat64()
		cs := cfSpec{id: ci, arrival: arrival}
		if withDeadlines && rng.Intn(3) == 0 {
			cs.deadline = 1 + rng.Float64()*10
		}
		for fi := 0; ci != 20 && fi < 1+rng.Intn(4); fi++ {
			src := rng.Intn(n)
			cs.flows = append(cs.flows, coflow.Flow{
				ID: fi, Src: src, Dst: (src + 1 + rng.Intn(n-1)) % n,
				Size: float64(1 + rng.Intn(200)),
			})
		}
		w.coflows = append(w.coflows, cs)
	}
	return w
}

// buildStream materialises the spec with every third coflow weighted, so
// WeightedAvgCCT differs from AvgCCT and tombstones must carry the weight.
// Coflows 40 and 60 also get a negative- and a -0-size flow, which
// coflow.New would drop: their done state does not hash like a completed
// flow's, so release must keep them.
func buildStream(spec *workloadSpec) []*coflow.Coflow {
	cfs := spec.build()
	for i, c := range cfs {
		if i%3 == 0 {
			c.Weight = 1 + float64(i%4)
		}
	}
	for _, odd := range []struct {
		ci   int
		size float64
	}{{40, -5}, {60, math.Copysign(0, -1)}} {
		c := cfs[odd.ci]
		c.Flows = append(c.Flows, &coflow.Flow{ID: len(c.Flows), Coflow: c, Src: 0, Dst: 1, Size: odd.size})
	}
	return cfs
}

// driveStream admits the spec's coflows at their arrivals into a session,
// with an extra stop halfway between arrivals, and calls check after every
// Advance with the coflows admitted so far. It returns the final report.
func driveStream(t *testing.T, sim *netsim.Simulator, cfs []*coflow.Coflow,
	check func(ses *netsim.Session, admitted []*coflow.Coflow)) *netsim.Report {
	t.Helper()
	ses, err := sim.Session()
	if err != nil {
		t.Fatal(err)
	}
	advance := func(to float64, admitted []*coflow.Coflow) {
		if err := ses.Advance(to); err != nil {
			t.Fatal(err)
		}
		check(ses, admitted)
	}
	prev := 0.0
	for i, c := range cfs {
		advance((prev+c.Arrival)/2, cfs[:i])
		advance(c.Arrival, cfs[:i])
		if err := ses.Admit(c); err != nil {
			t.Fatal(err)
		}
		prev = c.Arrival
	}
	for _, dt := range []float64{1, 10, 100} {
		advance(prev+dt, cfs)
	}
	rep, err := ses.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// backlogModes are the loop configurations the live backlog must be exact
// under: dense grants (the scheduler's grant report hidden, see denseGrant)
// and sparse ones, Deps, and restart-delivered failures (which reactivate
// delivered flows of in-flight coflows), each with release on where
// Failures allow it.
type streamMode struct {
	name                  string
	dense, deps, failures bool
}

var backlogModes = []streamMode{
	{"dense", true, false, false},
	{"sparse", false, false, false},
	{"dense-deps", true, true, false},
	{"sparse-deps", false, true, false},
	{"dense-restart-delivered", true, false, true},
	{"sparse-restart-delivered", false, false, true},
}

// backlogScheds names the schedulers of schedPairs the stream tests run:
// the three priority orders and the deadline admission.
var backlogScheds = map[string]bool{"varys": true, "scf": true, "aalo": true, "varys-deadline": true}

// newStreamSim configures a simulator for one mode; deps chain some coflows
// to earlier ones and failures get a restart-delivered schedule.
func newStreamSim(t *testing.T, spec *workloadSpec, sched coflow.Scheduler, rng *rand.Rand,
	mode streamMode, release bool) *netsim.Simulator {
	t.Helper()
	if mode.dense {
		sched = denseGrant(sched)
	}
	sim := netsim.NewSimulator(spec.fabric(t), sched)
	sim.ReleaseCompleted = release
	if mode.deps {
		sim.Deps = map[int][]int{}
		for ci := 1; ci < len(spec.coflows); ci++ {
			if rng.Intn(4) == 0 {
				sim.Deps[ci] = []int{ci - 1 - rng.Intn(min(ci, 5))}
			}
		}
	}
	if mode.failures {
		var fails []netsim.PortFailure
		end := spec.coflows[len(spec.coflows)-1].arrival
		for i := 0; i < 2+rng.Intn(3); i++ {
			down := rng.Float64() * end
			fails = append(fails, netsim.PortFailure{
				Port: rng.Intn(spec.ports), Down: down, Up: down + 0.5 + rng.Float64()*5,
			})
		}
		sim.Failures = fails
		sim.Retransmit = netsim.RetransmitRestartDelivered
	}
	return sim
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestBacklogIntoMatchesHistoryScan checks the live-state backlog against
// PortBacklog over every admitted coflow after every Advance, for each
// scheduler and loop mode, with release on and off.
func TestBacklogIntoMatchesHistoryScan(t *testing.T) {
	const seeds = 6
	for _, sc := range schedPairs {
		if !backlogScheds[sc.name] {
			continue
		}
		for _, mode := range backlogModes {
			for _, release := range []bool{false, true} {
				if release && mode.failures {
					continue // rejected by begin; see TestReleaseCompletedRejectsFailures
				}
				name := fmt.Sprintf("%s/%s/release=%v", sc.name, mode.name, release)
				t.Run(name, func(t *testing.T) {
					for seed := int64(0); seed < seeds; seed++ {
						rng := rand.New(rand.NewSource(seed))
						spec := streamSpec(rng, sc.deadlines)
						sim := newStreamSim(t, &spec, sc.prod(), rng, mode, release)
						eg, in := make([]int64, spec.ports), make([]int64, spec.ports)
						stops := 0
						driveStream(t, sim, buildStream(&spec), func(ses *netsim.Session, admitted []*coflow.Coflow) {
							stops++
							if err := ses.BacklogInto(eg, in); err != nil {
								t.Fatal(err)
							}
							wantEg, wantIn := netsim.PortBacklog(spec.ports, admitted)
							for p := range eg {
								if eg[p] != wantEg[p] || in[p] != wantIn[p] {
									t.Fatalf("seed %d stop %d (t=%g): port %d backlog %d/%d, history scan %d/%d",
										seed, stops, ses.Now(), p, eg[p], in[p], wantEg[p], wantIn[p])
								}
							}
						})
					}
				})
			}
		}
	}
}

// TestReleaseCompletedBitIdentical runs every stream twice, release on and
// off, through the same stops: Digest and the live backlog agree at every
// stop, the released session retains fewer coflows once sweeps begin, and
// the final Report (CCTs, averages, makespan, byte and epoch counts) is
// bit-equal.
func TestReleaseCompletedBitIdentical(t *testing.T) {
	const seeds = 6
	for _, sc := range schedPairs {
		if !backlogScheds[sc.name] {
			continue
		}
		for _, mode := range backlogModes {
			if mode.failures {
				continue
			}
			t.Run(sc.name+"/"+mode.name, func(t *testing.T) {
				for seed := int64(0); seed < seeds; seed++ {
					spec := streamSpec(rand.New(rand.NewSource(seed)), sc.deadlines)
					// Both runs draw Deps from identically seeded streams.
					keepSim := newStreamSim(t, &spec, sc.prod(), rand.New(rand.NewSource(seed+100)), mode, false)
					relSim := newStreamSim(t, &spec, sc.prod(), rand.New(rand.NewSource(seed+100)), mode, true)

					// Record the retained run's digests and backlogs stop by
					// stop, then replay the released run against them.
					var digests []uint64
					var backlogs [][]int64
					eg, in := make([]int64, spec.ports), make([]int64, spec.ports)
					keepRep := driveStream(t, keepSim, buildStream(&spec), func(ses *netsim.Session, _ []*coflow.Coflow) {
						if err := ses.BacklogInto(eg, in); err != nil {
							t.Fatal(err)
						}
						digests = append(digests, ses.Digest())
						backlogs = append(backlogs, append(append([]int64(nil), eg...), in...))
					})
					stop, released := 0, false
					relRep := driveStream(t, relSim, buildStream(&spec), func(ses *netsim.Session, admitted []*coflow.Coflow) {
						if err := ses.BacklogInto(eg, in); err != nil {
							t.Fatal(err)
						}
						got := append(append([]int64(nil), eg...), in...)
						if d := ses.Digest(); d != digests[stop] {
							t.Fatalf("seed %d stop %d: digest %#x with release, %#x without", seed, stop, d, digests[stop])
						}
						if !slices.Equal(got, backlogs[stop]) {
							t.Fatalf("seed %d stop %d: backlog %v with release, %v without", seed, stop, got, backlogs[stop])
						}
						released = released || ses.AdmittedCount() < len(admitted)
						stop++
					})
					if !released {
						t.Errorf("seed %d: completed coflows were never released mid-run", seed)
					}
					tag := fmt.Sprintf("seed %d", seed)
					for _, f := range []struct {
						name      string
						got, want float64
					}{
						{"Makespan", relRep.Makespan, keepRep.Makespan},
						{"AvgCCT", relRep.AvgCCT, keepRep.AvgCCT},
						{"MaxCCT", relRep.MaxCCT, keepRep.MaxCCT},
						{"WeightedAvgCCT", relRep.WeightedAvgCCT, keepRep.WeightedAvgCCT},
						{"TotalBytes", relRep.TotalBytes, keepRep.TotalBytes},
					} {
						if !sameBits(f.got, f.want) {
							t.Errorf("%s: %s %v with release, %v without", tag, f.name, f.got, f.want)
						}
					}
					if relRep.Epochs != keepRep.Epochs {
						t.Errorf("%s: Epochs %d with release, %d without", tag, relRep.Epochs, keepRep.Epochs)
					}
					if len(relRep.CCTs) != len(keepRep.CCTs) {
						t.Errorf("%s: %d CCTs with release, %d without", tag, len(relRep.CCTs), len(keepRep.CCTs))
					}
					for id, want := range keepRep.CCTs {
						if got, ok := relRep.CCTs[id]; !ok || !sameBits(got, want) {
							t.Errorf("%s: CCT[%d] %v with release, %v without", tag, id, got, want)
						}
					}
				}
			})
		}
	}
}

// BenchmarkBacklogInto reads the backlog of a fixed live set — 8 in-flight
// coflows of 16 flows plus 8 queued ones — behind h completed coflows that
// the session still retains (release off). The scan covers live state only,
// so ns/op must stay flat in h, with 0 allocs/op.
func BenchmarkBacklogInto(b *testing.B) {
	const n = 16
	for _, h := range []int{1_000, 4_000, 16_000} {
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			fab, err := netsim.NewFabric(n, 0)
			if err != nil {
				b.Fatal(err)
			}
			sim := netsim.NewSimulator(fab, coflow.NewVarys())
			ses, err := sim.Session()
			if err != nil {
				b.Fatal(err)
			}
			// History: one 1 MB flow per second, each done within 10 ms.
			for i := 0; i < h; i++ {
				c := coflow.New(i, "done", float64(i), []coflow.Flow{{Src: i % n, Dst: (i + 1) % n, Size: 1e6}})
				if err := ses.Admit(c); err != nil {
					b.Fatal(err)
				}
			}
			live := float64(h + 1)
			for k := 0; k < 16; k++ {
				var flows []coflow.Flow
				for f := 0; f < 16; f++ {
					flows = append(flows, coflow.Flow{ID: f, Src: (k + f) % n, Dst: (k + f + 1 + f%(n-1)) % n, Size: 1e9})
				}
				arrival := live
				if k >= 8 {
					arrival = live + 100 // queued behind the stop
				}
				if err := ses.Admit(coflow.New(h+k, "live", arrival, flows)); err != nil {
					b.Fatal(err)
				}
			}
			if err := ses.Advance(live + 0.5); err != nil {
				b.Fatal(err)
			}
			if got := ses.CompletedCount(); got != h {
				b.Fatalf("%d coflows completed, want the %d history coflows", got, h)
			}
			eg, in := make([]int64, n), make([]int64, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ses.BacklogInto(eg, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
