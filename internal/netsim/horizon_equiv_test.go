package netsim_test

// Grant equivalence: the event loop restricts its flow passes to the coflows
// the scheduler granted rates (coflow.SparseAllocator), and treats a
// scheduler without grant reports as granting everywhere. Both must give
// *bit-identical* runs: ungranted flows carry rate 0, so they add +0.0 to
// the port sums, move no bytes and never bound dt, and re-keying a coflow
// whose state did not change reproduces its key. The "dense" side of each
// comparison hides the scheduler's grant report; the "sparse" side keeps it.
// The comparison is exact equality on every Report and per-flow field — no
// epsilons — across the seed × scheduler matrix, with and without failure
// schedules.

import (
	"fmt"
	"math/rand"
	"testing"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
)

// grantAll hides a scheduler's grant report, so the loop treats it as
// granting rates everywhere.
type grantAll struct{ coflow.Scheduler }

// denseGrant wraps a scheduler that reports grants in grantAll. Schedulers
// that do not report grants already take that path, and keep their other
// interfaces (such as the deadline scheduler's CapacityObserver).
func denseGrant(s coflow.Scheduler) coflow.Scheduler {
	if _, ok := s.(coflow.SparseAllocator); ok {
		return grantAll{s}
	}
	return s
}

// withFailures decorates a random spec with a failure schedule drawn from the
// same rng: 1–3 outages (some permanent, some overlapping), edges spread over
// the run so some land between completion epochs and some on top of them.
func withFailures(rng *rand.Rand, spec *workloadSpec) []netsim.PortFailure {
	var fails []netsim.PortFailure
	for i := 0; i < 1+rng.Intn(3); i++ {
		pf := netsim.PortFailure{
			Port: rng.Intn(spec.ports),
			Down: rng.Float64() * 25,
		}
		if rng.Intn(4) > 0 { // 3/4 transient, 1/4 permanent
			pf.Up = pf.Down + 0.5 + rng.Float64()*10
		}
		fails = append(fails, pf)
	}
	return fails
}

// runPair runs the spec once with the scheduler's grant report hidden and
// once with it, and compares the two runs exactly.
func runPair(t *testing.T, tag string, spec *workloadSpec, prod func() coflow.Scheduler,
	mk func(coflow.Scheduler) *netsim.Simulator) {
	t.Helper()
	denseCfs := spec.build()
	denseRep, denseErr := mk(denseGrant(prod())).Run(denseCfs)

	sparseCfs := spec.build()
	sparseRep, sparseErr := mk(prod()).Run(sparseCfs)

	compareRuns(t, tag, spec, sparseCfs, denseCfs, sparseRep, denseRep, sparseErr, denseErr)
	if denseErr == nil {
		if sparseRep.WeightedAvgCCT != denseRep.WeightedAvgCCT {
			t.Errorf("%s: WeightedAvgCCT %v != %v", tag, sparseRep.WeightedAvgCCT, denseRep.WeightedAvgCCT)
		}
		if sparseRep.WastedBytes != denseRep.WastedBytes {
			t.Errorf("%s: WastedBytes %v != %v", tag, sparseRep.WastedBytes, denseRep.WastedBytes)
		}
	}
}

// TestEventHorizonMatchesDense is the golden grant-equivalence property
// test: the full scheduler matrix over seeded random workloads
// (heterogeneous fabrics, staggered arrivals, capacity events including full
// outages, horizons, dependency DAGs).
func TestEventHorizonMatchesDense(t *testing.T) {
	const seeds = 32
	for _, pair := range schedPairs {
		pair := pair
		t.Run(pair.name, func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				spec := randomSpec(rand.New(rand.NewSource(seed)), pair.deadlines)
				fab := spec.fabric(t)
				runPair(t, fmt.Sprintf("%s/seed=%d", pair.name, seed), &spec, pair.prod,
					func(sched coflow.Scheduler) *netsim.Simulator {
						sim := netsim.NewSimulator(fab, sched)
						sim.Events = spec.events
						sim.Deps = spec.deps
						if spec.horizon > 0 {
							sim.Horizon = spec.horizon
						}
						return sim
					})
			}
		})
	}
}

// TestEventHorizonMatchesDenseUnderFailures pins the granted passes against
// failure schedules under every retransmission policy: down/up edges land
// between, and exactly on, completion epochs, voiding progress and (under
// restart-delivered) resurrecting delivered flows into their coflows' live
// sets mid-run.
func TestEventHorizonMatchesDenseUnderFailures(t *testing.T) {
	const seeds = 24
	for _, pair := range schedPairs {
		pair := pair
		t.Run(pair.name, func(t *testing.T) {
			for _, pol := range retransmitPolicies {
				for seed := int64(0); seed < seeds; seed++ {
					rng := rand.New(rand.NewSource(seed))
					spec := randomSpec(rng, pair.deadlines)
					fails := withFailures(rng, &spec)
					fab := spec.fabric(t)
					tag := fmt.Sprintf("%s/%s/seed=%d", pair.name, pol.name, seed)
					runPair(t, tag, &spec, pair.prod, func(sched coflow.Scheduler) *netsim.Simulator {
						sim := netsim.NewSimulator(fab, sched)
						sim.Events = spec.events
						sim.Deps = spec.deps
						sim.Failures = fails
						sim.Retransmit = pol.policy
						if spec.horizon > 0 {
							sim.Horizon = spec.horizon
						}
						return sim
					})
				}
			}
		})
	}
}

// TestEventHorizonReusedSchedulerClearsSparse pins scheduler reuse: a
// scheduler instance that already drove one run — leaving its grant list,
// backfill flag and priority order behind — must drive the next run exactly
// like a fresh instance. The warm-up run hides the grant report, so the
// reused scheduler's first grants follow a run the loop scanned in full.
func TestEventHorizonReusedSchedulerClearsSparse(t *testing.T) {
	for _, pair := range schedPairs {
		pair := pair
		t.Run(pair.name, func(t *testing.T) {
			spec := randomSpec(rand.New(rand.NewSource(11)), pair.deadlines)
			fab := spec.fabric(t)
			mk := func(sched coflow.Scheduler) *netsim.Simulator {
				sim := netsim.NewSimulator(fab, sched)
				sim.Events = spec.events
				sim.Deps = spec.deps
				return sim
			}

			freshCfs := spec.build()
			freshRep, freshErr := mk(pair.prod()).Run(freshCfs)

			sched := pair.prod()
			if _, err := mk(denseGrant(sched)).Run(spec.build()); (err != nil) != (freshErr != nil) {
				t.Fatalf("warm-up error mismatch: %v vs %v", err, freshErr)
			}
			reusedCfs := spec.build()
			reusedRep, reusedErr := mk(sched).Run(reusedCfs)
			compareRuns(t, pair.name+"/reused", &spec,
				reusedCfs, freshCfs, reusedRep, freshRep, reusedErr, freshErr)
		})
	}
}
