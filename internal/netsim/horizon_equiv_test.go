package netsim_test

// Event-horizon equivalence: the sparse loop (Simulator.EventHorizon) must be
// *bit-identical* to the dense loop. Every sparse shortcut is a proof-carrying
// no-op (prefix admission pops the same coflows in the same order, skipped
// retirement scans would have found nothing, ungranted flows contribute +0.0
// to port sums and move no bytes, the completion heap recovers the exact
// min(Remaining/Rate), cached priority keys are pure functions of unchanged
// state), so the comparison is exact equality on every Report and per-flow
// field — no epsilons — across the seed × scheduler matrix, with and without
// failure schedules whose edges straddle the epochs the dense loop probes.

import (
	"fmt"
	"math/rand"
	"testing"

	"ccf/internal/netsim"
)

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

func runPair(t *testing.T, tag string, spec *workloadSpec, prod func() *netsim.Simulator) {
	t.Helper()
	denseCfs := spec.build()
	denseSim := prod()
	denseRep, denseErr := denseSim.Run(denseCfs)

	horizonCfs := spec.build()
	horizonSim := prod()
	horizonSim.EventHorizon = true
	horizonRep, horizonErr := horizonSim.Run(horizonCfs)

	compareRuns(t, tag, spec, horizonCfs, denseCfs, horizonRep, denseRep, horizonErr, denseErr)
	if denseErr == nil && horizonRep.WeightedAvgCCT != denseRep.WeightedAvgCCT {
		t.Errorf("%s: WeightedAvgCCT %v != %v", tag, horizonRep.WeightedAvgCCT, denseRep.WeightedAvgCCT)
	}
}

// TestEventHorizonMatchesDense is the golden sparse-vs-dense property test:
// the full scheduler matrix over seeded random workloads (heterogeneous
// fabrics, staggered arrivals, capacity events including full outages,
// horizons, dependency DAGs — which exercise the documented dense fallback).
func TestEventHorizonMatchesDense(t *testing.T) {
	const seeds = 32
	for _, pair := range schedPairs {
		pair := pair
		t.Run(pair.name, func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				spec := randomSpec(rand.New(rand.NewSource(seed)), pair.deadlines)
				fab := spec.fabric(t)
				runPair(t, fmt.Sprintf("%s/seed=%d", pair.name, seed), &spec,
					func() *netsim.Simulator {
						sim := netsim.NewSimulator(fab, pair.prod())
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

// TestEventHorizonMatchesDenseUnderFailures pins the sparse loop against
// failure schedules under every retransmission policy: down/up edges land
// between, and exactly on, the completion epochs the dense loop steps
// through, voiding progress and (under restart-delivered) resurrecting
// delivered flows into the live set mid-run.
func TestEventHorizonMatchesDenseUnderFailures(t *testing.T) {
	const seeds = 24
	policies := []struct {
		name   string
		policy netsim.RetransmitPolicy
	}{
		{"restart", netsim.RetransmitRestart},
		{"resume", netsim.RetransmitResume},
		{"restart-delivered", netsim.RetransmitRestartDelivered},
	}
	for _, pair := range schedPairs {
		pair := pair
		t.Run(pair.name, func(t *testing.T) {
			for _, pol := range policies {
				for seed := int64(0); seed < seeds; seed++ {
					rng := rand.New(rand.NewSource(seed))
					spec := randomSpec(rng, pair.deadlines)
					spec.deps = nil // exercise the sparse loop, not the fallback
					fails := withFailures(rng, &spec)
					fab := spec.fabric(t)
					tag := fmt.Sprintf("%s/%s/seed=%d", pair.name, pol.name, seed)
					runPair(t, tag, &spec, func() *netsim.Simulator {
						sim := netsim.NewSimulator(fab, pair.prod())
						sim.Events = spec.events
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

// TestEventHorizonReusedSchedulerClearsSparse pins the Session.begin
// contract: a scheduler instance moved from an event-horizon simulator to a
// plain one must drop the sparse bookkeeping (and vice versa), matching a
// fresh dense run exactly.
func TestEventHorizonReusedSchedulerClearsSparse(t *testing.T) {
	for _, pair := range schedPairs {
		pair := pair
		t.Run(pair.name, func(t *testing.T) {
			spec := randomSpec(rand.New(rand.NewSource(11)), pair.deadlines)
			fab := spec.fabric(t)

			denseCfs := spec.build()
			denseSim := netsim.NewSimulator(fab, pair.prod())
			denseSim.Events = spec.events
			denseSim.Deps = spec.deps
			denseRep, denseErr := denseSim.Run(denseCfs)

			sched := pair.prod()
			warmSim := netsim.NewSimulator(fab, sched)
			warmSim.Events = spec.events
			warmSim.Deps = spec.deps
			warmSim.EventHorizon = true
			if _, err := warmSim.Run(spec.build()); (err != nil) != (denseErr != nil) {
				t.Fatalf("horizon warm-up error mismatch: %v vs %v", err, denseErr)
			}
			plainCfs := spec.build()
			plainSim := netsim.NewSimulator(fab, sched)
			plainSim.Events = spec.events
			plainSim.Deps = spec.deps
			plainRep, plainErr := plainSim.Run(plainCfs)
			compareRuns(t, pair.name+"/after-horizon", &spec,
				plainCfs, denseCfs, plainRep, denseRep, plainErr, denseErr)
		})
	}
}
