package netsim_test

// Differential test of the water-filling backfill against internal/refsim,
// one Allocate call at a time. Capacities are non-dyadic and large, so a
// filling round often leaves the limiting port a float residue just above
// the freeze threshold: the round freezes nothing and the fallback freezes
// one flow on the fullest port. Flows share ports, so several flows tie
// there and the fallback's tie rule (the first in flow order) decides which
// one stops. Whole-run equivalence rarely reaches that rule; this test
// compares every rate and residual capacity bit for bit after each call.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ccf/internal/coflow"
	"ccf/internal/refsim"
)

// tightRoundSpec builds a few coflows whose flows crowd onto a handful of
// ports of a small fabric with uneven, non-dyadic capacities.
func tightRoundSpec(rng *rand.Rand) (ports int, egCap, inCap []float64, specs [][]coflow.Flow) {
	ports = 3 + rng.Intn(4)
	egCap = make([]float64, ports)
	inCap = make([]float64, ports)
	for p := range egCap {
		egCap[p] = (1 + rng.Float64()) * 1e9 / 3
		inCap[p] = (1 + rng.Float64()) * 1e9 / 7
	}
	for c := 1 + rng.Intn(4); c > 0; c-- {
		// Every coflow fans out of one hot egress port and into one hot
		// ingress port, plus a few flows elsewhere.
		hotSrc, hotDst := rng.Intn(ports), rng.Intn(ports)
		var flows []coflow.Flow
		for i := 2 + rng.Intn(7); i > 0; i-- {
			src, dst := rng.Intn(ports), rng.Intn(ports)
			switch rng.Intn(3) {
			case 0:
				src = hotSrc
			case 1:
				dst = hotDst
			}
			size := math.Ceil((1 + rng.Float64()) * 1e8)
			flows = append(flows, coflow.Flow{ID: len(flows), Src: src, Dst: dst, Size: size})
		}
		specs = append(specs, flows)
	}
	return ports, egCap, inCap, specs
}

func buildTight(specs [][]coflow.Flow, ports int, cache bool) []*coflow.Coflow {
	out := make([]*coflow.Coflow, len(specs))
	for i, flows := range specs {
		out[i] = coflow.New(i, fmt.Sprintf("t%d", i), 0, flows)
		if cache {
			out[i].BeginSim(ports)
		}
	}
	return out
}

// TestWaterFillTightRoundsMatchReference runs PerFlowFair (water-filling
// alone) and Varys (MADD residue, then the backfill) against their refsim
// copies on the same inputs and demands bit-identical rates and residual
// capacities.
func TestWaterFillTightRoundsMatchReference(t *testing.T) {
	pairs := []struct {
		name     string
		opt, ref func() coflow.Scheduler
	}{
		{"per-flow-fair",
			func() coflow.Scheduler { return coflow.PerFlowFair{} },
			func() coflow.Scheduler { return refsim.PerFlowFair{} }},
		{"varys", coflow.NewVarys, refsim.NewVarys},
	}
	for _, pair := range pairs {
		t.Run(pair.name, func(t *testing.T) {
			for seed := int64(0); seed < 400; seed++ {
				rng := rand.New(rand.NewSource(seed))
				ports, egCap, inCap, specs := tightRoundSpec(rng)
				cache := seed%2 == 0 // the live-flow cache path and the plain scan
				opt, ref := buildTight(specs, ports, cache), buildTight(specs, ports, false)
				optEg, optIn := append([]float64(nil), egCap...), append([]float64(nil), inCap...)
				refEg, refIn := append([]float64(nil), egCap...), append([]float64(nil), inCap...)
				pair.opt().Allocate(0, opt, optEg, optIn)
				pair.ref().Allocate(0, ref, refEg, refIn)
				for i := range opt {
					for j, f := range opt[i].Flows {
						if g := ref[i].Flows[j].Rate; math.Float64bits(f.Rate) != math.Float64bits(g) {
							t.Fatalf("seed %d: coflow %d flow %d rate %v, reference %v", seed, i, j, f.Rate, g)
						}
					}
				}
				for p := 0; p < ports; p++ {
					if math.Float64bits(optEg[p]) != math.Float64bits(refEg[p]) ||
						math.Float64bits(optIn[p]) != math.Float64bits(refIn[p]) {
						t.Fatalf("seed %d: port %d residual (eg %v, in %v), reference (eg %v, in %v)",
							seed, p, optEg[p], optIn[p], refEg[p], refIn[p])
					}
				}
			}
		})
	}
}
