package netsim_test

import (
	"testing"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
	"ccf/internal/refsim"
)

// TestDepsReleaseAdmitsAtCompletion pins when a dependency-gated coflow
// starts: at the completion that releases it, even while unrelated coflows
// keep the fabric busy. A (100 B, 0→1) finishes at t=1 and releases B
// (100 B, 0→1), which then runs from 1 to 2, while C (1000 B, 2→3) runs
// from 0 to 10. Admitting B only at the next unrelated event would start it
// at t=10. The simulator and refsim must agree.
func TestDepsReleaseAdmitsAtCompletion(t *testing.T) {
	build := func() []*coflow.Coflow {
		return []*coflow.Coflow{
			coflow.New(0, "A", 0, []coflow.Flow{{ID: 0, Src: 0, Dst: 1, Size: 100}}),
			coflow.New(1, "B", 0, []coflow.Flow{{ID: 0, Src: 0, Dst: 1, Size: 100}}),
			coflow.New(2, "C", 0, []coflow.Flow{{ID: 0, Src: 2, Dst: 3, Size: 1000}}),
		}
	}
	deps := map[int][]int{1: {0}}
	fab, err := netsim.NewFabric(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, cfs []*coflow.Coflow, rep *netsim.Report) {
		t.Helper()
		b := cfs[1]
		if b.Arrival != 1 || b.Completion != 2 || rep.CCTs[1] != 1 {
			t.Errorf("%s: B ran from %v to %v (CCT %v), want 1 to 2", name, b.Arrival, b.Completion, rep.CCTs[1])
		}
		if rep.Makespan != 10 {
			t.Errorf("%s: makespan %v, want 10", name, rep.Makespan)
		}
	}

	cfs := build()
	sim := netsim.NewSimulator(fab, coflow.NewVarys())
	sim.Deps = deps
	rep, err := sim.Run(cfs)
	if err != nil {
		t.Fatal(err)
	}
	check("netsim", cfs, rep)

	refCfs := build()
	ref := refsim.NewSimulator(fab, refsim.NewVarys())
	ref.Deps = deps
	refRep, err := ref.Run(refCfs)
	if err != nil {
		t.Fatal(err)
	}
	check("refsim", refCfs, refRep)
}
