package coflow

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// tableKeyer keys coflows from a table the test edits, so a re-key step is
// just a table write (plus MarkSimMoved, so the order re-reads the key).
type tableKeyer []float64

func (k tableKeyer) orderKey(c *Coflow, _ *allocScratch) float64 { return k[c.ID] }

// TestOrderStateMatchesFullSort drives the incremental order through random
// admits, departures, re-keys, handoffs to another order and reruns after
// BeginSim, and checks after every epoch that it equals a full sort of the
// active set. Keys and arrivals come from tiny ranges so ties are common.
// sparse=true marks only the re-keyed coflows moved, as the engine does for
// the coflows a scheduler granted; sparse=false marks every active coflow
// moved each epoch, as it does for a scheduler that grants everywhere.
func TestOrderStateMatchesFullSort(t *testing.T) {
	for _, n := range []int{1, 2, 7, 60, 2000} {
		for _, tc := range []struct {
			mode   orderMode
			sparse bool
		}{
			{orderMode{dynamic: true}, false},
			{orderMode{dynamic: true, tieArrival: true}, false},
			{orderMode{dynamic: true}, true},
			{orderMode{dynamic: true, tieArrival: true}, true},
			{orderMode{}, false},
			{orderMode{tieArrival: true}, false},
		} {
			mode := tc.mode
			name := fmt.Sprintf("n=%d/dynamic=%v/sparse=%v/tieArrival=%v", n, mode.dynamic, tc.sparse, mode.tieArrival)
			t.Run(name, func(t *testing.T) { checkOrderChurn(t, n, mode, tc.sparse) })
		}
	}
}

func checkOrderChurn(t *testing.T, n int, mode orderMode, sparse bool) {
	rng := rand.New(rand.NewSource(int64(n)))
	pool := make([]*Coflow, n)
	keys := make(tableKeyer, n)
	for i := range pool {
		pool[i] = New(i, "p", float64(rng.Intn(3)), []Flow{{Src: 0, Dst: 1, Size: 1}})
		keys[i] = float64(rng.Intn(5))
	}
	var st, other orderState
	var s allocScratch
	s.ensure(2)
	in := make(map[*Coflow]bool)
	var active []*Coflow
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(20); {
		case op < 7: // admit a few
			for j := rng.Intn(4); j >= 0; j-- {
				if c := pool[rng.Intn(n)]; !in[c] {
					in[c] = true
					active = append(active, c)
				}
			}
		case op < 12: // depart a few, compacting in place like the engine
			drop := rng.Intn(4)
			active = slices.DeleteFunc(active, func(c *Coflow) bool {
				if drop > 0 && rng.Intn(3) == 0 {
					drop--
					delete(in, c)
					return true
				}
				return false
			})
		case op < 18: // re-key members and outsiders alike
			for j := rng.Intn(2 + n/10); j >= 0; j-- {
				c := pool[rng.Intn(n)]
				keys[c.ID] = float64(rng.Intn(5))
				c.MarkSimMoved()
			}
		case op == 18: // another scheduler drives the same coflows once
			other.update(active, keys, mode, &s)
		default: // a new run reuses the coflows
			for _, c := range pool {
				c.BeginSim(2)
			}
			clear(in)
			active = active[:0]
			for _, c := range pool {
				if rng.Intn(2) == 0 {
					in[c] = true
					active = append(active, c)
				}
			}
		}
		if !sparse {
			for _, c := range active {
				c.MarkSimMoved()
			}
		}
		st.update(active, keys, mode, &s)
		if !mode.dynamic {
			// Static keys are read once, on joining; only newcomers follow
			// the table, so the reference sorts on the keys actually held.
			for _, c := range active {
				keys[c.ID] = c.schedKey
			}
		}
		for _, c := range active {
			if c.schedKey != keys[c.ID] {
				t.Fatalf("step %d: coflow %d holds key %v, table says %v", step, c.ID, c.schedKey, keys[c.ID])
			}
		}
		want := slices.Clone(active)
		slices.SortFunc(want, func(a, b *Coflow) int { return keyCmp(a, b, mode.tieArrival) })
		if !slices.Equal(st.order, want) {
			t.Fatalf("step %d: order %v, full sort %v", step, ids(st.order), ids(want))
		}
	}
}

// TestOrderStateAcrossStampBlocks runs one order past two stamp-block
// boundaries, where its membership stamps jump to a freshly reserved block,
// with the membership changing every epoch.
func TestOrderStateAcrossStampBlocks(t *testing.T) {
	cs := make([]*Coflow, 3)
	for i := range cs {
		cs[i] = New(i, "b", 0, []Flow{{Src: 0, Dst: 1, Size: 1}})
	}
	keys := tableKeyer{2, 1, 0}
	var st orderState
	var s allocScratch
	s.ensure(2)
	for e := 0; e < 2*stampBlock+3; e++ {
		active := cs[e%2 : 2+e%2]
		st.update(active, keys, orderMode{}, &s)
		if want := []*Coflow{active[1], active[0]}; !slices.Equal(st.order, want) {
			t.Fatalf("epoch %d: order %v, want %v", e, ids(st.order), ids(want))
		}
	}
}

func ids(cs []*Coflow) []int {
	out := make([]int, len(cs))
	for i, c := range cs {
		out[i] = c.ID
	}
	return out
}

// BenchmarkOrderChurn measures one Varys Allocate with n coflows
// resident on a saturated 16-port fabric, where each op admits one coflow,
// retires the oldest and moves one more (its Γ changes). Per-op cost should
// grow linearly in n: the order is merged, not re-sorted.
func BenchmarkOrderChurn(b *testing.B) {
	const ports = 16
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pool := make([]*Coflow, n+1)
			for i := range pool {
				var flows []Flow
				for f := 0; f < 4; f++ {
					flows = append(flows, Flow{Src: (i + f) % ports, Dst: (i + 3*f + 1) % ports, Size: float64(1 + (i*7+f)%97)})
				}
				pool[i] = New(i, "churn", float64(i), flows)
				pool[i].BeginSim(ports)
			}
			sched := NewVarys()
			eg, in := make([]float64, ports), make([]float64, ports)
			refill := func() {
				for p := range eg {
					eg[p], in[p] = 1, 1
				}
			}
			active := slices.Clone(pool[:n])
			spare := pool[n]
			refill()
			sched.Allocate(0, active, eg, in)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Retire the oldest coflow and admit a fresh one.
				gone := active[0]
				active = append(active[:0], active[1:]...)
				spare.Arrival = float64(n + i)
				spare.BeginSim(ports)
				active = append(active, spare)
				spare = gone
				// Move one resident coflow.
				c := active[(i*31)%n]
				c.Flows[0].Remaining *= 0.5
				c.MarkSimMoved()
				refill()
				sched.Allocate(float64(i), active, eg, in)
			}
		})
	}
}
