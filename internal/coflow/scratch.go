package coflow

// Allocation-free scratch state for the scheduling hot path.
//
// Every scheduler used to rebuild map[int]float64 demand maps, map[int]int
// fairness counters, and fresh order slices on every epoch — millions of
// heap allocations per simulation. The schedulers now own an allocScratch
// (or borrow one from a pool, for the stateless baselines) whose dense
// per-port buffers are sized once to the fabric and *reset* between uses by
// walking only the ports actually touched. Combined with the per-coflow
// live-flow caches (see Coflow.BeginSim), a steady-state scheduling epoch
// performs zero heap allocations — property-tested to be bit-identical to
// the retained map-based implementation in internal/refsim.

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
)

// allocScratch holds the dense per-port buffers one scheduler needs for one
// epoch. All slices are sized to the fabric's port count by ensure and are
// zero/empty between uses (each consumer clears exactly what it touched).
// Not safe for concurrent use.
type allocScratch struct {
	// need accumulates per-port remaining bytes (maddAllocate, Bottleneck
	// keys, deadline admission); cnt counts flows per port (waterFill
	// levels, and doubles as the "port already touched" marker everywhere).
	egNeed, inNeed []float64
	egCnt, inCnt   []int
	// touched lists the ports with a non-zero cnt entry so clearing is
	// O(ports touched), not O(ports).
	egTouched, inTouched []int
	// fill holds waterFill's unfrozen flows (emptied after each call).
	fill []fillFlow
	// flows and subset are reusable flow-list buffers (activeFlows, and
	// SequentialByDest's destination filter).
	flows, subset []*Flow
}

// ensure sizes the per-port buffers for a fabric of n ports, growing (never
// shrinking) so a scratch can serve fabrics of different sizes in turn.
func (s *allocScratch) ensure(n int) {
	if len(s.egNeed) >= n {
		return
	}
	s.egNeed = make([]float64, n)
	s.inNeed = make([]float64, n)
	s.egCnt = make([]int, n)
	s.inCnt = make([]int, n)
	if cap(s.egTouched) < n {
		s.egTouched = make([]int, 0, n)
		s.inTouched = make([]int, 0, n)
	}
}

// scratchPool serves the stateless value-type schedulers (PerFlowFair,
// SequentialByDest) that cannot own a scratch across calls without an API
// break. Get/Put is allocation-free at steady state.
var scratchPool = sync.Pool{New: func() any { return new(allocScratch) }}

// orderState keeps a scheduler's priority order alive across epochs and
// maintains it incrementally. Each epoch (update) it
//
//  1. detects membership exactly with a per-epoch stamp: a coflow whose
//     simCache stamp equals the order's previous stamp was served last
//     epoch; every other active coflow is a newcomer. No two orders (and no
//     two epochs) share a stamp (see nextStamp), and BeginSim zeroes a
//     coflow's stamp so a coflow reused by the next run re-enters as new;
//  2. keys the newcomers fresh and, for dynamic keys, re-keys the members
//     the engine marked moved, and collects the dirty set: the newcomers
//     plus the members whose key actually changed. With no dirty coflow and
//     no departure the order stands as it is;
//  3. drops departed and dirty coflows from the order in one stable in-place
//     compaction, sorts only the k dirty coflows, and
//  4. merges them back into the untouched remainder in one linear pass into
//     a reused double buffer.
//
// keyCmp is a strict total order and clean coflows keep their keys, so the
// remainder is still sorted and the merge yields the unique sorted
// permutation — the order a full re-sort would produce — in O(n + k log k)
// per epoch instead of a full re-sort.
type orderState struct {
	order []*Coflow // the persistent, sorted serving order
	spare []*Coflow // merge target; swapped with order after each merge
	dirty []*Coflow // this epoch's newcomers and re-keyed coflows
	stamp uint64    // membership stamp of the last epoch (0: none yet)
}

// orderStamps hands out membership stamps to every orderState in blocks of
// stampBlock, so stamps are unique process-wide while concurrent simulations
// touch the shared counter only once per stampBlock epochs.
var orderStamps atomic.Uint64

const stampBlock = 1 << 16

// nextStamp returns the order's stamp for a new epoch.
func (st *orderState) nextStamp() uint64 {
	if st.stamp%stampBlock == 0 { // no block yet, or this one is used up
		return orderStamps.Add(stampBlock) - stampBlock + 1
	}
	return st.stamp + 1
}

// A keyer computes one scheduler's priority key for a coflow (smaller
// serves first), using s for any per-port demand buffers it needs.
type keyer interface {
	orderKey(c *Coflow, s *allocScratch) float64
}

// orderMode says how a scheduler's keys behave. A coflow joining the order
// is always keyed fresh. dynamic keys drift as bytes move, so a member is
// re-keyed whenever the engine marked it moved (see sparse.go); static keys
// are computed only on joining. tieArrival breaks key ties by arrival
// before ID.
type orderMode struct {
	dynamic, tieArrival bool
}

// update brings the order in line with the active set for one epoch (see
// orderState). s must be ensured to the fabric.
func (st *orderState) update(active []*Coflow, k keyer, mode orderMode, s *allocScratch) {
	next := st.nextStamp()
	dirty := st.dirty[:0]
	members, moved := 0, false
	for _, c := range active {
		if st.stamp != 0 && c.sim.ordStamp == st.stamp {
			c.sim.ordStamp = next
			members++
			if mode.dynamic && c.sim.moved && rekey(c, k, s) {
				moved = true
			}
		} else {
			// A newcomer's rates were not set by this order's scheduler,
			// which resets only the rates it granted: start them at 0.
			for _, f := range c.Flows {
				f.Rate = 0
			}
			rekey(c, k, s)
			dirty = append(dirty, c)
		}
	}
	if len(dirty) == 0 && !moved && members == len(st.order) {
		st.stamp = next // same members, same keys: the order stands
		return
	}

	// Compact: keep the members confirmed above whose key did not change.
	// Newcomers are not stamped yet, so a stale entry left from a previous
	// run (or from another scheduler's epochs) is dropped with the departed.
	clean := st.order[:0]
	for _, c := range st.order {
		switch {
		case c.sim.ordStamp != next:
		case c.sim.reorder:
			dirty = append(dirty, c)
		default:
			clean = append(clean, c)
		}
	}
	// Buffers never hold a coflow the order no longer serves, so a released
	// coflow is not kept alive by a stale slot.
	clear(st.order[len(clean):])
	for _, c := range dirty {
		c.sim.ordStamp, c.sim.reorder = next, false
	}
	st.stamp = next
	if len(dirty) == 0 {
		st.order = clean
		return
	}
	byKey := cmpKey
	if mode.tieArrival {
		byKey = cmpKeyArrival
	}
	slices.SortFunc(dirty, byKey)
	st.order = mergeSorted(st.spare[:0], clean, dirty, byKey)
	clear(clean)
	clear(dirty)
	st.spare, st.dirty = clean[:0], dirty[:0]
}

// mergeSorted appends the merge of the sorted slices a and b to out. Each
// element of b is placed by binary search in what remains of a, and the
// runs of a in between are copied whole, so a handful of dirty coflows cost
// O(k log n) comparisons plus one linear copy.
func mergeSorted(out, a, b []*Coflow, byKey func(x, y *Coflow) int) []*Coflow {
	for _, c := range b {
		i, _ := slices.BinarySearchFunc(a, c, byKey)
		out = append(out, a[:i]...)
		out = append(out, c)
		a = a[i:]
	}
	return append(out, a...)
}

// rekey recomputes the coflow's priority key and clears its moved mark; a
// changed key marks the coflow for re-insertion and reports true.
func rekey(c *Coflow, k keyer, s *allocScratch) bool {
	c.sim.moved = false
	return c.setKey(k.orderKey(c, s))
}

// setKey stores the coflow's priority key and, when the key changed, marks
// the coflow for re-insertion into the order and reports true.
func (c *Coflow) setKey(k float64) bool {
	if k == c.schedKey {
		return false
	}
	c.schedKey = k
	c.sim.reorder = true
	return true
}

// keyCmp is the shared order predicate: schedKey, then (optionally) arrival,
// then ID. With unique coflow IDs this is a strict total order, so any
// correct sort yields the same unique permutation the original
// sort.SliceStable produced.
func keyCmp(a, b *Coflow, tieArrival bool) int {
	switch {
	case a.schedKey < b.schedKey:
		return -1
	case a.schedKey > b.schedKey:
		return 1
	case tieArrival && a.Arrival < b.Arrival:
		return -1
	case tieArrival && a.Arrival > b.Arrival:
		return 1
	}
	return cmp.Compare(a.ID, b.ID)
}

// cmpKey and cmpKeyArrival are keyCmp with the arrival tie-break off and on,
// as named functions so passing them to the sort allocates nothing.
func cmpKey(a, b *Coflow) int        { return keyCmp(a, b, false) }
func cmpKeyArrival(a, b *Coflow) int { return keyCmp(a, b, true) }

// insertionSortByArrival stable-sorts coflows by arrival time without
// allocating (the simulator's admission queue; almost always already in
// order). Stable sorts are unique, so the result matches sort.SliceStable.
func insertionSortByArrival(cs []*Coflow) {
	for i := 1; i < len(cs); i++ {
		c := cs[i]
		j := i - 1
		for j >= 0 && c.Arrival < cs[j].Arrival {
			cs[j+1] = cs[j]
			j--
		}
		cs[j+1] = c
	}
}

// InsertionSortByArrival exposes the allocation-free stable arrival sort for
// the simulator's admission queue.
func InsertionSortByArrival(cs []*Coflow) { insertionSortByArrival(cs) }
