package coflow

// Event-horizon allocation: the scheduler side of the event loop in
// internal/netsim, in which per-epoch cost scales with what *changed* since
// the last epoch, not with everything active (DESIGN.md §16).
//
// The results are those of the plain formulation (internal/refsim), bit for
// bit. Every shortcut below is a proof-carrying no-op:
//
//   - a coflow that joins an order is keyed fresh; a member's priority key
//     is recomputed only when the engine marked the coflow moved (bytes
//     advanced, a flow completed or was reactivated, a failure voided
//     progress). A clean coflow's key is a pure function of unchanged
//     state, so the cached float is the bit a re-key would produce;
//   - only coflows that joined or whose recomputed key differs from its
//     cached value are re-inserted into the persistent order: they are
//     sorted among themselves and merged into the untouched remainder
//     (orderState.update). The remainder keeps its keys and so stays
//     sorted, and the comparator is a strict total order, so the merge is
//     the unique sorted permutation a full re-sort would produce;
//   - a coflow whose port set touches a port with no residual capacity is
//     skipped before demand accumulation: maddAllocate's blocked branch
//     (the early break over the same port sets) has no state effects, so
//     not calling it at all is exact. The last blocking port is memoized,
//     making the re-check O(1) while the port stays saturated;
//   - the work-conserving backfill is skipped whenever any coflow was
//     blocked: that coflow's live flows sit unfrozen on a port with
//     capacity ≤ 0, MADD grants only ever subtract capacity, so
//     water-filling's first level computes α ≤ 0 and freezes everything
//     without granting — a pure no-op on rates and capacities;
//   - rate resets walk only the coflows granted rates by the previous
//     Allocate (writing 0 over 0 is the identity), and a coflow joining the
//     order starts at rate 0 (orderState.update). When the backfill ran,
//     every active coflow was granted, and the reset falls back to the
//     full pass. Done flows dropped from the live cache may keep a stale
//     Rate that a full reset would have zeroed; no reader observes done
//     flows' rates (the engine and telemetry iterate live flows only).
//
// The engine's half of the contract: call MarkSimMoved on every coflow
// whose progress state changes, and read SimGranted/LastGrantDense to
// restrict its own flow passes to rate-carrying coflows.

// SparseAllocator is implemented by schedulers that report which coflows
// their last Allocate granted rates. The event engine restricts its flow
// passes to those coflows; a scheduler that does not implement it is
// treated as granting rates everywhere.
type SparseAllocator interface {
	Scheduler
	// LastGrantDense reports whether the last Allocate's backfill granted
	// rates across the whole active set. When false, exactly the coflows
	// with SimGranted carry nonzero rates.
	LastGrantDense() bool
}

// MarkSimMoved records that the coflow's progress state (remaining bytes,
// live-flow set, or sent bytes) changed, invalidating its cached priority
// key. Code that drives Allocate itself must call it after changing a
// coflow's progress, or the coflow keeps its old place in the order.
func (c *Coflow) MarkSimMoved() { c.sim.moved = true }

// SimGranted reports whether the last Allocate granted this coflow nonzero
// rates. Meaningful only between Allocate calls of a SparseAllocator.
func (c *Coflow) SimGranted() bool { return c.sim.granted }

// blockedOn reports whether maddAllocate would find one of the coflow's
// ports with no residual capacity — exactly its blocked condition, computed
// over the same cached port sets (over its flows, for a coflow outside any
// simulation) — without touching scratch state. The
// blocking port is memoized (validated against the live port counts, since
// completions can drop a port from the set) so steady-state re-checks of a
// still-blocked coflow cost O(1).
func (c *Coflow) blockedOn(egCap, inCap []float64) bool {
	if !c.sim.valid {
		for _, f := range c.Flows {
			if !f.Done && (egCap[f.Src] <= 0 || inCap[f.Dst] <= 0) {
				return true
			}
		}
		return false
	}
	if h := c.sim.blockEg; h >= 0 && c.sim.egCnt[h] > 0 && egCap[h] <= 0 {
		return true
	}
	if h := c.sim.blockIn; h >= 0 && c.sim.inCnt[h] > 0 && inCap[h] <= 0 {
		return true
	}
	for _, p := range c.sim.egPorts {
		if egCap[p] <= 0 {
			c.sim.blockEg = p
			return true
		}
	}
	for _, p := range c.sim.inPorts {
		if inCap[p] <= 0 {
			c.sim.blockIn = p
			return true
		}
	}
	return false
}

// sparseState is the per-scheduler half of the event-horizon bookkeeping:
// the coflows granted rates by the last Allocate (for the O(granted) rate
// reset) and whether the backfill went dense.
type sparseState struct {
	granted []*Coflow
	dense   bool
}

// reset zeroes the rates the previous Allocate assigned: the granted
// coflows' live flows, or the dense reset when the backfill granted
// everywhere. Identical to resetRates where observable — flows outside the
// granted set already carry rate 0 (writing 0 over 0 is the identity).
func (sp *sparseState) reset(active []*Coflow) {
	if sp.dense {
		sp.dense = false
		resetRates(active)
		for _, c := range sp.granted {
			c.sim.granted = false
		}
	} else {
		for _, c := range sp.granted {
			c.sim.granted = false
			flows := c.sim.live
			if !c.sim.valid {
				flows = c.Flows
			}
			for _, f := range flows {
				f.Rate = 0
			}
		}
	}
	sp.granted = sp.granted[:0]
}

// serve runs the MADD pass over the priority order with the blocked-coflow
// skip, recording grants. Returns whether any coflow was blocked (which
// makes the work-conserving backfill a guaranteed no-op; see file comment).
func (sp *sparseState) serve(order []*Coflow, egCap, inCap []float64, s *allocScratch) (anyBlocked bool) {
	for _, c := range order {
		if c.blockedOn(egCap, inCap) {
			anyBlocked = true
			continue
		}
		maddAllocate(c, egCap, inCap, s)
		c.sim.granted = true
		sp.granted = append(sp.granted, c)
	}
	return anyBlocked
}

// LastGrantDense implements SparseAllocator.
func (o *orderedMADD) LastGrantDense() bool { return o.sparse.dense }

// LastGrantDense implements SparseAllocator.
func (a *Aalo) LastGrantDense() bool { return a.sparse.dense }

// EffectiveWeight returns the coflow's weight with the zero value mapped to
// the default weight 1 (see the Weight field).
func (c *Coflow) EffectiveWeight() float64 {
	if c.Weight > 0 {
		return c.Weight
	}
	return 1
}
