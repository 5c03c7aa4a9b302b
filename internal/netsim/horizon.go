package netsim

// The event loop: every run, session and scheduler goes through
// Session.loop below (DESIGN.md §16).
//
// Time jumps epoch to event — dt is the minimum over flow completions,
// arrivals, capacity events and failure edges — and the cost of an epoch
// scales with the coflows whose state changed, not with everything queued
// or active:
//
//   - admission walks only the arrival-sorted queue's prefix whose arrival
//     has passed. It admits, in order, the coflows whose predecessors (Deps)
//     are done; the ones still waiting slide up to the front of the queue,
//     where the next admission walks them again. Without Deps this is a plain
//     prefix pop. A completion that releases a waiting coflow re-runs
//     admission at the same instant;
//   - the retirement scan runs only on epochs that could have produced a
//     newly-finished coflow: after an advance with completions, or after an
//     admission (a zero-flow coflow finishes on its admission epoch).
//     Nothing else finishes a coflow — failure edges only un-finish flows —
//     so a skipped scan is one that would have found nothing;
//   - the fused rate/usage/dt pass, the advance pass and the failure passes
//     iterate active coflows × LiveFlows, restricted to the coflows the
//     scheduler granted rates (coflow.SparseAllocator). A scheduler that
//     does not report grants is treated as granting everywhere. Ungranted
//     flows carry rate 0: they would add +0.0 to the port sums (exact — the
//     sums start at +0 and never see negative terms) and move no bytes;
//   - the time to the next completion is a running min(Remaining/Rate) over
//     the granted flows. Every granted rate is computed afresh each epoch
//     (MADD's τ and water-filling's α drift as bytes move), so no projection
//     could be carried from one epoch to the next anyway.
//
// The loop marks every coflow it advances as moved (coflow.MarkSimMoved), so
// a scheduler re-keys only those; failure edges mark the coflows whose
// progress they void.

import (
	"fmt"
	"math"

	"ccf/internal/coflow"
)

// loop runs fluid epochs between completions, arrivals, capacity events and
// failure edges, stopping once `now` reaches `stop` (or the legacy
// Simulator.Horizon) or the session drains. It is allocation-free at steady
// state.
func (ss *Session) loop(stop float64) error {
	s := ss.s
	sc := &s.scratch
	rep := ss.rep
	ports := s.fabric.Ports
	hz := s.Horizon
	sa, _ := s.sched.(coflow.SparseAllocator)
	haveDeps := len(s.Deps) > 0
	completed := sc.completed
	egFac, inFac := sc.egFac[:ports], sc.inFac[:ports]
	egCap, inCap := sc.egCap[:ports], sc.inCap[:ports]
	egUse, inUse := sc.egUse[:ports], sc.inUse[:ports]
	downCnt := sc.downCnt[:ports]
	failEv := sc.failEv
	haveFail := ss.haveFail

	now := ss.now
	active := ss.active
	events, nextFail := ss.events, ss.nextFail
	// save parks the loop state back in the session; called (not deferred —
	// a deferred closure would allocate) before every exit.
	save := func() {
		ss.now, ss.active = now, active
		ss.events, ss.nextFail = events, nextFail
	}

	// scanRetire arms the retirement scan. It starts armed (a resumed loop
	// re-checks once) and re-arms on the only transitions that can finish a
	// coflow: advance completions and admissions.
	scanRetire := true
	for {
		if ss.iter >= s.MaxEpochs {
			save()
			return fmt.Errorf("netsim: exceeded %d epochs (scheduler %q livelock?)", s.MaxEpochs, s.sched.Name())
		}
		ss.iter++
		// Admissions: pending[head:end] is the prefix whose arrival has
		// passed. Coflows whose predecessors are done are admitted in queue
		// order, with a dependency-gated arrival lifted to its release time
		// so its CCT measures active transfer. The still-waiting ones are
		// compacted to pending[head:w] and then moved up to end, so the
		// queue stays contiguous and arrival-sorted from the new head.
		q := ss.pending
		w, end := ss.head, ss.head
		for ; end < len(q) && q[end].Arrival <= now+1e-12; end++ {
			c := q[end]
			if !s.depsDone(c, completed) {
				q[w] = c
				w++
				continue
			}
			if c.Arrival < now {
				c.Arrival = now
			}
			active = append(active, c)
			scanRetire = true
			if s.Probe != nil {
				s.Probe.CoflowAdmitted(now, c)
			}
		}
		waiting := w - ss.head
		copy(q[end-waiting:end], q[ss.head:w])
		ss.head = end - waiting
		for len(events) > 0 && events[0].Time <= now+1e-12 {
			ev := events[0]
			events = events[1:]
			egFac[ev.Port] = ev.EgressFactor
			inFac[ev.Port] = ev.IngressFactor
		}
		// Down edges void progress per the retransmission policy and may
		// re-enter delivered flows into their coflows' live sets; both
		// edges invalidate capacity-dependent scheduler state (deadline
		// admissions).
		for nextFail < len(failEv) && failEv[nextFail].time <= now+1e-12 {
			tr := failEv[nextFail]
			nextFail++
			if tr.up {
				downCnt[tr.port]--
			} else {
				downCnt[tr.port]++
				s.applyPortDown(tr, now, active, rep)
			}
			if s.Probe != nil {
				s.Probe.FailureEdge(now, tr.port, tr.up)
			}
			if ss.obs != nil {
				ss.obs.CapacityChanged(now)
			}
		}
		if scanRetire {
			scanRetire = false
			retired := false
			liveCF := active[:0]
			for _, c := range active {
				if c.Finished() {
					if !c.Completed {
						c.Completed = true
						c.Completion = now
						if haveDeps {
							completed[c.ID] = true
						}
						cct, err := c.CCT()
						if err != nil {
							save()
							return err
						}
						rep.CCTs[c.ID] = cct
						ss.retired++
						retired = true
						if s.Probe != nil {
							s.Probe.CoflowCompleted(now, c)
						}
					}
					continue
				}
				liveCF = append(liveCF, c)
			}
			active = liveCF
			if ss.release {
				ss.releaseCompleted()
			}
			// A completion that released a waiting coflow (the first ready
			// coflow has already arrived) admits it at this instant, not at
			// the next unrelated event.
			if retired && haveDeps {
				if next := ss.nextReady(); next != nil && next.Arrival <= now+1e-12 {
					continue
				}
			}
		}

		if hz >= 0 && now >= hz-1e-12 {
			now = hz
			break
		}
		if now >= stop-1e-12 {
			break
		}
		if len(active) == 0 {
			if ss.head == len(ss.pending) {
				break
			}
			next := ss.nextReady()
			if next == nil {
				save()
				return fmt.Errorf("netsim: %d coflows blocked on dependencies that can never complete (cycle?)",
					len(ss.pending)-ss.head)
			}
			if hz >= 0 && next.Arrival >= hz {
				now = hz
				break
			}
			if next.Arrival > stop {
				break
			}
			if next.Arrival > now {
				now = next.Arrival
			}
			continue
		}

		// Scheduling epoch.
		rep.Epochs++
		for p := 0; p < ports; p++ {
			egCap[p] = s.fabric.EgressCap[p] * egFac[p]
			inCap[p] = s.fabric.IngressCap[p] * inFac[p]
			egUse[p], inUse[p] = 0, 0
		}
		if haveFail {
			for p, d := range downCnt {
				if d > 0 {
					egCap[p], inCap[p] = 0, 0
				}
			}
		}
		s.sched.Allocate(now, active, egCap, inCap)

		// One fused pass over the granted flows, in active × live order:
		// validate rates, accumulate per-port usage, and find the time to
		// the next completion.
		grantAll := sa == nil || sa.LastGrantDense()
		dt := math.Inf(1)
		for _, c := range active {
			if !grantAll && !c.SimGranted() {
				continue
			}
			for _, f := range c.LiveFlows() {
				if f.Rate < 0 {
					save()
					return fmt.Errorf("netsim: scheduler %q set negative rate %g on flow %d", s.sched.Name(), f.Rate, f.ID)
				}
				egUse[f.Src] += f.Rate
				inUse[f.Dst] += f.Rate
				if f.Rate > 0 {
					if t := f.Remaining / f.Rate; t < dt {
						dt = t
					}
				}
			}
		}
		// Port capacity check with 0.1% tolerance for float accumulation —
		// keeps every scheduler honest under the property tests.
		const tolAbs = 1e-9
		tol := 1 + 1e-3
		for p := 0; p < ports; p++ {
			egLim := s.fabric.EgressCap[p] * egFac[p] * tol
			inLim := s.fabric.IngressCap[p] * inFac[p] * tol
			if haveFail && downCnt[p] > 0 {
				egLim, inLim = 0, 0
			}
			if egUse[p] > egLim+tolAbs || inUse[p] > inLim+tolAbs {
				save()
				return fmt.Errorf("netsim: scheduler %q oversubscribed port %d (eg=%.3g/%.3g in=%.3g/%.3g)",
					s.sched.Name(), p, egUse[p], egLim, inUse[p], inLim)
			}
		}

		// ... or the next arrival of a coflow whose predecessors are done,
		// capacity event or failure edge, whichever comes first. A gated
		// coflow is released by a completion, which is already a dt
		// boundary.
		if next := ss.nextReady(); next != nil {
			if t := next.Arrival - now; t >= 0 && t < dt {
				dt = t
			}
		}
		if len(events) > 0 {
			if t := events[0].Time - now; t < dt {
				dt = t
			}
		}
		if nextFail < len(failEv) {
			if t := failEv[nextFail].time - now; t < dt {
				dt = t
			}
		}
		if hz >= 0 && now+dt > hz {
			dt = hz - now
		}
		// An Advance stop bounds the epoch exactly the way a pending arrival
		// does (same expression, same comparison), so a session stopping at
		// an arrival takes the very float step the straight-through run —
		// which has that arrival queued — takes.
		if t := stop - now; t >= 0 && t < dt {
			dt = t
		}
		if math.IsInf(dt, 1) {
			save()
			return fmt.Errorf("%w: %d coflows active under scheduler %q", ErrStalled, len(active), s.sched.Name())
		}
		if s.Probe != nil {
			probeEg, probeIn := sc.probeEg[:ports], sc.probeIn[:ports]
			for p := 0; p < ports; p++ {
				probeEg[p] = s.fabric.EgressCap[p] * egFac[p]
				probeIn[p] = s.fabric.IngressCap[p] * inFac[p]
				if haveFail && downCnt[p] > 0 {
					probeEg[p], probeIn[p] = 0, 0
				}
			}
			s.Probe.EpochSample(now, dt, active, egUse, inUse, probeEg, probeIn)
		}

		// Advance over the same flow sequence; coflows with completions are
		// collected (flows are grouped by coflow, so last-element dedup is
		// exact) and their live caches compacted once each.
		now += dt
		dirty := sc.dirty[:0]
		for _, c := range active {
			if !grantAll && !c.SimGranted() {
				continue
			}
			c.MarkSimMoved()
			for _, f := range c.LiveFlows() {
				if f.Rate <= 0 {
					continue
				}
				moved := f.Rate * dt
				if moved > f.Remaining {
					moved = f.Remaining
				}
				f.Remaining -= moved
				c.SentBytes += moved
				rep.TotalBytes += moved
				if f.Remaining <= completionEps {
					f.Remaining = 0
					f.Done = true
					f.EndTime = now
					if len(dirty) == 0 || dirty[len(dirty)-1] != c {
						dirty = append(dirty, c)
					}
				}
			}
		}
		sc.dirty = dirty
		if len(dirty) > 0 {
			scanRetire = true
			for _, c := range dirty {
				c.RefreshSim()
			}
		}
	}
	save()
	return nil
}

// nextReady returns the first queued coflow whose predecessors are all
// done, or nil. The queue is arrival-sorted, so without Deps it is the
// queue's head.
func (ss *Session) nextReady() *coflow.Coflow {
	for _, c := range ss.pending[ss.head:] {
		if ss.s.depsDone(c, ss.s.scratch.completed) {
			return c
		}
	}
	return nil
}
