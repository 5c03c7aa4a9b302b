package netsim

// Session is the resumable form of a simulation run: the same event loop
// (Session.loop, horizon.go) RunInto drives to completion, parked between
// calls so callers can interleave time with decisions. Run/RunInto are now thin wrappers over a session that
// is begun, fed every coflow up front, and advanced to the end in one call;
// the online co-optimizer instead keeps ONE session alive across a whole job
// stream — Advance(t) moves the live simulation to the next arrival,
// BacklogInto reads the in-flight per-port bytes the placement model needs,
// Admit injects the newly-placed coflow, and Finish runs the tail and
// aggregates the report. That turns the per-arrival backlog probe from
// "re-simulate the entire admitted history from t=0" (O(J²) simulator work
// over J jobs, with a deep clone per arrival) into "advance the one live
// simulation since the previous arrival" — O(J) total and zero per-arrival
// cloning.
//
// Determinism contract: a session advanced through stops t₁ ≤ t₂ ≤ … that
// all land on epoch boundaries of the equivalent straight-through run —
// coflow arrivals (of coflows admitted at their arrival), capacity-event and
// failure-edge times, completions — and that admits each coflow no later
// than its arrival produces bit-identical flow states, CCTs and makespan to
// a single RunInto over the same coflows. The loop's float arithmetic is
// unchanged — an Advance stop bounds an epoch with the same `arrival - now`
// expression a pending arrival does in a straight-through run, and the stop
// never clamps `now` — so boundary stops land on the same floats either way
// (pinned by TestSessionMatchesRunInto and the online equivalence suite).
// The online engine only ever stops at arrivals, which are boundaries by
// construction. A stop strictly inside a fluid interval is still *semantically*
// exact (rates are constant across the split, so the same bytes move), but
// the split changes float rounding, so downstream times may drift by ulps
// relative to an unstopped run.
//
// Concurrency/lifecycle: a Simulator hosts one activity at a time. Starting a
// session abandons any previous session of that simulator, and calling
// Run/RunInto while a session is live corrupts the session's state (both
// share the simulator's scratch). Sessions are not safe for concurrent use.
//
// Probes keep firing across Advance boundaries: BeginRun once at session
// start (with the coflows admitted so far — none, for Simulator.Session),
// CoflowAdmitted/CoflowCompleted/EpochSample/FailureEdge as the loop crosses
// them regardless of which Advance call drives it, and EndRun at Finish.
// PortFailure windows that straddle arrivals apply exactly as in a
// straight-through run: the down/up edges are simulation events, not
// per-Advance state.

import (
	"errors"
	"fmt"
	"math"

	"ccf/internal/coflow"
)

// Session is a resumable simulation over a Simulator's fabric and scheduler.
// Obtain one from Simulator.Session; the zero value is not usable.
type Session struct {
	s   *Simulator
	rep *Report
	// ownRep backs sessions begun without caller-owned report storage
	// (Simulator.Session); reused across sessions so steady-state reuse
	// allocates nothing.
	ownRep Report

	now      float64
	iter     int // event-loop iterations consumed, bounded by MaxEpochs
	pending  []*coflow.Coflow
	head     int // pending[:head] is already admitted (see stage)
	active   []*coflow.Coflow
	all      []admission     // every admitted coflow, in admission order
	kept     []int           // indices into all of the retained coflows
	events   []CapacityEvent // unapplied suffix of the sorted event schedule
	nextFail int
	haveFail bool
	obs      coflow.CapacityObserver
	begun    bool
	finished bool
	err      error

	// release mirrors Simulator.ReleaseCompleted for this session; retired
	// counts coflows completed since the last release sweep.
	release bool
	retired int
}

// admission is one admitted coflow as Digest and finalize see it: the
// coflow itself while retained, or, once ReleaseCompleted drops it, a
// tombstone holding everything its completed state contributes to either —
// its Remaining = +0 and Done flows need only be counted.
type admission struct {
	c *coflow.Coflow // nil once released
	// Tombstone fields, set at release.
	id, flows                   int
	arrival, completion, weight float64
}

// Session begins a resumable simulation session on the simulator, abandoning
// any previous session. Coflows are injected with Admit and time advances
// with Advance/Finish. The simulator's Events, Failures, Retransmit and
// Probe configuration apply to the session; Deps are honored but, because
// coflows stream in, dependency references are only resolved against coflows
// admitted so far (an unresolvable dependency surfaces as a blocked-coflows
// error from Advance, not as an upfront validation error the way Run reports
// it).
func (s *Simulator) Session() (*Session, error) {
	ss := &s.ses
	if err := ss.begin(s, nil); err != nil {
		return nil, err
	}
	if s.Probe != nil {
		s.Probe.BeginRun(s.fabric.Ports, s.fabric.EgressCap, s.fabric.IngressCap, nil, s.sched)
	}
	return ss, nil
}

// begin resets the session for a new run: validates and stages the event and
// failure schedules, sizes the scratch, and resets the report. rep == nil
// selects the session-owned report.
func (ss *Session) begin(s *Simulator, rep *Report) error {
	ports := s.fabric.Ports
	sc := &s.scratch
	*ss = Session{
		s:       s,
		ownRep:  ss.ownRep,
		pending: ss.pending[:0],
		active:  ss.active[:0],
		all:     ss.all[:0],
		kept:    ss.kept[:0],
		begun:   true,
	}
	if rep == nil {
		rep = &ss.ownRep
	}
	ss.rep = rep

	if sc.completed == nil {
		sc.completed = make(map[int]bool)
	} else {
		clear(sc.completed)
	}

	events := append(sc.events[:0], s.Events...)
	sortEventsByTime(events)
	sc.events = events
	ss.events = events
	for _, ev := range events {
		if ev.Port < 0 || ev.Port >= ports {
			return fmt.Errorf("netsim: capacity event targets port %d outside fabric of %d ports", ev.Port, ports)
		}
		if ev.EgressFactor < 0 || ev.IngressFactor < 0 {
			return fmt.Errorf("netsim: capacity event at t=%g has negative factor", ev.Time)
		}
	}
	sc.ensurePorts(ports)
	egFac, inFac := sc.egFac[:ports], sc.inFac[:ports]
	for p := range egFac {
		egFac[p], inFac[p] = 1, 1
	}

	// Failure schedule: expand each outage into time-sorted down/up edges.
	// A stale down-counter from a previous faulted run must never leak into
	// this one, so the counter is cleared unconditionally (cheap, and free
	// of float effects on the equivalence-pinned fault-free path).
	ss.haveFail = len(s.Failures) > 0
	downCnt := sc.downCnt[:ports]
	for p := range downCnt {
		downCnt[p] = 0
	}
	failEv := sc.failEv[:0]
	if ss.haveFail {
		for i, pf := range s.Failures {
			if pf.Port < 0 || pf.Port >= ports {
				return fmt.Errorf("netsim: failure targets port %d outside fabric of %d ports", pf.Port, ports)
			}
			if pf.Down < 0 {
				return fmt.Errorf("netsim: failure of port %d has negative down time %g", pf.Port, pf.Down)
			}
			failEv = append(failEv, failTransition{time: pf.Down, port: pf.Port, up: false, out: i})
			if !pf.Permanent() {
				failEv = append(failEv, failTransition{time: pf.Up, port: pf.Port, up: true, out: i})
			}
		}
		sortFailTransitions(failEv)
	}
	sc.failEv = failEv
	ss.obs, _ = s.sched.(coflow.CapacityObserver)
	ss.release = s.ReleaseCompleted
	if ss.release && len(s.Failures) > 0 {
		return errors.New("netsim: ReleaseCompleted is incompatible with Failures (recovery accounting needs the full coflow set)")
	}
	if s.Probe != nil && len(sc.probeEg) < ports {
		sc.probeEg = make([]float64, ports)
		sc.probeIn = make([]float64, ports)
	}

	*rep = Report{CCTs: rep.CCTs, Restarts: rep.Restarts, Failures: rep.Failures[:0]}
	if rep.CCTs == nil {
		rep.CCTs = make(map[int]float64)
	} else {
		clear(rep.CCTs)
	}
	if rep.Restarts != nil {
		clear(rep.Restarts)
	}
	for _, pf := range s.Failures {
		rep.Failures = append(rep.Failures, FailureOutcome{
			Port: pf.Port, Down: pf.Down, Up: pf.Up, Permanent: pf.Permanent(),
		})
	}
	return nil
}

// check gates the mutating session methods on lifecycle state.
func (ss *Session) check() error {
	if !ss.begun {
		return errors.New("netsim: session not started (obtain one from Simulator.Session)")
	}
	if ss.finished {
		return errors.New("netsim: session already finished")
	}
	return ss.err
}

// latch records a loop error so every later call reports it too: a session
// that errored mid-flight has inconsistent flow state and must be abandoned.
func (ss *Session) latch(err error) error {
	if err != nil {
		ss.err = err
	}
	return err
}

// Admit validates a coflow, resets its flow state, and queues it for
// admission at its Arrival time (or immediately, if the session has already
// advanced past it — the loop lifts the arrival to the current time, the
// same treatment a dependency-released coflow gets). Admitting c after
// advancing past c.Arrival therefore changes c's effective arrival; the
// online engine always admits at the arrival instant, where the two agree.
func (ss *Session) Admit(c *coflow.Coflow) error {
	if err := ss.check(); err != nil {
		return err
	}
	return ss.latch(ss.admit(c))
}

// admit is Admit without the lifecycle gate, shared with RunInto's prologue.
func (ss *Session) admit(c *coflow.Coflow) error {
	if err := ss.validateAdmit(c); err != nil {
		return err
	}
	ss.stage(c)
	return nil
}

// validateAdmit checks a coflow's flows against the fabric without mutating
// any session or flow state, so batch admission can be all-or-nothing.
func (ss *Session) validateAdmit(c *coflow.Coflow) error {
	ports := ss.s.fabric.Ports
	for _, f := range c.Flows {
		if f.Src < 0 || f.Src >= ports || f.Dst < 0 || f.Dst >= ports {
			return fmt.Errorf("netsim: flow %d of coflow %d uses port (%d→%d) outside fabric of %d ports",
				f.ID, c.ID, f.Src, f.Dst, ports)
		}
		if f.Src == f.Dst {
			return fmt.Errorf("netsim: flow %d of coflow %d is a self-loop at port %d", f.ID, c.ID, f.Src)
		}
	}
	return nil
}

// stage registers a validated coflow: reset its flow state and insert it
// into the arrival-sorted admission queue.
func (ss *Session) stage(c *coflow.Coflow) {
	for _, f := range c.Flows {
		f.Remaining = f.Size
		f.Done = f.Size <= 0
		f.Rate = 0
	}
	c.Completed = false
	c.SentBytes = 0
	c.BeginSim(ss.s.fabric.Ports)
	ss.kept = append(ss.kept, len(ss.all))
	ss.all = append(ss.all, admission{c: c})
	// Insert into the arrival-sorted admission queue; per-item insertion of a
	// stable sort is itself stable, so batch admission (RunInto) and
	// streaming admission order ties identically.
	// The loop pops admissions by advancing head, so the queue keeps its
	// front capacity. Once the admitted prefix is at least as long as
	// the queue, slide the queue back to the front: amortized O(1) per
	// coflow, and admitted coflows are not kept reachable indefinitely.
	if ss.head > 0 && 2*ss.head >= len(ss.pending) {
		n := copy(ss.pending, ss.pending[ss.head:])
		clear(ss.pending[n:])
		ss.pending, ss.head = ss.pending[:n], 0
	}
	p := append(ss.pending, c)
	for i := len(p) - 1; i > ss.head && p[i].Arrival < p[i-1].Arrival; i-- {
		p[i], p[i-1] = p[i-1], p[i]
	}
	ss.pending = p
}

// AdmitBatch registers N coflows at one time boundary in a single call —
// the multi-admit entry point the batched daemon path uses. Validation is
// all-or-nothing: every coflow is checked against the fabric before any
// flow state is touched, so a bad coflow in the middle of a batch admits
// nothing. The registered order and arrival-sorted queue are identical to N
// sequential Admit calls (stage inserts stably, ties keep batch order), no
// epoch work runs in between, and the next Advance stops on exactly the
// same boundaries — batch and sequential admission are byte-identical.
func (ss *Session) AdmitBatch(cs []*coflow.Coflow) error {
	if err := ss.check(); err != nil {
		return err
	}
	return ss.latch(ss.admitBatch(cs))
}

// admitBatch is AdmitBatch without the lifecycle gate, shared with RunInto's
// prologue.
func (ss *Session) admitBatch(cs []*coflow.Coflow) error {
	for _, c := range cs {
		if err := ss.validateAdmit(c); err != nil {
			return err
		}
	}
	for _, c := range cs {
		ss.stage(c)
	}
	return nil
}

// Advance runs the simulation up to time `to`: admissions, capacity events,
// failure edges and completions up to (and at) `to` all apply. Unlike the
// legacy Simulator.Horizon, Advance never rewrites the internal clock to the
// stop time — epochs land on exactly the floats a straight-through run
// produces, which is what makes a session bit-identical to RunInto.
func (ss *Session) Advance(to float64) error {
	if err := ss.check(); err != nil {
		return err
	}
	if to < ss.now-1e-12 {
		return fmt.Errorf("netsim: session cannot Advance(%g) behind current time %g", to, ss.now)
	}
	return ss.latch(ss.loop(to))
}

// Finish runs the session to completion and returns the aggregated report
// (owned by the session unless RunInto supplied storage; valid until the
// simulator's next run or session).
func (ss *Session) Finish() (*Report, error) {
	if err := ss.check(); err != nil {
		return nil, err
	}
	if err := ss.latch(ss.loop(math.Inf(1))); err != nil {
		return nil, err
	}
	ss.finalize()
	return ss.rep, nil
}

// Now returns the session's current simulation time.
func (ss *Session) Now() float64 { return ss.now }

// AdmittedCount returns how many admitted coflows the session retains:
// pending, active, or completed but not yet released (see
// Simulator.ReleaseCompleted). Without release it counts every admission.
func (ss *Session) AdmittedCount() int { return len(ss.kept) }

// CompletedCount returns how many admitted coflows have completed so far.
func (ss *Session) CompletedCount() int {
	if ss.rep == nil {
		return 0
	}
	return len(ss.rep.CCTs)
}

// Digest fingerprints the session's deterministic simulation state with
// FNV-1a over the clock and every admitted coflow's flow progress (remaining
// bytes, done flags, completion state). Two sessions that took the same
// admissions and boundary stops digest identically; the service layer uses
// this to prove a snapshot-restored engine resumed byte-identical state.
// Released coflows hash from their tombstones to the same bits, so the
// digest does not depend on ReleaseCompleted.
func (ss *Session) Digest() uint64 {
	const (
		offset64 = 0xcbf29ce484222325
		prime64  = 0x100000001b3
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(math.Float64bits(ss.now))
	mix(uint64(len(ss.all)))
	for i := range ss.all {
		a := &ss.all[i]
		c := a.c
		if c == nil {
			mix(uint64(a.id))
			mix(math.Float64bits(a.arrival))
			mix(1)
			mix(math.Float64bits(a.completion))
			mix(uint64(a.flows))
			for range a.flows {
				mix(0) // Remaining: +0
				mix(1) // Done
			}
			continue
		}
		mix(uint64(c.ID))
		mix(math.Float64bits(c.Arrival))
		if c.Completed {
			mix(1)
			mix(math.Float64bits(c.Completion))
		} else {
			mix(0)
		}
		mix(uint64(len(c.Flows)))
		for _, f := range c.Flows {
			mix(math.Float64bits(f.Remaining))
			if f.Done {
				mix(1)
			} else {
				mix(0)
			}
		}
	}
	return h
}

// Report exposes the session's running report: CCTs of coflows completed so
// far, epoch and byte counters, failure outcomes. Read-only; Makespan and
// the CCT aggregates are only filled by Finish.
func (ss *Session) Report() *Report { return ss.rep }

// BacklogInto writes the per-port remaining bytes of every unfinished flow
// the session knows about — in flight or still queued — into the caller's
// slices (len == fabric ports), the in-place equivalent of PortBacklog over
// every admitted coflow. This is the network state the online co-optimizer
// feeds to placement as the initial-load term v⁰.
//
// The scan covers only live state, the active coflows and the un-admitted
// queue, so its cost does not grow with the length of the run. That is
// exact: a retired coflow has only Done flows (failure edges reactivate
// flows of active coflows only), and the sums are integers, so the order
// they are added in cannot change them.
func (ss *Session) BacklogInto(egress, ingress []int64) error {
	if !ss.begun {
		return errors.New("netsim: session not started (obtain one from Simulator.Session)")
	}
	if err := ss.err; err != nil {
		return err
	}
	ports := ss.s.fabric.Ports
	if len(egress) != ports || len(ingress) != ports {
		return fmt.Errorf("netsim: backlog slices sized %d/%d, want %d", len(egress), len(ingress), ports)
	}
	for p := 0; p < ports; p++ {
		egress[p], ingress[p] = 0, 0
	}
	addBacklog(egress, ingress, ss.active)
	addBacklog(egress, ingress, ss.pending[ss.head:])
	return nil
}

// depsDone reports whether every declared predecessor of c has completed.
func (s *Simulator) depsDone(c *coflow.Coflow, completed map[int]bool) bool {
	if len(s.Deps) == 0 {
		return true
	}
	for _, dep := range s.Deps[c.ID] {
		if !completed[dep] {
			return false
		}
	}
	return true
}

// finalize fills the aggregate report fields from the session's end state:
// makespan, CCT aggregates summed in admission order (RunInto admits in
// input order; tombstones stand in for released coflows), failure recovery
// outcomes, and the probe's EndRun.
func (ss *Session) finalize() {
	rep := ss.rep
	rep.Makespan = ss.now
	var wsum float64
	for i := range ss.all {
		a := &ss.all[i]
		id, w := a.id, a.weight
		if c := a.c; c != nil {
			id, w = c.ID, c.EffectiveWeight()
		}
		cct, ok := rep.CCTs[id]
		if !ok {
			continue
		}
		rep.AvgCCT += cct
		rep.WeightedAvgCCT += w * cct
		wsum += w
		if cct > rep.MaxCCT {
			rep.MaxCCT = cct
		}
	}
	if len(rep.CCTs) > 0 {
		rep.AvgCCT /= float64(len(rep.CCTs))
	}
	if wsum > 0 {
		rep.WeightedAvgCCT /= wsum
	}
	if ss.haveFail {
		finalizeFailures(rep, ss.all)
	}
	if ss.s.Probe != nil {
		ss.s.Probe.EndRun(ss.now)
	}
	ss.finished = true
}

// releaseCompleted replaces completed coflows in the admission list with
// tombstones once they make up more than half of the retained set
// (amortized O(1) per coflow), so the session no longer pins them or their
// flows. A completed coflow whose flows would not hash as (+0, Done) — a
// negative- or -0-size flow admitted through the generic API — stays
// retained, keeping Digest independent of release.
func (ss *Session) releaseCompleted() {
	if ss.retired <= 32 || ss.retired <= len(ss.kept)/2 {
		return
	}
	ss.retired = 0
	w := 0
	for _, i := range ss.kept {
		a := &ss.all[i]
		if c := a.c; c.Completed && settled(c) {
			*a = admission{id: c.ID, flows: len(c.Flows), arrival: c.Arrival,
				completion: c.Completion, weight: c.EffectiveWeight()}
			continue
		}
		ss.kept[w] = i
		w++
	}
	ss.kept = ss.kept[:w]
}

// settled reports whether every flow of c is Done with Remaining = +0, the
// per-flow state a tombstone stands for.
func settled(c *coflow.Coflow) bool {
	for _, f := range c.Flows {
		if !f.Done || math.Float64bits(f.Remaining) != 0 {
			return false
		}
	}
	return true
}
