package coflow

// Tier-2 intra-run parallelism: port/flow-sharded variants of the MADD
// rate-allocation and water-filling passes, for fabrics large enough that a
// single scheduling epoch dominates wall time (1024-port fabrics carry up to
// ~10⁶ live flows per epoch).
//
// The contract is the same as the allocation-free refactor's: bit-identical
// results. Every sharded loop is restricted to computations that are exact
// under any split:
//
//   - elementwise per-flow writes (Rate updates, freeze flags): each flow is
//     written by exactly one shard, with the same float expression the serial
//     loop uses;
//   - integer accumulation (per-port flow counts): integer addition is
//     associative, so per-shard counters merged in any order equal the serial
//     count;
//   - max/min reductions (MADD's τ, water-filling's α): max and min over
//     floats are order-independent, so per-shard extrema merged afterwards
//     equal the serial reduction;
//   - per-port capacity updates: the serial loop's effect on one port is a
//     *sequence* of subtractions in flow order, interleaved with other ports'
//     (independent) memory; the sharded code replays exactly that per-port
//     sequence — water-filling subtracts the same α count-many times, MADD
//     applies the stashed per-flow rates serially in flow order.
//
// Float *accumulations* in flow order (demandInto's per-port byte sums, the
// engine's egUse/inUse tally) are NOT shardable without changing rounding,
// so they stay serial; the sharded functions below fall through to the
// untouched serial implementations whenever sharding is off or the pass is
// below the flow threshold. That keeps small fabrics on literally the
// pre-existing code path — and at 0 allocs/op (the sharded path spawns
// goroutines, which allocate; its allocs/op are tracked by a separate
// bench).

import (
	"math"

	"ccf/internal/parallel"
)

// DefaultShardMinFlows is the per-pass flow-count floor below which the
// sharded variants run the serial code even when sharding is enabled: under
// ~4k flows the O(flows) loops cost a few microseconds, comparable to the
// goroutine fan-out itself.
const DefaultShardMinFlows = 4096

// ShardOptions configures intra-epoch sharding for a scheduler. The zero
// value disables it (the serial path).
type ShardOptions struct {
	// Workers is the number of goroutines the sharded passes fan out to;
	// <= 1 disables sharding.
	Workers int
	// MinFlows is the per-pass flow-count floor below which the serial code
	// runs; 0 selects DefaultShardMinFlows. Tests force 1 to exercise the
	// sharded code on small workloads.
	MinFlows int
}

func (o ShardOptions) minFlows() int {
	if o.MinFlows > 0 {
		return o.MinFlows
	}
	return DefaultShardMinFlows
}

// enabled reports whether a pass over n flows should shard.
func (o ShardOptions) enabled(n int) bool {
	return o.Workers > 1 && n >= o.minFlows()
}

// minCoflows derives the coflow-count floor for the passes that shard over
// coflows (priority re-keying, rate resets): their per-item cost is one
// coflow's flow list, so the floor scales down with MinFlows (and tests that
// force MinFlows=1 exercise these passes on handfuls of coflows too).
func (o ShardOptions) minCoflows() int {
	m := o.minFlows() / 64
	if m < 2 {
		m = 2
	}
	return m
}

// ShardTunable is implemented by schedulers whose allocation passes can
// shard. netsim.Simulator propagates its ShardWorkers/ShardMinFlows
// configuration through this interface at the start of every run, so callers
// configure parallelism once on the simulator rather than per scheduler.
type ShardTunable interface {
	// SetShard replaces the scheduler's shard configuration. The zero
	// ShardOptions restores the serial path.
	SetShard(ShardOptions)
}

// SetShard implements ShardTunable.
func (o *orderedMADD) SetShard(opts ShardOptions) { o.shard = opts }

// SetShard implements ShardTunable.
func (a *Aalo) SetShard(opts ShardOptions) { a.shard = opts }

// SetShard implements ShardTunable.
func (d *Deadline) SetShard(opts ShardOptions) { d.shard = opts }

// SetShard implements ShardTunable. Note PerFlowFair is normally used as a
// value; only pointer-held instances (&PerFlowFair{...}) are reachable
// through the interface, but the Shard field works either way.
func (p *PerFlowFair) SetShard(opts ShardOptions) { p.Shard = opts }

// SetShard implements ShardTunable (see PerFlowFair.SetShard).
func (s *SequentialByDest) SetShard(opts ShardOptions) { s.Shard = opts }

// shardScratch is one worker's slice of the sharded passes' state: dense
// per-port counters plus their touched lists (merged into the shared
// allocScratch counters after the parallel section), and small per-shard
// reduction outputs.
type shardScratch struct {
	egCnt, inCnt []int
	egT, inT     []int
	tally        int     // integer reduction output (unfrozen counts)
	extreme      float64 // float max/min reduction output (τ)
	blocked      bool    // MADD: shard saw a needed port with no capacity
}

// ensureShards sizes w shard scratches for a fabric of n ports (grow-only,
// like every other scratch).
func (s *allocScratch) ensureShards(w, n int) {
	if len(s.shards) < w {
		old := s.shards
		s.shards = make([]shardScratch, w)
		copy(s.shards, old)
	}
	for i := range s.shards[:w] {
		sh := &s.shards[i]
		if len(sh.egCnt) < n {
			sh.egCnt = make([]int, n)
			sh.inCnt = make([]int, n)
		}
		if cap(sh.egT) < n {
			sh.egT = make([]int, 0, n)
			sh.inT = make([]int, 0, n)
		}
	}
}

// shardsRun returns how many shards parallel.ForShards actually runs for n
// items under w workers (it clamps workers to n). Merges must stop there:
// shards beyond it carry stale reduction outputs from earlier passes.
func shardsRun(w, n int) int {
	if n < w {
		return n
	}
	return w
}

// resetRatesSharded is resetRates with the coflow loop sharded (elementwise
// writes: each flow's Rate is zeroed by exactly one shard).
func resetRatesSharded(active []*Coflow, shard ShardOptions) {
	if shard.Workers <= 1 || len(active) < shard.minCoflows() {
		resetRates(active)
		return
	}
	parallel.ForShards(shard.Workers, len(active), func(_, lo, hi int) {
		resetRates(active[lo:hi])
	})
}

// rekeySharded is orderState.rekey's dense pass sharded over coflows: keys
// are per-coflow pure functions of that coflow's state (Γ, remaining bytes,
// arrival, width, queue index), so each shard computes them with its own
// allocScratch and the floats are exactly the serial ones. Each coflow is
// written by exactly one shard, re-insertion mark included.
func (st *orderState) rekeySharded(cs []*Coflow, k keyer, ports, workers int) {
	if len(st.keyScratch) < workers {
		old := st.keyScratch
		st.keyScratch = make([]allocScratch, workers)
		copy(st.keyScratch, old)
	}
	for i := range st.keyScratch[:workers] {
		st.keyScratch[i].ensure(ports)
	}
	parallel.ForShards(workers, len(cs), func(sh, lo, hi int) {
		s := &st.keyScratch[sh]
		for _, c := range cs[lo:hi] {
			c.setKey(k.orderKey(c, s))
		}
	})
}

// maddAllocateSharded is maddAllocate with the τ reduction port-sharded and
// the per-flow division pass flow-sharded. The per-port demand accumulation
// (demandInto) and the capacity deductions are float accumulations in flow
// order, so they stay serial; the sharded division stashes each flow's rate
// so the deduction loop can replay it in exactly the serial order.
func maddAllocateSharded(c *Coflow, egCap, inCap []float64, s *allocScratch, shard ShardOptions) float64 {
	n := len(c.Flows)
	if c.sim.valid {
		n = len(c.sim.live)
	}
	if !shard.enabled(n) {
		return maddAllocate(c, egCap, inCap, s)
	}
	w := shard.Workers
	s.ensureShards(w, len(egCap))
	flows, egPorts, inPorts := c.demandInto(s)

	// τ = max over the coflow's ports of need/capacity; max is exact under
	// any split. A shard that sees a needed port with zero capacity marks
	// blocked (the serial loop breaks early there; the merged result is the
	// same because a blocked coflow's τ is discarded).
	tauOver := func(ports []int, need, cap []float64) {
		parallel.ForShards(w, len(ports), func(sh, lo, hi int) {
			ss := &s.shards[sh]
			tau, blocked := 0.0, false
			for _, p := range ports[lo:hi] {
				if cap[p] <= 0 {
					blocked = true
					break
				}
				if t := need[p] / cap[p]; t > tau {
					tau = t
				}
			}
			ss.extreme, ss.blocked = tau, blocked
		})
	}
	tau, blocked := 0.0, false
	merge := func(nports int) {
		for i := 0; i < shardsRun(w, nports); i++ {
			if s.shards[i].blocked {
				blocked = true
			}
			if s.shards[i].extreme > tau {
				tau = s.shards[i].extreme
			}
		}
	}
	tauOver(egPorts, s.egNeed, egCap)
	merge(len(egPorts))
	if !blocked {
		tauOver(inPorts, s.inNeed, inCap)
		merge(len(inPorts))
	}
	clearDemand(s, egPorts, inPorts)
	if blocked {
		return math.Inf(1)
	}
	if tau == 0 {
		return 0
	}

	// Per-flow rates: the division and the Rate update are elementwise
	// (same expression, one writer per flow); the stash lets the capacity
	// deductions below run serially in flow order — the exact subtraction
	// sequence each port sees in the serial loop.
	if cap(s.rates) < len(flows) {
		s.rates = make([]float64, len(flows))
	}
	rates := s.rates[:len(flows)]
	parallel.ForShards(w, len(flows), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			f := flows[i]
			if f.Done {
				rates[i] = 0
				continue
			}
			r := f.Remaining / tau
			f.Rate += r
			rates[i] = r
		}
	})
	for i, f := range flows {
		if f.Done {
			continue
		}
		egCap[f.Src] -= rates[i]
		inCap[f.Dst] -= rates[i]
	}
	return tau
}

// waterFillSharded is waterFill with every O(flows) pass of each filling
// round sharded:
//
//   - the unfrozen-per-port count: per-shard integer counters merged in
//     shard order (exact);
//   - the α grant to flows: elementwise Rate += α (exact);
//   - the port capacity updates: port-sharded — port p's capacity receives
//     cnt(p) subtractions of the same α, the identical operation sequence
//     the serial interleaved loop applies to that address;
//   - the freeze scan: elementwise reads of the (fully updated) capacities
//     plus per-shard unfrozen tallies merged as integers (exact).
//
// α itself is a min reduction over the touched ports (exact in any order).
func waterFillSharded(flows []*Flow, egCap, inCap []float64, s *allocScratch, shard ShardOptions) {
	if !shard.enabled(len(flows)) {
		waterFill(flows, egCap, inCap, s)
		return
	}
	w := shard.Workers
	nsh := shardsRun(w, len(flows))
	s.ensureShards(w, len(egCap))
	if cap(s.fill) < len(flows) {
		s.fill = make([]fillState, len(flows))
	}
	st := s.fill[:len(flows)]
	parallel.ForShards(w, len(flows), func(sh, lo, hi int) {
		n := 0
		for i := lo; i < hi; i++ {
			st[i].frozen = flows[i].Done
			if !flows[i].Done {
				n++
			}
		}
		s.shards[sh].tally = n
	})
	unfrozen := 0
	for i := 0; i < nsh; i++ {
		unfrozen += s.shards[i].tally
	}
	for unfrozen > 0 {
		// Count unfrozen flows per port into per-shard counters, then merge
		// (integer adds are exact; the touched-list order only feeds the min
		// reduction and the clears, neither of which is order-sensitive).
		parallel.ForShards(w, len(flows), func(sh, lo, hi int) {
			ss := &s.shards[sh]
			egT, inT := ss.egT[:0], ss.inT[:0]
			for i := lo; i < hi; i++ {
				if st[i].frozen {
					continue
				}
				f := flows[i]
				if ss.egCnt[f.Src] == 0 {
					egT = append(egT, f.Src)
				}
				ss.egCnt[f.Src]++
				if ss.inCnt[f.Dst] == 0 {
					inT = append(inT, f.Dst)
				}
				ss.inCnt[f.Dst]++
			}
			ss.egT, ss.inT = egT, inT
		})
		egT, inT := s.egTouched[:0], s.inTouched[:0]
		for i := 0; i < nsh; i++ {
			ss := &s.shards[i]
			for _, p := range ss.egT {
				if s.egCnt[p] == 0 {
					egT = append(egT, p)
				}
				s.egCnt[p] += ss.egCnt[p]
				ss.egCnt[p] = 0
			}
			for _, p := range ss.inT {
				if s.inCnt[p] == 0 {
					inT = append(inT, p)
				}
				s.inCnt[p] += ss.inCnt[p]
				ss.inCnt[p] = 0
			}
		}
		s.egTouched, s.inTouched = egT, inT

		// The common increment is limited by the tightest port (min: exact).
		alpha := math.Inf(1)
		for _, p := range egT {
			if a := egCap[p] / float64(s.egCnt[p]); a < alpha {
				alpha = a
			}
		}
		for _, p := range inT {
			if a := inCap[p] / float64(s.inCnt[p]); a < alpha {
				alpha = a
			}
		}
		if math.IsInf(alpha, 1) || alpha <= 0 {
			// No capacity left anywhere: freeze everyone (mirrors serial).
			for _, p := range egT {
				s.egCnt[p] = 0
			}
			for _, p := range inT {
				s.inCnt[p] = 0
			}
			for i := range st {
				st[i].frozen = true
			}
			break
		}

		// Grant α: flow-sharded Rate updates; port-sharded capacity updates
		// replaying the serial per-port subtraction sequence.
		parallel.ForShards(w, len(flows), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				if !st[i].frozen {
					flows[i].Rate += alpha
				}
			}
		})
		parallel.ForShards(w, len(egT), func(_, lo, hi int) {
			for _, p := range egT[lo:hi] {
				v := egCap[p]
				for k := s.egCnt[p]; k > 0; k-- {
					v -= alpha
				}
				egCap[p] = v
			}
		})
		parallel.ForShards(w, len(inT), func(_, lo, hi int) {
			for _, p := range inT[lo:hi] {
				v := inCap[p]
				for k := s.inCnt[p]; k > 0; k-- {
					v -= alpha
				}
				inCap[p] = v
			}
		})
		for _, p := range egT {
			s.egCnt[p] = 0
		}
		for _, p := range inT {
			s.inCnt[p] = 0
		}

		// Freeze flows on saturated ports (reads of the fully-updated
		// capacities; per-shard tallies merge exactly).
		const eps = 1e-12
		parallel.ForShards(w, len(flows), func(sh, lo, hi int) {
			n := 0
			for i := lo; i < hi; i++ {
				if st[i].frozen {
					continue
				}
				f := flows[i]
				if egCap[f.Src] <= eps || inCap[f.Dst] <= eps {
					st[i].frozen = true
				} else {
					n++
				}
			}
			s.shards[sh].tally = n
		})
		newUnfrozen := 0
		for i := 0; i < nsh; i++ {
			newUnfrozen += s.shards[i].tally
		}
		if newUnfrozen == unfrozen {
			// Defensive progress guarantee, identical to the serial path.
			freezeTightest(flows, st, egCap, inCap)
			newUnfrozen = unfrozen - 1
		}
		unfrozen = newUnfrozen
	}
}
