// Package placement implements the application-level data-movement
// schedulers the paper compares:
//
//   - Hash: the classic hash-based join — partition k goes to node k mod n.
//     Represents network-level-only optimization (§IV.A "Baseline").
//   - Mini: traffic-minimising placement — each partition goes to the node
//     holding its largest chunk, so the fewest bytes cross the network.
//     Represents decoupled application+network optimization (track-join
//     style, §IV.A "Minimize network traffic").
//   - CCF: the paper's co-optimizing heuristic (Algorithm 1) — partitions
//     are processed in descending order of their largest chunk and each is
//     assigned to the destination that minimises the running bottleneck
//     port load T = max(max egress, max ingress).
//
// Additional schedulers (Random, LPT, CCF without the sort) support the
// ablation studies listed in DESIGN.md.
package placement

import (
	"cmp"
	"fmt"
	"slices"

	"ccf/internal/partition"
)

// Scheduler assigns every partition of a chunk matrix to a destination node.
// The initial loads, when non-nil, describe network volume already committed
// before the redistribution starts (the v⁰_ij broadcast flows produced by
// skew handling); co-optimizing schedulers account for them, oblivious ones
// ignore them.
type Scheduler interface {
	Name() string
	Place(m *partition.ChunkMatrix, initial *partition.Loads) (*partition.Placement, error)
}

// Hash implements the baseline: destination = partition index mod n. With
// the paper's f(k) = k mod p partitioner this is exactly "each data chunk is
// assigned to a node based on its responsible hash value".
type Hash struct{}

// Name implements Scheduler.
func (Hash) Name() string { return "Hash" }

// Place implements Scheduler.
func (Hash) Place(m *partition.ChunkMatrix, _ *partition.Loads) (*partition.Placement, error) {
	pl := partition.NewPlacement(m.P)
	for k := 0; k < m.P; k++ {
		pl.Dest[k] = k % m.N
	}
	return pl, nil
}

// Mini implements the traffic-minimising scheduler: for each partition it
// examines all destinations and keeps the one minimising bytes moved, i.e.
// the node holding the largest chunk. Ties resolve to the lowest node index
// (which, with the paper's rank-aligned Zipf data, is why Mini funnels the
// entire relation into node 0).
type Mini struct{}

// Name implements Scheduler.
func (Mini) Name() string { return "Mini" }

// Place implements Scheduler.
func (Mini) Place(m *partition.ChunkMatrix, _ *partition.Loads) (*partition.Placement, error) {
	_, node := m.MaxChunk()
	return &partition.Placement{Dest: node}, nil
}

// CCF implements Algorithm 1 of the paper: a step-by-step greedy search that
// keeps the bottleneck port load T minimal after each assignment.
//
// The straightforward implementation costs O(p·n²); this one costs
// O(p·(n + log p)) by tracking, per candidate destination d, the would-be
// maxima with top-2 bookkeeping:
//
//	egress side:  assigning k to d adds h_ik to every egress i ≠ d, so the
//	              new egress max is max_i(egress_i + h_ik) unless the argmax
//	              is d itself, in which case it is the second max.
//	ingress side: only ingress_d changes, by tot_k − h_dk.
type CCF struct {
	// NoSort disables the descending sort of line 1 (ablation abl-sort).
	NoSort bool
}

// Name implements Scheduler.
func (c CCF) Name() string {
	if c.NoSort {
		return "CCF-nosort"
	}
	return "CCF"
}

// Place implements Scheduler.
func (c CCF) Place(m *partition.ChunkMatrix, initial *partition.Loads) (*partition.Placement, error) {
	n, p := m.N, m.P
	egress := make([]int64, n)
	ingress := make([]int64, n)
	if initial != nil {
		if len(initial.Egress) != n || len(initial.Ingress) != n {
			return nil, fmt.Errorf("placement: initial loads sized %d/%d, want %d",
				len(initial.Egress), len(initial.Ingress), n)
		}
		copy(egress, initial.Egress)
		copy(ingress, initial.Ingress)
	}

	// Line 1: sort partitions by their largest chunk, descending, so large
	// chunks (to which T is most sensitive) are placed first.
	var order []int
	if c.NoSort {
		order = make([]int, p)
		for k := range order {
			order[k] = k
		}
	} else {
		maxChunk, _ := m.MaxChunk()
		order = byKeyDesc(maxChunk)
	}

	tot := m.PartitionTotals()
	pl := partition.NewPlacement(p)
	col := make([]int64, n) // h_ik for the current partition

	for _, k := range order {
		for i := 0; i < n; i++ {
			col[i] = m.At(i, k)
		}
		tk := tot[k]

		// Top-2 of (egress_i + h_ik) over all i.
		var e1, e2 int64 = -1, -1
		e1i := -1
		// Top-2 of ingress_j over all j.
		var in1, in2 int64 = -1, -1
		in1j := -1
		for i := 0; i < n; i++ {
			ev := egress[i] + col[i]
			if ev > e1 {
				e2, e1, e1i = e1, ev, i
			} else if ev > e2 {
				e2 = ev
			}
			iv := ingress[i]
			if iv > in1 {
				in2, in1, in1j = in1, iv, i
			} else if iv > in2 {
				in2 = iv
			}
		}

		// Evaluate T_d for every candidate destination d in O(1).
		bestD := -1
		var bestT int64 = -1
		for d := 0; d < n; d++ {
			eMax := e1
			if d == e1i {
				eMax = e2
			}
			if egress[d] > eMax { // d's own egress is unchanged
				eMax = egress[d]
			}
			iOther := in1
			if d == in1j {
				iOther = in2
			}
			iD := ingress[d] + tk - col[d]
			t := eMax
			if iOther > t {
				t = iOther
			}
			if iD > t {
				t = iD
			}
			if bestD == -1 || t < bestT {
				bestD, bestT = d, t
			}
		}

		// Commit the assignment (line 9).
		pl.Dest[k] = bestD
		for i := 0; i < n; i++ {
			if i != bestD {
				egress[i] += col[i]
			}
		}
		ingress[bestD] += tk - col[bestD]
	}
	return pl, nil
}

// Random assigns partitions uniformly at random (deterministic per Seed).
// A sanity baseline for the ablations: it spreads ingress like Hash but has
// no locality at all.
type Random struct{ Seed uint64 }

// Name implements Scheduler.
func (Random) Name() string { return "Random" }

// Place implements Scheduler.
func (r Random) Place(m *partition.ChunkMatrix, _ *partition.Loads) (*partition.Placement, error) {
	pl := partition.NewPlacement(m.P)
	x := r.Seed | 1
	for k := 0; k < m.P; k++ {
		// xorshift64*
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		pl.Dest[k] = int((x * 0x2545F4914F6CDD1D) % uint64(m.N))
	}
	return pl, nil
}

// LPT is the classic longest-processing-time makespan heuristic applied to
// ingress only: partitions in descending total size, each to the node with
// the least accumulated ingress. It balances receivers but ignores senders
// and locality — an ablation isolating how much CCF's egress/locality terms
// contribute.
type LPT struct{}

// Name implements Scheduler.
func (LPT) Name() string { return "LPT" }

// Place implements Scheduler.
func (LPT) Place(m *partition.ChunkMatrix, initial *partition.Loads) (*partition.Placement, error) {
	n, p := m.N, m.P
	ingress := make([]int64, n)
	if initial != nil && len(initial.Ingress) == n {
		copy(ingress, initial.Ingress)
	}
	tot := m.PartitionTotals()
	order := byKeyDesc(tot)
	pl := partition.NewPlacement(p)
	for _, k := range order {
		best := 0
		for j := 1; j < n; j++ {
			if ingress[j] < ingress[best] {
				best = j
			}
		}
		pl.Dest[k] = best
		ingress[best] += tot[k] - m.At(best, k)
	}
	return pl, nil
}

// Evaluation bundles the metrics of a placement under the bandwidth model.
type Evaluation struct {
	Placement *partition.Placement
	Loads     *partition.Loads
	// TrafficBytes is the total bytes crossing the network (remote moves
	// plus any initial broadcast volume).
	TrafficBytes int64
	// BottleneckBytes is T = max port load; CCT = T / port bandwidth for a
	// single coflow under MADD.
	BottleneckBytes int64
}

// Evaluate runs a scheduler over a chunk matrix and computes its loads,
// traffic, and bottleneck under optional initial (broadcast) volumes.
func Evaluate(s Scheduler, m *partition.ChunkMatrix, initial *partition.Loads) (*Evaluation, error) {
	pl, err := s.Place(m, initial)
	if err != nil {
		return nil, fmt.Errorf("placement: %s: %w", s.Name(), err)
	}
	loads, err := partition.ComputeLoads(m, pl, initial)
	if err != nil {
		return nil, fmt.Errorf("placement: %s produced invalid placement: %w", s.Name(), err)
	}
	return &Evaluation{
		Placement:       pl,
		Loads:           loads,
		TrafficBytes:    loads.Traffic(),
		BottleneckBytes: loads.Max(),
	}, nil
}

// byKeyDesc returns the partition indices ordered by key, largest first,
// ties by index: the permutation a stable sort of 0..len(keys)-1 by
// descending key yields. Sorting (key, partition) pairs keeps the
// comparisons on contiguous memory and avoids reflection.
func byKeyDesc(keys []int64) []int {
	type keyed struct {
		key int64
		k   int
	}
	pairs := make([]keyed, len(keys))
	for k, key := range keys {
		pairs[k] = keyed{key, k}
	}
	slices.SortFunc(pairs, func(a, b keyed) int {
		if c := cmp.Compare(b.key, a.key); c != 0 {
			return c
		}
		return cmp.Compare(a.k, b.k)
	})
	order := make([]int, len(pairs))
	for i, pk := range pairs {
		order[i] = pk.k
	}
	return order
}
