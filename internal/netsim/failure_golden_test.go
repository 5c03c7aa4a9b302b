package netsim_test

// Golden failure runs: refsim has no failure model, so these recorded
// digests are what pins faulted runs. Every scheduler × retransmission
// policy replays seeded workloads with failure schedules (withFailures) and
// folds the outcome into one FNV-1a digest: every CCT, per-flow
// Remaining/Done/EndTime, SentBytes, Epochs, Makespan, and per failure
// FlowsHit, Recovered and TimeToRecovery, plus Restarts per coflow. Under
// restart and resume the byte totals (TotalBytes, WastedBytes, and each
// outcome's WastedBytes) are folded in too. Under restart-delivered they are
// left out: a reactivated flow is summed with its own coflow, so those sums
// depend on the order flows are walked across coflows, not on the run.

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"ccf/internal/netsim"
)

// failureGolden holds the digests recorded before the dense and the
// event-horizon loops were merged into one. aalo matches fifo because these
// small coflows never leave D-CLAS queue 0, where Aalo serves in arrival
// order.
var failureGolden = map[string]uint64{
	"varys/restart":                        0x7b9fa5f81da7c291,
	"varys/resume":                         0x523ee5db98d8f65,
	"varys/restart-delivered":              0x665b64737d601012,
	"fifo/restart":                         0x3587019dde9ce07e,
	"fifo/resume":                          0x804456381fc0292a,
	"fifo/restart-delivered":               0x66400c0231a35f71,
	"scf/restart":                          0x547f766959ef9c79,
	"scf/resume":                           0x8084e10ea0bc66c5,
	"scf/restart-delivered":                0xfcd64a394caa7948,
	"ncf/restart":                          0xed6bc90e9be6c921,
	"ncf/resume":                           0xa1c3dd70ec18d772,
	"ncf/restart-delivered":                0x1891a18ca76f8743,
	"aalo/restart":                         0x3587019dde9ce07e,
	"aalo/resume":                          0x804456381fc0292a,
	"aalo/restart-delivered":               0x66400c0231a35f71,
	"per-flow-fair/restart":                0x8334986c01934128,
	"per-flow-fair/resume":                 0x9f38ab376707fefc,
	"per-flow-fair/restart-delivered":      0x61e30764ca8280fa,
	"sequential-by-dest/restart":           0x8acae93742f261b,
	"sequential-by-dest/resume":            0x7f4bdfccf164faac,
	"sequential-by-dest/restart-delivered": 0x1b7a458000509d7,
	"varys-deadline/restart":               0x3f92c875ac7704cb,
	"varys-deadline/resume":                0xa5d7eefd6ac97a5d,
	"varys-deadline/restart-delivered":     0xca92805b2fa3827c,
}

// TestFailureRunGoldenDigest checks each scheduler × policy digest against
// the recorded one.
func TestFailureRunGoldenDigest(t *testing.T) {
	const seeds = 24
	for _, pair := range schedPairs {
		for _, pol := range retransmitPolicies {
			name := pair.name + "/" + pol.name
			t.Run(name, func(t *testing.T) {
				h := fnv.New64a()
				put := func(v uint64) {
					var b [8]byte
					for i := range b {
						b[i] = byte(v >> (8 * i))
					}
					h.Write(b[:])
				}
				putF := func(f float64) { put(math.Float64bits(f)) }
				bytesExact := pol.policy != netsim.RetransmitRestartDelivered
				for seed := int64(0); seed < seeds; seed++ {
					rng := rand.New(rand.NewSource(seed))
					spec := randomSpec(rng, pair.deadlines)
					spec.deps = nil
					fails := withFailures(rng, &spec)
					sim := netsim.NewSimulator(spec.fabric(t), pair.prod())
					sim.Events = spec.events
					sim.Failures = fails
					sim.Retransmit = pol.policy
					if spec.horizon > 0 {
						sim.Horizon = spec.horizon
					}
					cfs := spec.build()
					rep, err := sim.Run(cfs)
					if err != nil {
						put(1)
						continue
					}
					put(0)
					putF(rep.Makespan)
					put(uint64(rep.Epochs))
					if bytesExact {
						putF(rep.TotalBytes)
						putF(rep.WastedBytes)
					}
					for _, c := range cfs {
						cct, ok := rep.CCTs[c.ID]
						if ok {
							put(1)
							putF(cct)
						} else {
							put(0)
						}
						putF(c.SentBytes)
						put(uint64(rep.Restarts[c.ID]))
						for _, f := range c.Flows {
							putF(f.Remaining)
							if f.Done {
								put(1)
								putF(f.EndTime)
							} else {
								put(0)
							}
						}
					}
					for _, out := range rep.Failures {
						put(uint64(out.FlowsHit))
						if bytesExact {
							putF(out.WastedBytes)
						}
						if out.Recovered {
							put(1)
							putF(out.TimeToRecovery)
						} else {
							put(0)
						}
					}
				}
				got := h.Sum64()
				want, ok := failureGolden[name]
				if !ok {
					t.Fatalf("no golden digest recorded; got %#x", got)
				}
				if got != want {
					t.Errorf("digest %#x, golden %#x", got, want)
				}
			})
		}
	}
}
