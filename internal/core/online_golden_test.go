package core

// Golden engine state: OnlineEngine.StateDigest is written into every ccfd
// snapshot and checked on restore (service.ErrSnapshotMismatch otherwise),
// so a change to how the engine or its session keeps state must leave the
// digest of a given job stream bit-identical. These values were recorded
// from the engine before completed coflows were released from it; the
// stream is long enough that hundreds of coflows complete between
// checkpoints and a handful are in flight at each one.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"ccf/internal/placement"
	"ccf/internal/workload"
)

// goldenJobs builds the seeded stream: exponential inter-arrival gaps that
// keep two to six jobs in flight, a pool of skewed and uniform workloads,
// mixed placers, skew handling, and the occasional PlacementOnly job.
func goldenJobs(t testing.TB, n, count int, seed int64) []OnlineJob {
	t.Helper()
	zipfs := []float64{0, 0.5, 1.0, 1.5}
	pool := make([]*workload.Workload, 16)
	for i := range pool {
		w, err := workload.Generate(workload.Config{
			Nodes: n, CustomerTuples: 200, OrderTuples: 2_000,
			PayloadBytes: 1000, Zipf: zipfs[i%len(zipfs)], Seed: uint64(seed)*1000 + uint64(i),
			JitterFrac: 0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		pool[i] = w
	}
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]OnlineJob, count)
	arrival := 0.0
	for k := range jobs {
		arrival += rng.ExpFloat64() * 0.006
		job := OnlineJob{
			Name:       fmt.Sprintf("job%d", k),
			Arrival:    arrival,
			Workload:   pool[rng.Intn(len(pool))],
			HandleSkew: k%7 == 0,
		}
		switch k % 5 {
		case 1:
			job.Scheduler = placement.Mini{}
		case 2:
			job.Scheduler = placement.Hash{}
		}
		if k%97 == 50 {
			job.PlacementOnly = true
		}
		jobs[k] = job
	}
	return jobs
}

func TestOnlineEngineGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The digest hashes float bits; other architectures may fuse
		// multiply-adds and land on different (equally valid) floats.
		t.Skipf("golden values recorded on amd64, running on %s", runtime.GOARCH)
	}
	const n = 8
	jobs := goldenJobs(t, n, 1000, 1)
	type checkpoint struct {
		jobs      int
		digest    uint64
		completed int
	}
	want := []checkpoint{
		{1, 0xd88701066449b8e0, 0},
		{250, 0x904f79ef31276ad7, 248},
		{500, 0xbecdd43c49c02958, 497},
		{750, 0x313aa190dfe3e6e0, 745},
		{1000, 0x5d484d2a997b8396, 994},
	}
	const (
		wantAvgBits      = 0x3f9105d56203dd4c
		wantMakespanBits = 0x4017a36e2f66a248
	)
	eng, err := NewOnlineEngine(n, OnlineOptions{CoOptimize: true})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for i, job := range jobs {
		if _, err := eng.Submit(job); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if next < len(want) && i+1 == want[next].jobs {
			cp := want[next]
			got := checkpoint{i + 1, eng.StateDigest(), eng.CompletedJobs()}
			if got != cp {
				t.Errorf("after %d jobs: digest %#x completed %d, want %#x / %d",
					cp.jobs, got.digest, got.completed, cp.digest, cp.completed)
			}
			next++
		}
	}
	rep, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64bits(rep.AvgCCT); got != wantAvgBits {
		t.Errorf("AvgCCT bits %#x, want %#x", got, uint64(wantAvgBits))
	}
	if got := math.Float64bits(rep.Makespan); got != wantMakespanBits {
		t.Errorf("Makespan bits %#x, want %#x", got, uint64(wantMakespanBits))
	}
}
