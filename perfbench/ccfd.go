package main

// ccfd-closed: one closed-loop client posts JobSpecs through the daemon's
// HTTP handler, in-process (no sockets), to a pool of one shard on 16 nodes
// with the daemon defaults: co-optimization on, the CCF placer, WAL and
// snapshots in a state directory, fsync off. A unit takes one seeded job
// stream: its first jobs are journaled untimed and the pool is killed, then
// a fresh pool restores that state (the set-up time) and the client drives
// the rest of the stream. A run takes as many units, each with its own
// seed, as fill --seconds.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"time"

	"ccf/internal/coflow"
	"ccf/internal/core"
	"ccf/internal/metrics"
	"ccf/internal/netsim"
	"ccf/internal/partition"
	"ccf/internal/placement"
	"ccf/internal/service"
	"ccf/internal/workload"
)

const (
	ccfdNodes = 16
	// ccfdPrefix jobs are journaled before the measured restore; each unit
	// then drives ccfdDriven more (at --scale 1).
	ccfdPrefix = 1000
	ccfdDriven = 2000
	// ccfdGap is the mean Poisson spacing of the Arrival stamps: about 70%
	// fabric load, so most decisions see a non-zero backlog.
	ccfdGap = 0.9e-3
	// ccfdUnitSeconds is the nominal time of one unit on a 2-core x86 VM:
	// the untimed prefix and average-CCT passes plus the measured restore
	// and drive.
	ccfdUnitSeconds = 5
	// ccfdParts is the partition count of every generated job.
	ccfdParts = workload.DefaultPartitionMultiplier * ccfdNodes
)

// ccfdSpecs draws the job stream: Gen specs shaped like the service smoke
// spec (40 customers, 400 orders, zipf 0.8) with Poisson arrival stamps.
func ccfdSpecs(seed uint64, n int) []service.JobSpec {
	rng := rand.New(rand.NewPCG(seed, 0x63636664))
	specs := make([]service.JobSpec, n)
	at := 0.0
	for i := range specs {
		at += rng.ExpFloat64() * ccfdGap
		arrival := at
		specs[i] = service.JobSpec{
			Name:    fmt.Sprintf("job-%06d", i),
			Arrival: &arrival,
			Gen: &workload.Config{
				Nodes: ccfdNodes, CustomerTuples: 40, OrderTuples: 400, PayloadBytes: 1000,
				Zipf: 0.8, Seed: rng.Uint64(), JitterFrac: 0.05,
			},
		}
	}
	return specs
}

// ccfdStream is one unit's inputs and the state journaled from its prefix.
type ccfdStream struct {
	r      *run
	cfg    service.Config
	specs  []service.JobSpec
	bodies [][]byte
	prefix int
	// prefixDir holds the state journaled by the prefix; want is the pool's
	// state just before it was killed.
	prefixDir string
	want      service.ShardState
	// decisions holds every job's decision: the prefix's, then the driven
	// jobs'.
	decisions []service.Decision
}

func post(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	return rec
}

// state returns the single shard's engine state.
func state(p *service.Pool) (service.ShardState, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := p.State(ctx)
	if err != nil {
		return service.ShardState{}, err
	}
	return st[0], nil
}

// start builds a pool over dir and starts it, returning the CPU time Start
// took (the restore).
func (s *ccfdStream) start(dir string, reg *metrics.Registry) (*service.Pool, time.Duration, error) {
	cfg := s.cfg
	cfg.Dir = dir
	cfg.Obs.Metrics = reg
	pool, err := service.NewPool(cfg)
	if err != nil {
		return nil, 0, err
	}
	t := cpuNow()
	err = pool.Start(context.Background())
	return pool, cpuNow() - t, err
}

// newStream draws a unit's job stream, journals its prefix untimed and kills
// the pool.
func newStream(r *run, k int) (*ccfdStream, error) {
	o := r.opts
	s := &ccfdStream{
		r:         r,
		cfg:       service.Config{Shards: 1, Nodes: ccfdNodes, Engine: service.EngineConfig{CoOptimize: true}},
		prefix:    size(ccfdPrefix, o.scale, 10),
		prefixDir: filepath.Join(o.workdir, fmt.Sprintf("prefix-%d", k)),
	}
	s.specs = ccfdSpecs(unitSeed(o.seed, k), s.prefix+size(ccfdDriven, o.scale, 10))
	for i := range s.specs {
		body, err := json.Marshal(&s.specs[i])
		if err != nil {
			return nil, err
		}
		s.bodies = append(s.bodies, body)
	}
	pool, _, err := s.start(s.prefixDir, nil)
	if err != nil {
		return nil, err
	}
	defer pool.Kill()
	h := service.NewHandler(pool, service.HTTPConfig{})
	for i := range s.prefix {
		rec := post(h, s.bodies[i])
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("prefix job %d: HTTP %d: %s", i, rec.Code, rec.Body.Bytes())
		}
		var d service.Decision
		if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
			return nil, fmt.Errorf("prefix job %d: %w", i, err)
		}
		s.decisions = append(s.decisions, d)
	}
	if s.want, err = state(pool); err != nil {
		return nil, err
	}
	if o.tamper == "digest" {
		s.want.Digest ^= 1
	}
	return s, nil
}

// ccfdUnit is one restore of a stream's prefix plus one drive of the rest.
type ccfdUnit struct {
	restore   time.Duration
	restored  service.ShardState
	final     service.ShardState
	cpu       time.Duration
	lat       []float64 // ms of CPU per request
	heapMB    float64
	failed    int
	responses []byte // every response body, each followed by a newline
	reg       *metrics.Registry
}

func (s *ccfdStream) drive(traced bool) (*ccfdUnit, error) {
	dir := s.prefixDir + "-restored"
	defer os.RemoveAll(dir)
	if err := copyDir(s.prefixDir, dir); err != nil {
		return nil, err
	}
	u := &ccfdUnit{}
	if traced {
		u.reg = metrics.NewRegistry()
	}
	driven := s.bodies[s.prefix:]
	u.lat = make([]float64, 0, len(driven))
	u.responses = make([]byte, 0, 2048*len(driven))
	heap := newHeapPeak()
	pool, restore, err := s.start(dir, u.reg)
	if err != nil {
		return nil, err
	}
	defer pool.Kill()
	u.restore = restore
	if u.restored, err = state(pool); err != nil {
		return nil, err
	}
	h := service.NewHandler(pool, service.HTTPConfig{})
	begin := cpuNow()
	for i, body := range driven {
		t := cpuNow()
		rec := post(h, body)
		u.lat = append(u.lat, ms(cpuNow()-t))
		if rec.Code != http.StatusOK {
			u.failed++
		}
		u.responses = append(u.responses, rec.Body.Bytes()...)
		u.responses = append(u.responses, '\n')
		if i%16 == 0 {
			heap.observe()
		}
	}
	u.cpu = cpuNow() - begin
	heap.observe()
	u.heapMB = heap.mb()
	u.final, err = state(pool)
	return u, err
}

func copyDir(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		src, err := os.Open(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		dst, err := os.Create(filepath.Join(to, e.Name()))
		if err == nil {
			_, err = io.Copy(dst, src)
			if cerr := dst.Close(); err == nil {
				err = cerr
			}
		}
		src.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// check validates a unit's drive: the restore reproduced the journaled
// state, and every decision names its job, keeps its arrival and places
// every partition on an in-range node. The first call records the driven
// decisions; later calls (the traced drive) must return the same bytes.
func (s *ccfdStream) check(k int, u *ccfdUnit, first *ccfdUnit) {
	r := s.r
	r.attempted += len(u.lat)
	r.failed += u.failed
	r.check(u.restored == s.want, "unit %d: restored state %+v, the pool had %+v before it was killed", k, u.restored, s.want)
	if first != nil {
		r.check(bytes.Equal(u.responses, first.responses) && u.final == first.final,
			"unit %d: the traced drive decided differently from the untraced one", k)
		return
	}
	for _, line := range bytes.Split(u.responses, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var d service.Decision
		if err := json.Unmarshal(line, &d); err != nil {
			r.check(false, "unit %d: undecodable decision %q: %v", k, line, err)
			return
		}
		s.decisions = append(s.decisions, d)
	}
	if len(s.decisions) != len(s.specs) {
		r.check(false, "unit %d: %d decisions for %d jobs", k, len(s.decisions), len(s.specs))
		return
	}
	for i := range s.decisions {
		if msg := s.validDecision(i); msg != "" {
			r.check(false, "unit %d: %s", k, msg)
			return
		}
	}
}

func (s *ccfdStream) validDecision(i int) string {
	spec, d := &s.specs[i], &s.decisions[i]
	switch {
	case d.Name != spec.Name:
		return fmt.Sprintf("job %d: decision names %q", i, d.Name)
	case d.Arrival != *spec.Arrival || d.Lifted:
		return fmt.Sprintf("job %d: arrival moved from %v to %v", i, *spec.Arrival, d.Arrival)
	case len(d.Placement) != ccfdParts:
		return fmt.Sprintf("job %d: %d partitions placed, want %d", i, len(d.Placement), ccfdParts)
	}
	for k, node := range d.Placement {
		if node < 0 || node >= ccfdNodes {
			return fmt.Sprintf("job %d: partition %d placed on node %d", i, k, node)
		}
	}
	return ""
}

// onlineJob rebuilds job i's effective engine input from its decision.
func (s *ccfdStream) onlineJob(i int, sched placement.Scheduler) (core.OnlineJob, error) {
	w, err := workload.Generate(*s.specs[i].Gen)
	if err != nil {
		return core.OnlineJob{}, err
	}
	d := &s.decisions[i]
	return core.OnlineJob{Name: d.Name, Arrival: d.Arrival, Workload: w, Scheduler: sched, PlacementOnly: d.Degraded}, nil
}

// avgCCT is the simulated average CCT of the admitted effective jobs,
// computed untimed through core.RunOnline.
func (s *ccfdStream) avgCCT() (float64, error) {
	jobs := make([]core.OnlineJob, len(s.specs))
	for i := range jobs {
		job, err := s.onlineJob(i, placement.CCF{})
		if err != nil {
			return 0, err
		}
		jobs[i] = job
	}
	rep, err := core.RunOnline(jobs, core.OnlineOptions{CoOptimize: true})
	if err != nil {
		return 0, err
	}
	return rep.AvgCCT, nil
}

func runCCFD(r *run) error {
	o := r.opts
	units := unitCount(o.seconds, ccfdUnitSeconds)
	if o.trace {
		// Each stream is driven twice, untraced and traced.
		units = unitCount(o.seconds, 2*ccfdUnitSeconds)
	}
	var plain, traced []*ccfdUnit
	var first *ccfdStream
	cct := 0.0
	for k := range units {
		s, err := newStream(r, k)
		if err != nil {
			return err
		}
		u, err := s.drive(false)
		if err != nil {
			return err
		}
		s.check(k, u, nil)
		plain = append(plain, u)
		if o.trace {
			t, err := s.drive(true)
			if err != nil {
				return err
			}
			s.check(k, t, u)
			traced = append(traced, t)
		}
		if len(r.problems) > 0 {
			return nil
		}
		if k == 0 && o.trace {
			first = s
		}
		if !o.trace {
			c, err := s.avgCCT()
			if err != nil {
				return err
			}
			cct += c
		}
		if err := os.RemoveAll(s.prefixDir); err != nil {
			return err
		}
	}

	if !o.trace {
		var rate, lat, heap, setup []float64
		for _, u := range plain {
			rate = append(rate, float64(len(u.lat))/u.cpu.Seconds())
			lat = append(lat, u.lat...)
			heap = append(heap, u.heapMB)
			setup = append(setup, u.restore.Seconds())
		}
		// Each decision admits one coflow, so the two rates coincide.
		r.set("jobs_per_s", median(rate))
		r.set("coflows_per_s", median(rate))
		r.set("p50_ms", percentile(lat, 50))
		r.set("p99_ms", percentile(lat, 99))
		r.set("heap_peak_mb", median(heap))
		r.set("sim_avg_cct_s", cct/float64(units))
		r.set("setup_s", median(setup))
		return nil
	}

	var handler, queue, decide, wal, snap, snaps, restore, tracedCPU, plainCPU []float64
	for i, u := range traced {
		sum := func(name string) (float64, uint64) {
			h := u.reg.Histogram(name, "", nil, metrics.L("shard", "0")...)
			return h.Sum(), h.Count()
		}
		q, _ := sum("ccfd_queue_wait_seconds")
		lat, _ := sum("ccfd_decision_latency_seconds")
		w, _ := sum("ccfd_wal_append_seconds")
		sn, n := sum("ccfd_snapshot_write_seconds")
		var h float64
		for _, l := range u.lat {
			h += l / 1e3
		}
		handler = append(handler, h)
		queue = append(queue, q)
		decide = append(decide, lat-q-w)
		wal = append(wal, w)
		snap = append(snap, sn)
		snaps = append(snaps, float64(n))
		restore = append(restore, u.restore.Seconds())
		tracedCPU = append(tracedCPU, u.cpu.Seconds())
		plainCPU = append(plainCPU, plain[i].cpu.Seconds())
	}
	r.set("service.handler_s", median(handler))
	r.set("service.queue_wait_s", median(queue))
	r.set("service.decide_s", median(decide))
	r.set("service.wal_append_s", median(wal))
	r.set("service.snapshot_write_s", median(snap))
	r.set("service.snapshots", median(snaps))
	r.set("service.restore_s", median(restore))
	r.set("trace.overhead_frac", median(tracedCPU)/median(plainCPU)-1)
	backlogs, avgCCT, err := first.corePass()
	if err != nil || backlogs == nil {
		return err
	}
	return first.netsimPass(backlogs, avgCCT)
}

// corePass submits the same jobs straight to a core.OnlineEngine, timing
// workload generation, placement and the network scheduler through
// wrappers, and checks every placement against the daemon's decision. Only
// the driven jobs (after the prefix) are timed. It returns the backlog each
// decision saw and the engine's average CCT.
func (s *ccfdStream) corePass() ([]partition.Loads, float64, error) {
	r := s.r
	alloc := newTimedVarys()
	placer := &timedPlacer{Scheduler: placement.CCF{}}
	eng, err := core.NewOnlineEngine(ccfdNodes, core.OnlineOptions{CoOptimize: true, NetworkScheduler: alloc})
	if err != nil {
		return nil, 0, err
	}
	backlogs := make([]partition.Loads, len(s.specs))
	var generate, submit, self time.Duration
	backlogged := 0
	for i := range s.specs {
		if i == s.prefix {
			alloc.busy, alloc.calls, placer.busy = 0, 0, 0
		}
		t := cpuNow()
		job, err := s.onlineJob(i, placer)
		if err != nil {
			return nil, 0, err
		}
		gen := cpuNow() - t
		inAlloc, inPlace := alloc.busy, placer.busy
		t = cpuNow()
		dec, err := eng.Submit(job)
		if err != nil {
			return nil, 0, err
		}
		d := cpuNow() - t
		if i >= s.prefix {
			generate += gen
			submit += d
			self += d - (alloc.busy - inAlloc) - (placer.busy - inPlace)
			if slices.ContainsFunc(dec.Backlog.Egress, func(v int64) bool { return v != 0 }) {
				backlogged++
			}
		}
		if !slices.Equal(dec.Placement.Dest, s.decisions[i].Placement) {
			r.check(false, "job %d: the engine placed it differently from the daemon", i)
			return nil, 0, nil
		}
		backlogs[i] = dec.Backlog
	}
	rep, err := eng.Finish()
	if err != nil {
		return nil, 0, err
	}
	driven := len(s.specs) - s.prefix
	r.set("workload.generate_s", generate.Seconds())
	r.set("placement.place_s", placer.busy.Seconds())
	r.set("core.submit_s", submit.Seconds())
	r.set("core.submit_self_s", self.Seconds())
	r.set("core.backlog_share", float64(backlogged)/float64(driven))
	r.set("coflow.allocate_s", alloc.busy.Seconds())
	r.set("coflow.allocate_calls", float64(alloc.calls))
	r.set("coflow.allocate_us_per_call", alloc.busy.Seconds()/float64(max(alloc.calls, 1))*1e6)
	return backlogs, rep.AvgCCT, nil
}

// netsimPass re-drives the admitted coflows through a dense netsim session
// with the call sequence the engine makes — advance to each arrival, read
// the backlog, admit — timing each call. The backlog read at every arrival
// must equal the one the engine placed against. Only the driven jobs are
// timed; Finish runs the tail the daemon never simulates.
func (s *ccfdStream) netsimPass(backlogs []partition.Loads, engineAvgCCT float64) error {
	r := s.r
	if backlogs == nil {
		return nil
	}
	sched := newTimedVarys()
	fabric, err := netsim.NewFabric(ccfdNodes, 0)
	if err != nil {
		return err
	}
	ses, err := netsim.NewSimulator(fabric, sched).Session()
	if err != nil {
		return err
	}
	eg, in := make([]int64, ccfdNodes), make([]int64, ccfdNodes)
	var adv, backlog, admit time.Duration
	epochs, peak := 0, 0
	for i := range s.specs {
		if i == s.prefix {
			epochs = ses.Report().Epochs
		}
		d := &s.decisions[i]
		w, err := workload.Generate(*s.specs[i].Gen)
		if err != nil {
			return err
		}
		vol, err := partition.FlowVolumes(w.Chunks, &partition.Placement{Dest: d.Placement})
		if err != nil {
			return err
		}
		cf, err := coflow.FromVolumes(i, d.Name, d.Arrival, ccfdNodes, vol)
		if err != nil {
			return err
		}
		timed := i >= s.prefix
		if i > 0 && !d.Degraded {
			inAlloc := sched.busy
			t := cpuNow()
			if err := ses.Advance(d.Arrival); err != nil {
				return err
			}
			a := cpuNow() - t - (sched.busy - inAlloc)
			t = cpuNow()
			if err := ses.BacklogInto(eg, in); err != nil {
				return err
			}
			bl := cpuNow() - t
			if timed {
				adv += a
				backlog += bl
			}
			want := backlogs[i]
			if !slices.Equal(eg, want.Egress) || !slices.Equal(in, want.Ingress) {
				r.check(false, "job %d: netsim backlog differs from the one the engine placed against", i)
				return nil
			}
		}
		t := cpuNow()
		if err := ses.Admit(cf); err != nil {
			return err
		}
		if timed {
			admit += cpuNow() - t
		}
		peak = max(peak, ses.AdmittedCount())
	}
	epochs = ses.Report().Epochs - epochs
	t := cpuNow()
	rep, err := ses.Finish()
	if err != nil {
		return err
	}
	finish := cpuNow() - t
	var sum float64
	for i := range s.specs {
		sum += rep.CCTs[i]
	}
	avg := sum / float64(len(s.specs))
	r.check(avg == engineAvgCCT, "netsim re-drive average CCT %v, engine %v", avg, engineAvgCCT)
	r.set("netsim.advance_self_s", adv.Seconds())
	r.set("netsim.backlog_s", backlog.Seconds())
	r.set("netsim.admit_s", admit.Seconds())
	r.set("netsim.finish_s", finish.Seconds())
	r.set("netsim.epochs", float64(epochs))
	r.set("netsim.peak_resident", float64(peak))
	return nil
}
