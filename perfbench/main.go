// Command perfbench is the repository benchmark. It replays the synthetic
// Facebook trace through the streaming simulator and drives the ccfd
// co-optimizer in-process, checks that every output is correct, and prints
// one JSON result line. README.md lists the workloads, the metrics and the
// end-to-end metric each per-layer metric should move.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a separate, instrumented run that is
// interleaved with an untraced one, so the two can be compared for identical
// outputs and for the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// scale multiplies every workload size; the benchmark's tests run the
	// workloads at a tiny scale.
	scale float64
	// workdir holds the run's scratch state (ccfd state directories); it is
	// removed when the run ends.
	workdir string
	// tamper injects a known defect into the outputs the checks see, so the
	// tests can show that the checks reject it: "drop-coflow" (replay) or
	// "digest" (ccfd-closed).
	tamper string
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one run's counts, metrics and correctness violations.
type run struct {
	opts      options
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
}

// check records a violation when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("perfbench: metric " + name + " has no unit")
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// units names every metric the benchmark can emit, with its unit.
var units = map[string]string{
	// End to end (--trace 0).
	"coflows_per_s": "1/s",
	"jobs_per_s":    "1/s",
	"p50_ms":        "ms",
	"p99_ms":        "ms",
	"heap_peak_mb":  "MB",
	"sim_avg_cct_s": "s",
	"setup_s":       "s",
	// Per layer (--trace 1).
	"coflow.allocate_s":           "s",
	"coflow.allocate_calls":       "count",
	"coflow.allocate_us_per_call": "us",
	"fbtrace.next_s":              "s",
	"netsim.advance_self_s":       "s",
	"netsim.admit_s":              "s",
	"netsim.finish_s":             "s",
	"netsim.backlog_s":            "s",
	"netsim.epochs":               "count",
	"netsim.peak_resident":        "count",
	"core.submit_s":               "s",
	"core.submit_self_s":          "s",
	"core.backlog_share":          "frac",
	"workload.generate_s":         "s",
	"placement.place_s":           "s",
	"service.handler_s":           "s",
	"service.queue_wait_s":        "s",
	"service.decide_s":            "s",
	"service.wal_append_s":        "s",
	"service.snapshot_write_s":    "s",
	"service.snapshots":           "count",
	"service.restore_s":           "s",
	"failed_frac":                 "frac",
	"trace.overhead_frac":         "frac",
}

// isEndToEnd marks the metrics of an untraced run; every other metric is
// reported by the traced run.
var isEndToEnd = map[string]bool{
	"coflows_per_s": true, "jobs_per_s": true, "p50_ms": true, "p99_ms": true,
	"heap_peak_mb": true, "sim_avg_cct_s": true, "setup_s": true,
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(*run) error{
	"replay-steady":   func(r *run) error { return runReplay(r, replaySteady) },
	"replay-overload": func(r *run) error { return runReplay(r, replayOverload) },
	"ccfd-closed":     runCCFD,
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: replay-steady, replay-overload or ccfd-closed")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 12, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from an instrumented run")
	flag.Float64Var(&o.scale, "scale", 1, "multiplier on every workload size")
	flag.StringVar(&o.tamper, "tamper", "", "inject a defect the checks must reject: drop-coflow or digest")
	flag.Parse()

	drive, ok := workloads[o.workload]
	switch {
	case !ok:
		fail(fmt.Errorf("unknown --workload %q", o.workload))
	case *trace != 0 && *trace != 1:
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	case o.seconds <= 0 || o.scale <= 0:
		fail(fmt.Errorf("--seconds and --scale must be positive"))
	case o.tamper != "" && o.tamper != "drop-coflow" && o.tamper != "digest":
		fail(fmt.Errorf("unknown --tamper %q", o.tamper))
	}
	o.trace = *trace == 1

	// run.sh creates .bench_build in the checkout root, the working
	// directory, and keeps the build there too.
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fail(err)
	}
	o.workdir = dir
	r := &run{opts: o, metrics: make(map[string]metric)}
	err = drive(r)
	if rmErr := os.RemoveAll(dir); err == nil {
		err = rmErr
	}
	if err != nil {
		fail(err)
	}
	if r.attempted > 0 {
		r.set("failed_frac", float64(r.failed)/float64(r.attempted))
	}
	if o.trace {
		// Layers a workload does not exercise report zero.
		for name := range units {
			if _, ok := r.metrics[name]; !ok && !isEndToEnd[name] {
				r.set(name, 0)
			}
		}
	}
	res := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for name, m := range r.metrics {
		if isEndToEnd[name] != o.trace {
			res.Metrics[name] = m
		}
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// fail reports an error that stopped the run and exits without a result.
func fail(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "perfbench") {
		msg = "perfbench: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
