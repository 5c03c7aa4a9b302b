package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// spec mirrors BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// root is the repository root: the benchmark command runs from there.
const root = ".."

func loadSpec(t *testing.T) *spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &s
}

// bench runs the benchmark command from BENCHMARK.json at a tiny size and
// returns its exit error and the parsed last line of its output.
func bench(t *testing.T, s *spec, args ...string) (*result, error) {
	t.Helper()
	args = append(append(slices.Clone(s.Command[1:]), "--seed", "3", "--seconds", "0.1", "--scale", "0.01"), args...)
	cmd := exec.Command(s.Command[0], args...)
	cmd.Dir = root
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: no result line (%v); stderr:\n%s", args, err, stderr.String())
	}
	return &res, runErr
}

func TestWorkloadsEmitBenchmarkNames(t *testing.T) {
	s := loadSpec(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range s.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		want[true][m.Name] = m.Unit
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	var have []string
	for name := range workloads {
		have = append(have, name)
	}
	slices.Sort(have)
	if !slices.Equal(names, have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
	}
	for _, w := range names {
		for _, traced := range []bool{false, true} {
			flag := map[bool]string{false: "0", true: "1"}[traced]
			res, err := bench(t, s, "--workload", w, "--trace", flag)
			if err != nil || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s --trace %s: exit %v, result %+v", w, flag, err, res)
				continue
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !maps.Equal(got, want[traced]) {
				t.Errorf("%s --trace %s emitted %v, BENCHMARK.json names %v", w, flag, got, want[traced])
			}
		}
	}
}

func TestTamperedResultsAreRejected(t *testing.T) {
	s := loadSpec(t)
	for _, c := range []struct{ workload, tamper string }{
		{"replay-steady", "drop-coflow"},
		{"replay-overload", "drop-coflow"},
		{"ccfd-closed", "digest"},
	} {
		res, err := bench(t, s, "--workload", c.workload, "--trace", "0", "--tamper", c.tamper)
		if err == nil || res.Correct {
			t.Errorf("%s with %s: exit %v, correct %v; want a rejected run", c.workload, c.tamper, err, res.Correct)
		}
	}
}

// TestBenchmarkJSONLimits checks the limits BENCHMARK.json must respect.
func TestBenchmarkJSONLimits(t *testing.T) {
	s := loadSpec(t)
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", s.RunSeconds)
	}
	if !slices.Equal(s.Paths, []string{"perfbench"}) {
		t.Errorf("paths %v", s.Paths)
	}
	for _, w := range s.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var setup float64
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		}
		if units[m.Name] != m.Unit || !isEndToEnd[m.Name] {
			t.Errorf("%s: unit %q, the benchmark emits %q (end to end: %v)", m.Name, m.Unit, units[m.Name], isEndToEnd[m.Name])
		}
	}
	for _, m := range s.EndToEnd {
		if m.Bound > setup {
			t.Errorf("%s: bound %v above setup_s's %v", m.Name, m.Bound, setup)
		}
	}
	for _, m := range s.PerLayer {
		if units[m.Name] != m.Unit || isEndToEnd[m.Name] {
			t.Errorf("%s: unit %q, the benchmark emits %q", m.Name, m.Unit, units[m.Name])
		}
	}
}

// TestLayerMapCoversPerLayerMetrics checks that README.md's layer map gives
// every per-layer metric the end-to-end metrics it should move and the
// workloads it should move them on, all named in BENCHMARK.json.
func TestLayerMapCoversPerLayerMetrics(t *testing.T) {
	s := loadSpec(t)
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(string(readme), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) == 5 && strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			rows[strings.Trim(strings.TrimSpace(cells[1]), "`")] = cells[2:4]
		}
	}
	known := map[string]bool{}
	for _, m := range s.EndToEnd {
		known[m.Name] = true
	}
	for _, w := range s.Workloads {
		known[w.Name] = true
	}
	for _, m := range s.PerLayer {
		row, ok := rows[m.Name]
		if !ok {
			t.Errorf("%s: no row in README.md's layer map", m.Name)
			continue
		}
		for _, cell := range row {
			for _, name := range strings.Split(cell, ",") {
				if name = strings.TrimSpace(name); !known[name] {
					t.Errorf("%s: the layer map names %q, which BENCHMARK.json does not define", m.Name, name)
				}
			}
		}
	}
}
