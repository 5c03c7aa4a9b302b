package fbtrace

import (
	"math"
	"runtime"
	"testing"
)

// TestStreamMatchesGenerate pins the streaming contract: at density 1 the
// stream yields the exact coflow sequence Generate builds — same arrivals,
// names, flow endpoints and sizes, bit for bit — across seeds and shapes.
func TestStreamMatchesGenerate(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		cfg := Config{
			Machines:            4 + int(seed%13),
			Coflows:             30 + int(seed*7),
			MeanInterarrivalSec: 0.25 + float64(seed)*0.5,
			Seed:                seed,
		}
		want, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Density = 1
		st, err := Stream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st.Total() != len(want) {
			t.Fatalf("seed %d: Total() = %d, want %d", seed, st.Total(), len(want))
		}
		for i, w := range want {
			if got := st.Remaining(); got != len(want)-i {
				t.Fatalf("seed %d: Remaining() = %d at %d, want %d", seed, got, i, len(want)-i)
			}
			c, ok := st.Next()
			if !ok {
				t.Fatalf("seed %d: stream exhausted at %d of %d", seed, i, len(want))
			}
			if c.ID != w.ID || c.Name != w.Name || c.Arrival != w.Arrival || len(c.Flows) != len(w.Flows) {
				t.Fatalf("seed %d: coflow %d mismatch: (%d,%q,%v,%d) != (%d,%q,%v,%d)",
					seed, i, c.ID, c.Name, c.Arrival, len(c.Flows), w.ID, w.Name, w.Arrival, len(w.Flows))
			}
			for j := range w.Flows {
				gf, wf := c.Flows[j], w.Flows[j]
				if gf.ID != wf.ID || gf.Src != wf.Src || gf.Dst != wf.Dst || gf.Size != wf.Size {
					t.Fatalf("seed %d: coflow %d flow %d: (%d,%d→%d,%g) != (%d,%d→%d,%g)",
						seed, i, j, gf.ID, gf.Src, gf.Dst, gf.Size, wf.ID, wf.Src, wf.Dst, wf.Size)
				}
			}
		}
		if c, ok := st.Next(); ok {
			t.Fatalf("seed %d: stream over-produced coflow %d", seed, c.ID)
		}
		if _, ok := st.Next(); ok {
			t.Fatalf("seed %d: exhausted stream yielded again", seed)
		}
	}
}

// TestStreamDensity pins the scaling semantics: Density d yields
// round(Coflows·d) coflows with interarrivals compressed by d, preserving
// strict arrival ordering and the per-coflow validity invariants.
func TestStreamDensity(t *testing.T) {
	base := Config{Machines: 10, Coflows: 40, MeanInterarrivalSec: 1, Seed: 3}
	for _, density := range []float64{0.5, 1, 10, 100} {
		cfg := base
		cfg.Density = density
		st, err := Stream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := int(math.Round(40 * density))
		if st.Total() != want {
			t.Fatalf("density %g: Total() = %d, want %d", density, st.Total(), want)
		}
		prev := -1.0
		n := 0
		var last float64
		for {
			c, ok := st.Next()
			if !ok {
				break
			}
			n++
			if c.Arrival <= prev {
				t.Fatalf("density %g: arrivals not strictly increasing", density)
			}
			prev = c.Arrival
			last = c.Arrival
			if len(c.Flows) == 0 {
				t.Fatalf("density %g: empty coflow", density)
			}
		}
		if n != want {
			t.Fatalf("density %g: yielded %d coflows, want %d", density, n, want)
		}
		// Higher density ⟹ arrivals compress: the span per coflow shrinks
		// like 1/d in expectation. Just sanity-check the ×100 case is far
		// denser than ×1 would be.
		if density == 100 && last/float64(n) > base.MeanInterarrivalSec {
			t.Errorf("density 100: mean spacing %g did not compress", last/float64(n))
		}
	}
}

func TestStreamValidation(t *testing.T) {
	good := Config{Machines: 4, Coflows: 10}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"one machine", func(c *Config) { c.Machines = 1 }},
		{"zero coflows", func(c *Config) { c.Coflows = 0 }},
		{"negative density", func(c *Config) { c.Density = -1 }},
		{"NaN density", func(c *Config) { c.Density = math.NaN() }},
		{"infinite density", func(c *Config) { c.Density = math.Inf(1) }},
		{"density thins to zero", func(c *Config) { c.Density = 1e-9 }},
		{"bad mix", func(c *Config) { c.Mix = Mix{SN: 0.9, LN: 0.9} }},
	} {
		cfg := good
		tc.mutate(&cfg)
		if _, err := Stream(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if _, err := Generate(cfg); err == nil {
			t.Errorf("%s: Generate accepted", tc.name)
		}
	}
	if _, err := Stream(good); err != nil {
		t.Errorf("baseline rejected: %v", err)
	}
}

// TestStreamNextAllocations pins what one streamed coflow costs the heap:
// the coflow, its name, its flow-pointer slice and one object per flow. The
// draw buffer is reused across Next calls and the pointer slice is sized
// exactly, so neither regrows per coflow; a trace replay's garbage-collection
// load (and with it its host-time spread) scales with these allocations.
func TestStreamNextAllocations(t *testing.T) {
	st, err := Stream(Config{Machines: 16, Coflows: 400, MeanInterarrivalSec: 0.001, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for range 100 { // let the draw buffer reach its working size
		st.Next()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	coflows, flows := 0, 0
	for {
		c, ok := st.Next()
		if !ok {
			break
		}
		coflows++
		flows += len(c.Flows)
	}
	runtime.ReadMemStats(&after)
	// Per coflow: the Coflow, the pointer slice, and at most two for the
	// name; the slack covers the draw buffer growing to a wider coflow.
	const slack = 16
	if got, limit := after.Mallocs-before.Mallocs, uint64(flows+4*coflows+slack); got > limit {
		t.Errorf("streaming %d coflows (%d flows) made %d allocations, want at most %d", coflows, flows, got, limit)
	}
}
