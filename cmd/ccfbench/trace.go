package main

// trace-scale: replay the synthetic Facebook trace at increasing density
// multipliers and write BENCH_trace.json. Each density row replays
// round(base·density) coflows with interarrivals compressed by the same
// factor through the streaming path (fbtrace.Stream → core.ReplayStream with
// completed-coflow release), so the trace never materialises as a slice.
// Densities up to -tracedense are also run as one batch (fbtrace.Generate →
// netsim.RunInto, the same event loop over the materialised trace) to assert
// that the two agree bit for bit; beyond that the batch run is skipped (at
// ×1000 it would dominate CI) and the row carries only the streaming
// numbers.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ccf/internal/coflow"
	"ccf/internal/core"
	"ccf/internal/fbtrace"
	"ccf/internal/netsim"
)

type traceRow struct {
	Density    float64 `json:"density"`
	Coflows    int     `json:"coflows"`
	Scheduler  string  `json:"scheduler"`
	WallSec    float64 `json:"wall_sec"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	Epochs     int     `json:"epochs"`
	AvgCCT     float64 `json:"avg_cct_sec"`
	// PeakResident is the session's coflow high-water mark — the
	// deterministic memory bound of the streaming replay.
	PeakResident int `json:"peak_resident_coflows"`
	// HeapAllocBytes samples runtime heap-in-use right after the replay (a
	// peak-RSS proxy; GC timing makes it approximate, PeakResident is the
	// deterministic counterpart).
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	// Batch-comparison fields, present only on rows where the batch run ran.
	BatchWallSec float64 `json:"batch_wall_sec,omitempty"`
	BatchMatch   bool    `json:"batch_match,omitempty"`
}

// parseDensities parses the -density list. Every entry must be a positive,
// finite number.
func parseDensities(list string) ([]float64, error) {
	var out []float64
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		d, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("-density: %q is not a number", tok)
		}
		if d <= 0 {
			return nil, fmt.Errorf("-density: multipliers must be positive, got %g", d)
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-density: empty list")
	}
	return out, nil
}

func traceScaleExp(path string, densities []float64, machines, coflows int, batchMax float64) error {
	fmt.Printf("trace-scale: FB-like trace replay, %d machines, base %d coflows (batch comparison up to ×%g):\n",
		machines, coflows, batchMax)
	var rows []traceRow
	for _, density := range densities {
		cfg := fbtrace.Config{
			Machines:            machines,
			Coflows:             coflows,
			MeanInterarrivalSec: 1,
			Seed:                42,
			Density:             density,
		}
		st, err := fbtrace.Stream(cfg)
		if err != nil {
			return err
		}
		total := st.Total()

		runtime.GC()
		start := time.Now()
		rep, err := core.ReplayStream(machines, st, core.ReplayOptions{
			Scheduler:        coflow.NewVarys(),
			ReleaseCompleted: true,
		})
		wall := time.Since(start).Seconds()
		if err != nil {
			return fmt.Errorf("density %g: %w", density, err)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)

		row := traceRow{
			Density:        density,
			Coflows:        total,
			Scheduler:      "varys",
			WallSec:        wall,
			JobsPerSec:     float64(total) / wall,
			Epochs:         rep.Epochs,
			AvgCCT:         rep.AvgCCT,
			PeakResident:   rep.PeakResident,
			HeapAllocBytes: ms.HeapAlloc,
		}

		if density <= batchMax {
			batchStart := time.Now()
			cfs, err := fbtrace.Generate(cfg)
			if err != nil {
				return err
			}
			fab, err := netsim.NewFabric(machines, 0)
			if err != nil {
				return err
			}
			var batchRep netsim.Report
			if err := netsim.NewSimulator(fab, coflow.NewVarys()).RunInto(cfs, &batchRep); err != nil {
				return fmt.Errorf("density %g batch: %w", density, err)
			}
			row.BatchWallSec = time.Since(batchStart).Seconds()
			row.BatchMatch = rep.AvgCCT == batchRep.AvgCCT &&
				rep.Makespan == batchRep.Makespan &&
				rep.TotalBytes == batchRep.TotalBytes &&
				rep.MaxCCT == batchRep.MaxCCT &&
				rep.Epochs == batchRep.Epochs
			if !row.BatchMatch {
				return fmt.Errorf("density %g: streaming replay diverged from the batch run "+
					"(avgCCT %v vs %v, makespan %v vs %v, epochs %d vs %d)",
					density, rep.AvgCCT, batchRep.AvgCCT, rep.Makespan, batchRep.Makespan,
					rep.Epochs, batchRep.Epochs)
			}
		}

		rows = append(rows, row)
		fmt.Printf("  ×%-6g %7d coflows  %8.2fs wall  %9.1f jobs/s  peak resident %6d",
			density, total, row.WallSec, row.JobsPerSec, row.PeakResident)
		if row.BatchWallSec > 0 {
			fmt.Printf("  batch %8.2fs (bit-identical)", row.BatchWallSec)
		}
		fmt.Println()
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", path)
	return nil
}
