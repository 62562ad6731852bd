package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"meg/internal/bench"
	"meg/internal/metrics"
)

// runSuite executes the benchmark trajectory suite and writes
// BENCH_<git-sha>.json into outDir. The process exits non-zero when a
// scenario's sharded variant diverges from its serial one (the same
// engine on one shard, or the full-rebuild baseline) on the
// same seeds — the file is still written first, so CI can upload the
// evidence alongside the failure. With compareDir set, the run is also
// diffed against the newest BENCH file there (the bench/history
// trajectory; when compareDir is outDir, the file just written is left
// out) and a regression table printed on stdout — warnings
// only, never a failure, since runner speed drifts. The regression
// threshold is per-scenario: each scenario's own noise band over the
// trailing trajectory when there's enough history, the flat 20%
// default otherwise. With telemetry, every variant carries its
// engine-phase breakdown (observation only — checksums are unchanged);
// with profile directories set, per-scenario pprof files land there
// (see bench.Options).
func runSuite(outDir string, jsonOut bool, compareDir string, opts bench.Options) {
	telemetry := opts.Telemetry
	opts.Log = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	f, runErr := bench.Run(opts)
	if f == nil {
		fmt.Fprintf(os.Stderr, "megbench: %v\n", runErr)
		os.Exit(1)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "megbench: %v\n", err)
		os.Exit(1)
	}
	path := filepath.Join(outDir, bench.FileName(f.GitSHA))
	if err := f.Write(path); err != nil {
		fmt.Fprintf(os.Stderr, "megbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "megbench: wrote %s\n", path)
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(f); err != nil {
			fmt.Fprintf(os.Stderr, "megbench: %v\n", err)
			os.Exit(1)
		}
	} else {
		for _, r := range f.Results {
			status := "identical"
			if !r.Identical {
				status = "DIVERGED"
			}
			fmt.Printf("%-24s n=%-7d speedup=%.2fx  %s\n", r.Name, r.N, r.SpeedupVsSerial, status)
			if telemetry {
				if v, ok := lastTelemetry(r); ok {
					fmt.Printf("%-24s %s\n", "", phaseBreakdown(v))
				}
			}
		}
	}
	if compareDir != "" {
		files, err := bench.LoadAll(compareDir)
		if err != nil {
			// A missing trajectory is normal on first run — say so and
			// move on; the comparison is advisory by design.
			fmt.Fprintf(os.Stderr, "megbench: no comparison baseline: %v\n", err)
		} else {
			// With -json, stdout is reserved for the BENCH document;
			// the human-facing comparison moves to stderr (workflow
			// annotations are interpreted on either stream).
			out := os.Stdout
			if jsonOut {
				out = os.Stderr
			}
			fmt.Fprintln(out)
			cmp := bench.CompareHistory(files, f)
			cmp.WriteMarkdown(out)
			cmp.WriteWarnings(out)
		}
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "megbench: %v\n", runErr)
		os.Exit(1)
	}
}

// lastTelemetry returns the sharded variant's phase breakdown, when
// the run collected one.
func lastTelemetry(r bench.Result) (*metrics.PhaseTotals, bool) {
	if len(r.Variants) == 0 {
		return nil, false
	}
	t := r.Variants[len(r.Variants)-1].Telemetry
	return t, t != nil && t.Rounds > 0
}

// phaseBreakdown renders one variant's phase totals as a compact line.
func phaseBreakdown(t *metrics.PhaseTotals) string {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	return fmt.Sprintf("phases: snapshot=%.1fms kernel=%.1fms (merge=%.1fms) step=%.1fms delta=%.1fms rounds=%d",
		ms(t.SnapshotNS), ms(t.KernelNS), ms(t.MergeNS), ms(t.StepNS), ms(t.DeltaApplyNS), t.Rounds)
}

// runHistory prints the whole trajectory in dir as per-scenario trend
// tables — where -compare diffs only the newest entry, -history shows
// how each scenario's wall time and speedup moved across every recorded
// run. Standalone: no experiments execute.
func runHistory(dir string) {
	files, err := bench.LoadAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "megbench: %v\n", err)
		os.Exit(1)
	}
	bench.BuildHistory(files).WriteMarkdown(os.Stdout)
}
