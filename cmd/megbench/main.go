// Command megbench regenerates the paper-reproduction experiments
// (E1–E13, see DESIGN.md): every theorem, claim and corollary of the
// paper is validated by simulation and printed as a table plus
// pass/fail shape checks. With -suite it instead runs the benchmark
// trajectory suite: a fixed set of named flooding scenarios timed with
// the serial and the sharded engine on the same seeds, written as a
// schema-versioned BENCH_<git-sha>.json (and failing if the engines'
// results diverge).
//
// Usage:
//
//	megbench [flags] [experiment IDs...]
//	megbench -suite [flags] [scenario name filters...]
//
// With no IDs, the full experiment suite runs in index order.
//
// Flags:
//
//	-scale quick|standard|full   experiment size (default standard)
//	-seed N                      base RNG seed (default 1)
//	-workers N                   parallelism (default: all CPUs)
//	-par N                       intra-trial sharded-engine workers
//	                             (0/1 = serial, -1 = all CPUs); results
//	                             are identical for every value
//	-compare DIR                 with -suite: diff against the newest
//	                             BENCH file in DIR (regression table;
//	                             thresholds come from each scenario's
//	                             noise band over the trailing trajectory,
//	                             falling back to a flat 20%); DIR may be
//	                             the -out directory: the entry just
//	                             written is left out of the baseline and
//	                             the bands
//	-telemetry                   with -suite: record per-variant engine
//	                             phase breakdowns (observation only)
//	-cpuprofile DIR              with -suite: write one CPU profile per
//	                             scenario (<scenario>.cpu.pprof) into DIR
//	-memprofile DIR              with -suite: write one post-GC heap
//	                             profile per scenario into DIR
//	-history DIR                 print a per-scenario trend table across
//	                             every BENCH file in DIR and exit (runs
//	                             nothing; -compare diffs only the newest)
//	-csv DIR                     also write every table as CSV into DIR
//	-list                        list experiments and exit
//	-suite                       run the benchmark trajectory suite
//	-out DIR                     directory for BENCH_<sha>.json (default .)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"meg/internal/bench"
	"meg/internal/experiments"
)

func main() {
	scaleFlag := flag.String("scale", "standard", "experiment scale: quick|standard|full")
	seed := flag.Uint64("seed", 1, "base RNG seed")
	workers := flag.Int("workers", 0, "worker goroutines (0 = all CPUs)")
	parallelism := flag.Int("par", 0, "intra-trial worker count of the sharded engine (0/1 = serial, -1 = all CPUs); results are identical for every value")
	compareDir := flag.String("compare", "", "with -suite: diff the run against the newest bench/history BENCH file in this directory and print a regression table (the run's own entry, when -out writes it there, is skipped)")
	historyDir := flag.String("history", "", "print a per-scenario trend table across every BENCH file in this directory and exit (no experiments run)")
	csvDir := flag.String("csv", "", "directory to write per-table CSV files (created if missing)")
	jsonOut := flag.Bool("json", false, "emit the reports (or the BENCH file with -suite) as JSON on stdout instead of text")
	list := flag.Bool("list", false, "list experiments and exit")
	suite := flag.Bool("suite", false, "run the benchmark trajectory suite and write BENCH_<git-sha>.json")
	outDir := flag.String("out", ".", "directory for the BENCH_<git-sha>.json artifact (with -suite)")
	telemetry := flag.Bool("telemetry", false, "with -suite: record per-variant engine-phase breakdowns (observation only; checksums are unchanged)")
	cpuProfileDir := flag.String("cpuprofile", "", "with -suite: write one CPU profile per scenario into this directory (<scenario>.cpu.pprof)")
	memProfileDir := flag.String("memprofile", "", "with -suite: write one post-GC heap profile per scenario into this directory (<scenario>.mem.pprof)")
	flag.Parse()

	if *historyDir != "" {
		runHistory(*historyDir)
		return
	}

	if *suite {
		runSuite(*outDir, *jsonOut, *compareDir, bench.Options{
			Parallelism:   *parallelism,
			Filter:        flag.Args(),
			Telemetry:     *telemetry,
			CPUProfileDir: *cpuProfileDir,
			MemProfileDir: *memProfileDir,
		})
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	params := experiments.Params{Scale: scale, Seed: *seed, Workers: *workers, Parallelism: *parallelism}

	var selected []experiments.Experiment
	if flag.NArg() == 0 {
		selected = experiments.All()
	} else {
		for _, id := range flag.Args() {
			e, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "megbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "megbench: %v\n", err)
			os.Exit(1)
		}
	}

	failures := 0
	var reports []*experiments.Report
	for _, e := range selected {
		start := time.Now()
		rep := e.Run(params)
		if *jsonOut {
			reports = append(reports, rep)
			fmt.Fprintf(os.Stderr, "megbench: %s done (scale=%s, %.1fs)\n", e.ID, scale, time.Since(start).Seconds())
		} else {
			rep.WriteText(os.Stdout)
			fmt.Printf("   (%s, scale=%s, %.1fs)\n\n", e.ID, scale, time.Since(start).Seconds())
		}
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, e.ID, rep); err != nil {
				fmt.Fprintf(os.Stderr, "megbench: %v\n", err)
				os.Exit(1)
			}
		}
		if !rep.Passed() {
			failures++
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintf(os.Stderr, "megbench: %v\n", err)
			os.Exit(1)
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "megbench: %d experiment(s) with failing checks\n", failures)
		os.Exit(1)
	}
}

// writeCSVs writes every table of the report as <dir>/<id>_<k>.csv.
func writeCSVs(dir, id string, rep *experiments.Report) error {
	for k, t := range rep.Tables {
		name := fmt.Sprintf("%s_%d.csv", strings.ToLower(id), k)
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
