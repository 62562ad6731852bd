// Command perfbench is meg's end-to-end benchmark. One run measures one
// workload in its own process for a fixed number of seconds and prints
// every metric by name and unit, then one JSON result line:
//
//	bash perfbench/run.sh --workload geom-flood-4k --seed 1 --seconds 10 --trace 0
//
// --workload all runs every workload, each in a child process. With
// --trace 1 the same workload and seed run again with spans recorded at
// every layer boundary, and the per-layer metrics are printed instead
// of the end-to-end ones. See README.md for the metric catalog.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// A run builds setupBefore fresh fixtures before the timed window, and
// times the last one, then setupAfter more once the window and the checks
// are done. setup_s is the median of all their build times: one build of
// a few hundred ms is at the mercy of the host, and builds spread over
// the whole run sample it at different moments. peak_rss_mb is read
// before the builds after the window: each build's peak depends on where
// the GC pacer lands, so a maximum over every build would report the
// rare worst one.
const (
	setupBefore = 1
	setupAfter  = 6
)

// timeBuilds builds k fresh fixtures one after another, appends each
// build time to rep.setupS, and returns the last fixture. Before each
// build, untimed, it hands the previous fixture to drop (when non-nil)
// and collects garbage, so every build starts from the same heap and no
// build's garbage inflates peak RSS.
func timeBuilds[F any](rep *report, k int, build func() (F, error), drop func(F)) (F, error) {
	var fx F
	for b := 0; b < k; b++ {
		if b > 0 && drop != nil {
			drop(fx)
		}
		var zero F
		fx = zero
		runtime.GC()
		t0 := time.Now()
		var err error
		if fx, err = build(); err != nil {
			return fx, err
		}
		rep.setupS = append(rep.setupS, time.Since(t0).Seconds())
	}
	return fx, nil
}

type runConfig struct {
	seed     uint64
	window   time.Duration
	trace    bool
	traceDir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload run measured.
type report struct {
	setupS    []float64 // every fixture build's time
	latMs     []float64 // per-op latency
	window    time.Duration
	cpu       time.Duration
	allocB    uint64
	attempted int
	failed    int
	lateMaxMs float64
	peakRSSMB float64 // before the set-up builds that follow the window
	digest    uint64
	notes     []string
	layer     map[string]metric // traced runs only
	tracer    *tracer
}

// fail counts a failed op or check, keeping the first few reasons.
func (r *report) fail(reason string) {
	r.failed++
	if len(r.notes) < 10 {
		r.notes = append(r.notes, reason)
	}
}

func (r *report) noteLate(d time.Duration) {
	if v := ms(d); v > r.lateMaxMs {
		r.lateMaxMs = v
	}
}

// usage records the process counters over the timed window [a, b].
func (r *report) usage(a, b usage) {
	r.window = b.wall.Sub(a.wall)
	r.cpu = b.cpu - a.cpu
	r.allocB = b.alloc - a.alloc
}

var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// layerCatalog lists every per-layer metric with its unit. A traced run
// reports all of them; a layer a workload never calls reads 0.
var layerCatalog = []struct{ name, unit string }{
	{"geommeg.graph_ms_per_op", "ms"},
	{"geommeg.graph_ms_p50", "ms"},
	{"geommeg.graph_alloc_mb_per_op", "MB"},
	{"geommeg.step_ms_per_op", "ms"},
	{"geommeg.reset_ms_per_op", "ms"},
	{"geommeg.op_share", "ratio"},
	{"graph.edges_per_snapshot", "count"},
	{"graph.csr_mb_per_snapshot", "MB"},
	{"graph.delta_apply_ms_per_op", "ms"},
	{"graph.op_share", "ratio"},
	{"edgemeg.step_ms_per_op", "ms"},
	{"edgemeg.step_ms_p50", "ms"},
	{"edgemeg.churn_per_step", "count"},
	{"edgemeg.step_ns_per_churn", "ns"},
	{"edgemeg.reset_ms_per_op", "ms"},
	{"edgemeg.op_share", "ratio"},
	{"core.self_ms_per_op", "ms"},
	{"core.op_share", "ratio"},
	{"core.kernel_ms_per_op", "ms"},
	{"core.kernel_op_share", "ratio"},
	{"core.merge_ms_per_op", "ms"},
	{"core.flood_ms_per_op", "ms"},
	{"core.gossip_ms_per_op", "ms"},
	{"core.rounds_per_op", "count"},
	{"core.straggler_round_share", "ratio"},
	{"flood.self_ms_per_op", "ms"},
	{"flood.op_share", "ratio"},
	{"spec.canonical_us_p50", "us"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.submit_ms_tail", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_tail", "ms"},
	{"serve.execute_ms_p50", "ms"},
	{"serve.execute_ms_tail", "ms"},
	{"serve.executor_busy_share", "ratio"},
	{"serve.dedup_share", "ratio"},
	{"serve.executed_jobs", "count"},
	{"harness.gen_late_ms_max", "ms"},
	{"harness.trace_overhead_share", "ratio"},
}

// layerMetrics returns the catalog with every value 0.
func layerMetrics() map[string]metric {
	m := make(map[string]metric, len(layerCatalog))
	for _, c := range layerCatalog {
		m[c.name] = metric{Unit: c.unit}
	}
	return m
}

var workloadNames = []string{"geom-flood-4k", "edge-lowchurn-8k", "static-kernel-2k", "serve-mix"}

func main() {
	workload := flag.String("workload", "", "workload name, or all: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "where a traced run writes its spans")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1, traceDir: *traceDir}
	if *workload == "all" {
		os.Exit(runAll(os.Args[1:]))
	}
	rep, err := runWorkload(*workload, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res := output(*workload, cfg, rep)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func runWorkload(name string, cfg runConfig) (*report, error) {
	if name == "serve-mix" {
		return runServeMix(cfg)
	}
	for _, w := range simWorkloads {
		if w.name == name {
			return runSim(w, cfg)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(workloadNames, ", "))
}

// output prints the human-readable metric lines and returns the result.
func output(name string, cfg runConfig, rep *report) result {
	lat := summarize(rep.latMs)
	ops := float64(rep.attempted)
	e2e := map[string]float64{
		"setup_s":         median(rep.setupS),
		"op_ms_p50":       lat.p50,
		"op_ms_tail":      lat.tail,
		"ops_per_s":       ops / rep.window.Seconds(),
		"cpu_ms_per_op":   ms(rep.cpu) / ops,
		"alloc_mb_per_op": float64(rep.allocB) / 1e6 / ops,
		"peak_rss_mb":     rep.peakRSSMB,
	}
	fmt.Printf("workload %s  seed %d  trace %v  GOMAXPROCS %d  %s\n", name, cfg.seed, cfg.trace, runtime.GOMAXPROCS(0), runtime.Version())
	for _, n := range rep.notes {
		fmt.Printf("  note: %s\n", n)
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, m := range endToEnd {
		v := e2e[m.name]
		extra := ""
		switch m.name {
		case "setup_s":
			extra = fmt.Sprintf("  (median of %d fixture builds)", len(rep.setupS))
		case "op_ms_tail":
			extra = fmt.Sprintf("  (p%.2f of %d ops, %d beyond)", lat.tailPct, lat.n, lat.beyond)
		}
		fmt.Printf("  %-30s %14.4f %s%s\n", m.name, v, m.unit, extra)
		if !cfg.trace {
			res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
	}
	fmt.Printf("  %-30s %14.4f ratio  (%d of %d ops failed)\n", "fail_share", float64(rep.failed)/math.Max(ops, 1), rep.failed, rep.attempted)
	fmt.Printf("  %-30s %016x\n", "digest", rep.digest)
	if cfg.trace {
		for _, c := range layerCatalog {
			m := rep.layer[c.name]
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				m.Value = 0
			}
			fmt.Printf("  %-30s %14.4f %s\n", c.name, m.Value, m.Unit)
			res.Metrics[c.name] = m
		}
		if path, err := rep.tracer.write(cfg.traceDir, name, cfg.seed); err != nil {
			fmt.Printf("  note: spans not written: %v\n", err)
		} else {
			fmt.Printf("  spans: %s (%d)\n", path, len(rep.tracer.spans))
		}
	}
	return res
}

// runAll runs every workload in its own child process with the given
// flags and prints a combined result whose metric names are prefixed
// with the workload.
func runAll(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	var rest []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "--workload" || a == "-workload" {
			i++
			continue
		}
		if strings.HasPrefix(a, "--workload=") || strings.HasPrefix(a, "-workload=") {
			continue
		}
		rest = append(rest, a)
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range workloadNames {
		cmd := exec.Command(self, append([]string{"--workload", name}, rest...)...)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		var last string
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if last != "" {
				fmt.Println(last)
			}
			last = sc.Text()
		}
		werr := cmd.Wait()
		var r result
		if err := json.Unmarshal([]byte(last), &r); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: no result (%v, %v)\n", name, err, werr)
			return 1
		}
		var exitErr *exec.ExitError
		if werr != nil && !errors.As(werr, &exitErr) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, werr)
			return 1
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, m := range r.Metrics {
			all.Metrics[name+"."+k] = m
		}
	}
	line, _ := json.Marshal(all) // only floats and strings: cannot fail
	fmt.Println(string(line))
	if !all.Correct {
		return 1
	}
	return 0
}
