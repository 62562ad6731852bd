// Package bench is the benchmark trajectory recorder: a fixed suite of
// named flooding scenarios, each run on the same seeds as a "serial"
// variant (the engine on one shard) and a "sharded" variant (the same
// engine on every worker), timed, and emitted as a schema-versioned
// BENCH_<git-sha>.json. CI runs the suite on every push and uploads the
// file as an artifact, so the repository accumulates a measured speed
// trajectory instead of anecdotes — and because both variants must
// produce byte-identical flooding results, the suite doubles as the
// shard-count divergence gate.
package bench

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"meg/internal/core"
	"meg/internal/flood"
	"meg/internal/metrics"
	"meg/internal/par"
	"meg/internal/spec"
)

// SchemaVersion identifies the BENCH file layout. Bump on any
// backwards-incompatible change so trajectory tooling can dispatch.
const SchemaVersion = 1

// Scenario is one named workload of the suite. Spec carries the model,
// trial, source, and engine configuration; the runner executes it once
// with Parallelism 1 (the one-shard "serial" baseline) and once on
// every worker, asserting byte-identical results.
type Scenario struct {
	// Name is the stable scenario identifier (the trajectory key).
	Name string `json:"name"`
	// Note says what the scenario exercises.
	Note string `json:"note"`
	// Spec is the canonical workload. Seed/SeedPolicy are fixed so the
	// serial and sharded runs (and every CI run) see the same draws.
	Spec spec.Spec `json:"spec"`
	// DeltaVsFull marks a snapshot-path scenario: the serial variant
	// pins the full per-round rebuild by hiding the model's StepDelta,
	// the sharded variant runs the model as is, where the engines choose
	// the incremental delta path on low churn — so the speedup column
	// records the delta engine's gain and the checksum gate doubles as
	// the delta-vs-full equivalence check.
	DeltaVsFull bool `json:"deltaVsFull,omitempty"`
}

// Suite returns the fixed scenario list: geometric flooding at three
// sizes (the scaling axis the paper's Θ(√n/R) bound lives on), sparse
// and dense edge-MEGs (the Θ(log n/log np̂) axis), a batched 64-source
// geometric run (the bit-parallel estimator), and the gossip-family
// protocols (push, push-pull, lossy) — for those, as for flooding, the
// serial baseline is the gossip engine on one shard and the sharded run
// the same engine on every worker. The oracle check against the
// per-node reference implementation lives in the tests.
func Suite() []Scenario {
	geom := func(n int) spec.Spec {
		return spec.Spec{
			Model:  spec.Model{Name: "geometric", N: n, RFrac: 0.5},
			Trials: 1,
			Seed:   7,
		}
	}
	edge := func(n int, phatMult float64) spec.Spec {
		return spec.Spec{
			Model:  spec.Model{Name: "edge", N: n, PhatMult: phatMult},
			Trials: 1,
			Seed:   7,
		}
	}
	multi := geom(65536)
	multi.Sources = 64
	multi.Engine.BatchSources = true
	proto := func(base spec.Spec, p spec.Protocol) spec.Spec {
		base.Protocol = p
		return base
	}
	lowchurn := spec.Spec{
		Model:     spec.Model{Name: "edge", N: 65536, PhatMult: 0.5, Q: 0.002},
		Trials:    1,
		MaxRounds: 400,
		Seed:      7,
	}
	smallrho := spec.Spec{
		Model:  spec.Model{Name: "geometric", N: 65536, RFrac: 0.2, Jump: 0.01},
		Trials: 1,
		Seed:   7,
	}
	// Sub-threshold geometric runs: Mult = 0.5 puts R = 0.89·R_c just
	// below the connectivity radius R_c = √(log n/π), so the static
	// snapshot has a giant component plus isolated pockets, and only
	// the lazy walk (jump = 0.005, r = 0.8R so the lattice move ball
	// stays non-degenerate) carries the message into them. The bulk
	// informs early; the rest of the fixed horizon chases the last <1%
	// of stragglers — the regime the active-set pull kernel targets,
	// isolated so its win is visible in the trajectory (see
	// Variant.StragglerShare). Geometric flooding builds no snapshot
	// at all (core.Spreader), so both variants run the snapshot-free
	// spread.
	straggler := func(n, maxRounds int) spec.Spec {
		return spec.Spec{
			Model:     spec.Model{Name: "geometric", N: n, Mult: 0.5, RFrac: 0.8, Jump: 0.005},
			Trials:    1,
			MaxRounds: maxRounds,
			Seed:      7,
		}
	}
	return []Scenario{
		{Name: "geom-4k", Note: "geometric-MEG n=4096, single source", Spec: geom(4096)},
		{Name: "geom-64k", Note: "geometric-MEG n=65536, single source", Spec: geom(65536)},
		{Name: "geom-512k", Note: "geometric-MEG n=524288, single source — the headline scaling scenario", Spec: geom(524288)},
		{Name: "edge-sparse-64k", Note: "edge-MEG n=65536, p̂ = 2·log n/n (near-threshold sparse)", Spec: edge(65536, 2)},
		{Name: "edge-dense-16k", Note: "edge-MEG n=16384, p̂ = 16·log n/n (dense churn)", Spec: edge(16384, 16)},
		{Name: "multi64-geom-64k", Note: "geometric-MEG n=65536, 64 sources batched bit-parallel", Spec: multi},
		{Name: "proto-push-geom-16k", Note: "push gossip on geometric-MEG n=16384: gossip engine on one shard vs every worker", Spec: proto(geom(16384), spec.Protocol{Name: "push"})},
		{Name: "proto-pushpull-edge-16k", Note: "push-pull gossip on edge-MEG n=16384: gossip engine on one shard vs every worker", Spec: proto(edge(16384, 4), spec.Protocol{Name: "push-pull"})},
		{Name: "proto-lossy-geom-16k", Note: "lossy flooding (f=0.2) on geometric-MEG n=16384: gossip engine on one shard vs every worker", Spec: proto(geom(16384), spec.Protocol{Name: "lossy", Loss: 0.2})},
		{Name: "delta-edge-64k-lowchurn", Note: "edge-MEG n=65536, p̂=0.5·log n/n, q=0.002 — sub-threshold low churn over a fixed 400-round horizon: full rebuild vs incremental delta", Spec: lowchurn, DeltaVsFull: true},
		{Name: "delta-geom-64k-smallrho", Note: "lazy geometric-MEG n=65536, r=0.2R, jump=0.01 — ~1% of nodes move per round; both variants flood snapshot-free through the cell grid, so the speedup reads ≈1× and the checksum gate compares two spread runs", Spec: smallrho, DeltaVsFull: true},
		{Name: "flood-geom-64k-straggler", Note: "sub-threshold lazy geometric-MEG n=65536, R=0.89·R_c, jump=0.005, fixed 400-round horizon — a third of the rounds chase <1% uninformed stragglers; both variants flood snapshot-free through the cell grid, so the speedup reads ≈1×", Spec: straggler(65536, 400)},
		{Name: "flood-geom-512k-straggler", Note: "sub-threshold lazy geometric-MEG n=524288, R=0.89·R_c, jump=0.005, fixed 1000-round horizon — the straggler regime at headline scale; both variants flood snapshot-free through the cell grid, so the speedup reads ≈1×", Spec: straggler(524288, 1000)},
	}
}

// Variant is one timed execution of a scenario.
type Variant struct {
	// Variant is "serial" (Parallelism 1: the engine on one shard) or
	// "sharded" (the same engine on every worker).
	Variant string `json:"variant"`
	// Snapshot identifies the snapshot path for delta scenarios:
	// "full" (serial baseline) or "delta" (sharded run). Empty
	// elsewhere.
	Snapshot string `json:"snapshot,omitempty"`
	// Parallelism is the intra-trial worker count used.
	Parallelism int `json:"parallelism"`
	// Rounds is the total number of evaluated flooding rounds.
	Rounds int `json:"rounds"`
	// Completed reports whether every trial finished flooding.
	Completed bool `json:"completed"`
	// WallNS is the wall-clock time of the campaign in nanoseconds.
	WallNS int64 `json:"wallNS"`
	// NSPerRound is WallNS divided by Rounds.
	NSPerRound float64 `json:"nsPerRound"`
	// AllocBytes/Allocs are the heap allocation deltas of the run.
	AllocBytes uint64 `json:"allocBytes"`
	Allocs     uint64 `json:"allocs"`
	// StragglerRounds counts evaluated rounds that began with fewer
	// than 1% of nodes uninformed (but at least one) — the late-round
	// regime where the active-set pull kernel replaces the full
	// complement scan. StragglerShare is the fraction of Rounds.
	StragglerRounds int     `json:"stragglerRounds,omitempty"`
	StragglerShare  float64 `json:"stragglerShare,omitempty"`
	// Checksum fingerprints the full FloodResult set (sources, rounds,
	// trajectories, arrival arrays). Serial and sharded checksums must
	// match — the suite fails otherwise.
	Checksum string `json:"checksum"`
	// Telemetry is the aggregated engine-phase breakdown of the run,
	// present only when Options.Telemetry was set. Observation only:
	// hooks never change the checksum, and the field is additive so
	// trajectory tooling for older files keeps working.
	Telemetry *metrics.PhaseTotals `json:"telemetry,omitempty"`
}

// Result is one scenario's outcome: the serial baseline, the sharded
// run, and the speedup between them.
type Result struct {
	Name  string `json:"name"`
	Note  string `json:"note"`
	Model string `json:"model"`
	N     int    `json:"n"`
	// Hash is the scenario spec's content address, tying the trajectory
	// entry to the exact workload definition.
	Hash     string    `json:"hash"`
	Variants []Variant `json:"variants"`
	// SpeedupVsSerial is serial wall time divided by sharded wall time.
	SpeedupVsSerial float64 `json:"speedupVsSerial"`
	// Identical reports that every variant produced the same checksum.
	Identical bool `json:"identical"`
}

// File is the schema-versioned BENCH_<sha>.json payload.
type File struct {
	SchemaVersion int    `json:"schemaVersion"`
	GitSHA        string `json:"gitSHA"`
	GeneratedAt   string `json:"generatedAt"`
	GoVersion     string `json:"goVersion"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	CPUs          int    `json:"cpus"`
	// Parallelism is the sharded worker count the suite ran with.
	Parallelism int      `json:"parallelism"`
	Results     []Result `json:"results"`
}

// Options configures a suite run.
type Options struct {
	// Parallelism is the sharded variant's worker count (<= 0: all
	// CPUs). The serial baseline always runs with 1.
	Parallelism int
	// Filter, when non-empty, keeps only scenarios whose name contains
	// one of the entries.
	Filter []string
	// Telemetry attaches phase-timing hooks to every variant and stores
	// the aggregated breakdown on it (megbench -telemetry).
	Telemetry bool
	// CPUProfileDir, when non-empty, writes one CPU profile per scenario
	// (<dir>/<name>.cpu.pprof) covering all of its variants; the
	// directory is created if missing. Profiling the timed region
	// perturbs the wall numbers a little, so profile runs should not
	// feed the comparison trajectory.
	CPUProfileDir string
	// MemProfileDir, when non-empty, writes one post-GC heap profile per
	// scenario (<dir>/<name>.mem.pprof) taken after its variants finish.
	MemProfileDir string
	// Log, if non-nil, receives one progress line per variant.
	Log func(format string, args ...any)
}

// Run executes the fixed suite and assembles the BENCH file. It returns
// an error — after completing every scenario — if any scenario's serial
// and sharded results diverge, so callers can both persist the file and
// fail the build.
func Run(opts Options) (*File, error) {
	return RunScenarios(Suite(), opts)
}

// RunScenarios is Run over an explicit scenario list. Before the first
// selected scenario is timed, its serial variant runs once, untimed and
// unrecorded, so that no scenario pays the process's cold start.
func RunScenarios(scenarios []Scenario, opts Options) (*File, error) {
	workers := par.Workers(opts.Parallelism)
	f := &File{
		SchemaVersion: SchemaVersion,
		GitSHA:        GitSHA(),
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUs:          runtime.NumCPU(),
		Parallelism:   workers,
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var diverged []string
	warm := false
	for _, sc := range scenarios {
		if !nameMatches(sc.Name, opts.Filter) {
			continue
		}
		c, err := sc.Spec.Canonical()
		if err != nil {
			return nil, fmt.Errorf("bench: scenario %s: %w", sc.Name, err)
		}
		hash, err := c.Hash()
		if err != nil {
			return nil, fmt.Errorf("bench: scenario %s: %w", sc.Name, err)
		}
		if !warm {
			warm = true
			logf("bench: %-18s warm-up  par=1  (untimed, not recorded)", sc.Name)
			if _, err := runVariant(c, "serial", 1, sc.DeltaVsFull, false); err != nil {
				return nil, fmt.Errorf("bench: scenario %s (warm-up): %w", sc.Name, err)
			}
		}
		res := Result{Name: sc.Name, Note: sc.Note, Model: c.Model.Name, N: c.Model.N, Hash: hash}
		stopCPU, err := startCPUProfile(opts.CPUProfileDir, sc.Name)
		if err != nil {
			return nil, fmt.Errorf("bench: scenario %s: %w", sc.Name, err)
		}
		for _, pv := range []struct {
			variant string
			par     int
		}{{"serial", 1}, {"sharded", workers}} {
			v, err := runVariant(c, pv.variant, pv.par, sc.DeltaVsFull, opts.Telemetry)
			if err != nil {
				stopCPU()
				return nil, fmt.Errorf("bench: scenario %s (%s): %w", sc.Name, pv.variant, err)
			}
			logf("bench: %-18s %-8s par=%-2d rounds=%-5d %8.1f ms  checksum=%s",
				sc.Name, pv.variant, pv.par, v.Rounds, float64(v.WallNS)/1e6, v.Checksum)
			res.Variants = append(res.Variants, v)
		}
		stopCPU()
		if err := writeMemProfile(opts.MemProfileDir, sc.Name); err != nil {
			return nil, fmt.Errorf("bench: scenario %s: %w", sc.Name, err)
		}
		res.Identical = true
		for _, v := range res.Variants[1:] {
			if v.Checksum != res.Variants[0].Checksum {
				res.Identical = false
				diverged = append(diverged, sc.Name)
				break
			}
		}
		if s, p := res.Variants[0].WallNS, res.Variants[len(res.Variants)-1].WallNS; p > 0 {
			res.SpeedupVsSerial = float64(s) / float64(p)
		}
		f.Results = append(f.Results, res)
	}
	if len(diverged) > 0 {
		return f, fmt.Errorf("bench: sharded results diverge from serial on the same seeds: %s", strings.Join(diverged, ", "))
	}
	return f, nil
}

// runVariant executes one (scenario, parallelism) pair and measures it.
// Flooding and gossip-family protocol scenarios time their engine on
// one shard vs on every worker; for delta scenarios the serial baseline pins
// the full per-round snapshot rebuild and the sharded run takes the
// path the engines choose, the incremental delta path on low churn —
// byte-identical by contract in every case, so the shared checksum
// gate applies unchanged.
func runVariant(c spec.Spec, variant string, parallelism int, deltaVsFull, telemetry bool) (Variant, error) {
	c.Parallelism = parallelism
	c.Workers = 1 // isolate intra-trial parallelism from trial fan-out
	if c.Protocol.Name != "" && c.Protocol.Name != "flooding" {
		return runProtocolVariant(c, variant, parallelism, telemetry)
	}
	factory, _, err := c.NewFactory()
	if err != nil {
		return Variant{}, err
	}
	snapshot := ""
	if deltaVsFull {
		snapshot = "delta"
		if variant == "serial" {
			snapshot = "full"
			factory = fullSnapshots(factory)
		}
	}
	opt, err := flood.OptionsFromSpec(c)
	if err != nil {
		return Variant{}, err
	}
	var collect func() *metrics.PhaseTotals
	if telemetry {
		collect = attachTelemetry(func(h func(int) core.PhaseHook) { opt.Hook = h })
	}
	var camp flood.Campaign
	v := measure(func() { camp = flood.Run(factory, opt) })
	if collect != nil {
		v.Telemetry = collect()
	}
	v.Variant = variant
	v.Snapshot = snapshot
	v.Parallelism = parallelism
	v.Completed = camp.Incomplete == 0
	v.Checksum = checksum(camp)
	for _, t := range camp.Trials {
		v.Rounds += len(t.Result.Trajectory) - 1
		v.StragglerRounds += stragglerRounds(t.Result.Trajectory, c.Model.N)
	}
	v.finishRates()
	return v, nil
}

// fullSnapshots wraps factory so that a delta-capable model hides its
// StepDelta and the engines rebuild its snapshot every round. The
// degree hint and the worker count still reach the model, so only the
// snapshot path differs from the unwrapped run. Other models pass
// through unchanged.
func fullSnapshots(factory flood.Factory) flood.Factory {
	type deltaModel interface {
		core.DeltaDynamics
		core.DegreeHinter
		core.Parallelizable
	}
	return func() core.Dynamics {
		d := factory()
		m, ok := d.(deltaModel)
		if !ok {
			return d
		}
		return struct {
			core.Dynamics
			core.DegreeHinter
			core.Parallelizable
		}{m, m, m}
	}
}

// stragglerRounds counts the evaluated rounds of one trajectory that
// began with 0 < uninformed < n/100 — the straggler regime.
// Trajectory[t] is the informed count after t rounds, so round t+1
// starts from Trajectory[t].
func stragglerRounds(traj []int, n int) int {
	count := 0
	for _, m := range traj[:len(traj)-1] {
		if u := n - m; u > 0 && 100*u < n {
			count++
		}
	}
	return count
}

// attachTelemetry installs a per-trial phase-recorder factory through
// set (which assigns it to the options' Hook field) and returns a
// closure that merges every trial's totals — called after the campaign,
// when all trial goroutines have finished.
func attachTelemetry(set func(func(trial int) core.PhaseHook)) func() *metrics.PhaseTotals {
	var mu sync.Mutex
	var recs []*metrics.PhaseRecorder
	set(func(trial int) core.PhaseHook {
		pr := metrics.NewPhaseRecorder(nil)
		mu.Lock()
		recs = append(recs, pr)
		mu.Unlock()
		return pr
	})
	return func() *metrics.PhaseTotals {
		var total metrics.PhaseTotals
		mu.Lock()
		for _, pr := range recs {
			total.Merge(pr.Totals())
		}
		mu.Unlock()
		return &total
	}
}

// measure times run under a clean heap baseline and returns a Variant
// carrying the wall-clock and allocation measurements — the one
// harness both the flooding and the protocol paths use, so the two row
// kinds can never silently measure differently.
func measure(run func()) Variant {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	run()
	wall := time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&after)
	return Variant{
		WallNS:     wall,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		Allocs:     after.Mallocs - before.Mallocs,
	}
}

// finishRates derives the per-round rates once Rounds is known.
func (v *Variant) finishRates() {
	if v.Rounds > 0 {
		v.NSPerRound = float64(v.WallNS) / float64(v.Rounds)
		v.StragglerShare = float64(v.StragglerRounds) / float64(v.Rounds)
	}
}

// runProtocolVariant measures a gossip-family scenario on the gossip
// engine at the given parallelism.
func runProtocolVariant(c spec.Spec, variant string, parallelism int, telemetry bool) (Variant, error) {
	factory, _, err := c.NewFactory()
	if err != nil {
		return Variant{}, err
	}
	opt, err := flood.ProtocolOptionsFromSpec(c)
	if err != nil {
		return Variant{}, err
	}
	var collect func() *metrics.PhaseTotals
	if telemetry {
		collect = attachTelemetry(func(h func(int) core.PhaseHook) { opt.Hook = h })
	}
	var camp flood.ProtocolCampaign
	v := measure(func() { camp = flood.RunProtocol(factory, opt) })
	if collect != nil {
		v.Telemetry = collect()
	}
	v.Variant = variant
	v.Parallelism = parallelism
	v.Completed = camp.Incomplete == 0
	v.Checksum = protocolChecksum(camp)
	for _, t := range camp.Trials {
		v.Rounds += len(t.Result.Trajectory) - 1
		v.StragglerRounds += stragglerRounds(t.Result.Trajectory, c.Model.N)
	}
	v.finishRates()
	return v, nil
}

// checksum fingerprints every trial's full FloodResult — source,
// rounds, completion, trajectory, and the per-node arrival array — so
// any divergence between engine configurations is caught, not just
// differing round counts.
func checksum(camp flood.Campaign) string {
	h := fnv.New64a()
	var buf [8]byte
	w := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, t := range camp.Trials {
		r := t.Result
		w(uint64(r.Source))
		w(uint64(r.Rounds))
		if r.Completed {
			w(1)
		} else {
			w(0)
		}
		for _, m := range r.Trajectory {
			w(uint64(m))
		}
		for _, a := range r.Arrival {
			w(uint64(uint32(a)))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// protocolChecksum fingerprints a protocol campaign over the fields the
// per-node reference implementation also produces — source, rounds,
// completion, trajectory, and message totals, no arrival arrays — so
// the same fingerprint compares the engine against that oracle in
// tests and serial against sharded in the suite.
func protocolChecksum(camp flood.ProtocolCampaign) string {
	h := fnv.New64a()
	var buf [8]byte
	w := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, t := range camp.Trials {
		r := t.Result
		w(uint64(r.Source))
		w(uint64(r.Rounds))
		if r.Completed {
			w(1)
		} else {
			w(0)
		}
		w(uint64(r.Messages))
		for _, m := range r.Trajectory {
			w(uint64(m))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// startCPUProfile begins a per-scenario CPU profile when dir is set,
// returning a stop func (a no-op when profiling is off or the profile
// could not start — never leave the runner half-profiled).
func startCPUProfile(dir, name string) (func(), error) {
	if dir == "" {
		return func() {}, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return func() {}, err
	}
	f, err := os.Create(filepath.Join(dir, name+".cpu.pprof"))
	if err != nil {
		return func() {}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return func() {}, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeMemProfile writes a post-GC heap profile for the scenario when
// dir is set.
func writeMemProfile(dir, name string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".mem.pprof"))
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// nameMatches reports whether name passes the filter (empty filter
// passes everything).
func nameMatches(name string, filter []string) bool {
	if len(filter) == 0 {
		return true
	}
	for _, f := range filter {
		if strings.Contains(name, f) {
			return true
		}
	}
	return false
}

// GitSHA resolves the commit the benchmark describes: $GITHUB_SHA when
// CI exports it, otherwise `git rev-parse HEAD`, otherwise "local".
func GitSHA() string {
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		return short(sha)
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err == nil {
		if sha := strings.TrimSpace(string(out)); sha != "" {
			return short(sha)
		}
	}
	return "local"
}

func short(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	return sha
}

// FileName returns the canonical artifact name for the given SHA.
func FileName(sha string) string { return "BENCH_" + sha + ".json" }

// Write marshals f as indented JSON into path.
func (f *File) Write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
