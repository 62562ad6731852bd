package flood

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"meg/internal/core"
	"meg/internal/edgemeg"
	"meg/internal/graph"
	"meg/internal/rng"
	"meg/internal/spec"
)

func pathFactory(n int) Factory {
	return func() core.Dynamics { return core.NewStatic(graph.Path(n)) }
}

func TestRunBasics(t *testing.T) {
	c := Run(pathFactory(9), Options{Trials: 4, Seed: 1})
	if len(c.Trials) != 4 {
		t.Fatalf("trials = %d", len(c.Trials))
	}
	if c.Incomplete != 0 {
		t.Fatalf("incomplete = %d", c.Incomplete)
	}
	// Source 0 on a 9-path: always 8 rounds.
	if c.Summary.Mean != 8 || c.MaxRounds() != 8 {
		t.Fatalf("mean=%v max=%v, want 8", c.Summary.Mean, c.MaxRounds())
	}
	if c.MeanRounds() != 8 {
		t.Fatalf("MeanRounds = %v", c.MeanRounds())
	}
}

func TestRunMultiSourceMax(t *testing.T) {
	// With many sources per trial on a path, the max over sources
	// approaches n-1 (an endpoint source).
	c := Run(pathFactory(7), Options{Trials: 6, SourcesPerTrial: 10, Seed: 2})
	if c.MaxRounds() != 6 {
		t.Fatalf("max = %v, want 6 (endpoint source found)", c.MaxRounds())
	}
	for _, tr := range c.Trials {
		if tr.RoundsToHalf < 0 {
			t.Fatal("RoundsToHalf missing")
		}
	}
}

func TestRunIncomplete(t *testing.T) {
	disconnected := func() core.Dynamics {
		return core.NewStatic(graph.FromEdges(4, [][2]int{{0, 1}}))
	}
	c := Run(disconnected, Options{Trials: 3, Seed: 3, MaxRounds: 5})
	if c.Incomplete != 3 {
		t.Fatalf("incomplete = %d, want 3", c.Incomplete)
	}
	if len(c.Rounds) != 0 {
		t.Fatal("rounds recorded for incomplete trials")
	}
	if !math.IsNaN(c.MeanRounds()) {
		t.Fatal("MeanRounds should be NaN with no completions")
	}
	if c.MaxRounds() != 0 {
		t.Fatal("MaxRounds should be 0 with no completions")
	}
}

func TestRunDeterministic(t *testing.T) {
	mk := func() Campaign {
		return Run(pathFactory(15), Options{Trials: 5, SourcesPerTrial: 3, Seed: 42, Workers: 4})
	}
	a, b := mk(), mk()
	if len(a.Rounds) != len(b.Rounds) {
		t.Fatal("round counts differ")
	}
	for i := range a.Rounds {
		if a.Rounds[i] != b.Rounds[i] {
			t.Fatalf("trial %d differs: %v vs %v", i, a.Rounds[i], b.Rounds[i])
		}
	}
}

func TestRunWorkerIndependence(t *testing.T) {
	one := Run(pathFactory(15), Options{Trials: 6, SourcesPerTrial: 2, Seed: 9, Workers: 1})
	many := Run(pathFactory(15), Options{Trials: 6, SourcesPerTrial: 2, Seed: 9, Workers: 8})
	for i := range one.Rounds {
		if one.Rounds[i] != many.Rounds[i] {
			t.Fatalf("worker-count dependence at trial %d", i)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults(10)
	if o.Trials != 1 || o.SourcesPerTrial != 1 || o.MaxRounds != core.DefaultRoundCap(10) {
		t.Fatalf("defaults = %+v", o)
	}
}

// TestRunBatchSourcesMatchesUnbatchedSingleSource pins the estimator
// compatibility guarantee: with SourcesPerTrial == 1 the batched and
// unbatched paths consume the same RNG stream and must produce
// bit-identical campaigns.
func TestRunBatchSourcesMatchesUnbatchedSingleSource(t *testing.T) {
	mk := func(batch bool) Campaign {
		return Run(func() core.Dynamics {
			return edgemeg.MustNew(edgemeg.Config{N: 128, P: 0.05, Q: 0.5})
		}, Options{Trials: 6, Seed: 5, BatchSources: batch})
	}
	a, b := mk(false), mk(true)
	if len(a.Trials) != len(b.Trials) {
		t.Fatalf("trial counts differ: %d vs %d", len(a.Trials), len(b.Trials))
	}
	for i := range a.Trials {
		ra, rb := a.Trials[i].Result, b.Trials[i].Result
		if ra.Rounds != rb.Rounds || ra.Completed != rb.Completed || ra.Source != rb.Source {
			t.Fatalf("trial %d diverged: (%d,%v) vs (%d,%v)", i, ra.Rounds, ra.Completed, rb.Rounds, rb.Completed)
		}
		if !ra.Informed.Equal(rb.Informed) {
			t.Fatalf("trial %d informed sets differ", i)
		}
	}
}

// TestRunBatchSourcesMultiSource checks the batched multi-source path
// end to end: max-over-sources on a path graph still finds the endpoint
// worst case, and the campaign is deterministic across worker counts.
func TestRunBatchSourcesMultiSource(t *testing.T) {
	opts := func(workers int) Options {
		return Options{Trials: 6, SourcesPerTrial: 10, Seed: 2, Workers: workers, BatchSources: true}
	}
	c := Run(pathFactory(7), opts(0))
	if c.MaxRounds() != 6 {
		t.Fatalf("max = %v, want 6 (endpoint source found)", c.MaxRounds())
	}
	for _, tr := range c.Trials {
		if tr.RoundsToHalf < 0 {
			t.Fatal("RoundsToHalf missing")
		}
	}
	// Worker-count independence of the batched fan-out.
	serial := Run(pathFactory(7), opts(1))
	four := Run(pathFactory(7), opts(4))
	for i := range serial.Trials {
		if serial.Trials[i].Result.Rounds != c.Trials[i].Result.Rounds ||
			four.Trials[i].Result.Rounds != c.Trials[i].Result.Rounds {
			t.Fatalf("batched campaign depends on worker count at trial %d", i)
		}
	}
}

// slowDynamics is an edgeless (never-completing) dynamics whose Step
// sleeps, so a run without cancellation takes maxRounds·delay.
type slowDynamics struct {
	g     *graph.Graph
	delay time.Duration
}

func (s *slowDynamics) N() int              { return s.g.N() }
func (s *slowDynamics) Reset(*rng.RNG)      {}
func (s *slowDynamics) Graph() *graph.Graph { return s.g }
func (s *slowDynamics) Step()               { time.Sleep(s.delay) }

func TestRunContextCancelPrompt(t *testing.T) {
	// One trial of 10 000 rounds at 1 ms/round ≈ 10 s uncancelled.
	// Cancellation must abort mid-trial, not wait for the trial to end.
	factory := func() core.Dynamics {
		return &slowDynamics{g: graph.Empty(16), delay: time.Millisecond}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := RunContext(ctx, factory, Options{Trials: 1, MaxRounds: 10000, Seed: 1})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatalf("cancelled campaign returned nil error")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v; want prompt (≈30ms + one round)", elapsed)
	}
}

func TestRunContextCancelBatched(t *testing.T) {
	factory := func() core.Dynamics {
		return &slowDynamics{g: graph.Empty(16), delay: time.Millisecond}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := RunContext(ctx, factory, Options{
		Trials: 1, SourcesPerTrial: 8, BatchSources: true, MaxRounds: 10000, Seed: 1,
	})
	if err == nil {
		t.Fatalf("cancelled batched campaign returned nil error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("batched cancellation took %v; want prompt", elapsed)
	}
}

func TestRunContextMatchesRun(t *testing.T) {
	opt := Options{Trials: 5, SourcesPerTrial: 3, Seed: 7}
	want := Run(pathFactory(17), opt)
	got, err := RunContext(context.Background(), pathFactory(17), opt)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if len(got.Trials) != len(want.Trials) || got.Summary != want.Summary {
		t.Fatalf("RunContext diverged from Run:\n got %+v\nwant %+v", got.Summary, want.Summary)
	}
}

func TestRunProgressCallbacks(t *testing.T) {
	var mu sync.Mutex
	rounds := 0
	trialsDone := 0
	lastInformed := make(map[int]int)
	c := Run(pathFactory(9), Options{
		Trials: 3,
		Seed:   1,
		OnRound: func(trial, round, informed int) {
			mu.Lock()
			rounds++
			lastInformed[trial] = informed
			mu.Unlock()
		},
		OnTrialDone: func(trial int, tr Trial) {
			mu.Lock()
			trialsDone++
			mu.Unlock()
		},
	})
	if c.Incomplete != 0 {
		t.Fatalf("incomplete = %d", c.Incomplete)
	}
	if trialsDone != 3 {
		t.Fatalf("OnTrialDone fired %d times, want 3", trialsDone)
	}
	// A 9-path from source 0 completes in 8 rounds per trial.
	if rounds != 3*8 {
		t.Fatalf("OnRound fired %d times, want 24", rounds)
	}
	for trial, informed := range lastInformed {
		if informed != 9 {
			t.Fatalf("trial %d last informed = %d, want 9", trial, informed)
		}
	}
}

func TestOptionsFromSpec(t *testing.T) {
	s, err := spec.Parse([]byte(`{
		"model": {"name": "edge", "n": 64},
		"trials": 4, "sources": 2, "seed": 9,
		"engine": {"kernel": "push", "pullThreshold": 0.3, "batchSources": true}
	}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	opt, err := OptionsFromSpec(s)
	if err != nil {
		t.Fatalf("OptionsFromSpec: %v", err)
	}
	if opt.Trials != 4 || opt.SourcesPerTrial != 2 || opt.Seed != 9 {
		t.Fatalf("campaign fields wrong: %+v", opt)
	}
	if !opt.BatchSources {
		t.Fatalf("engine fields wrong: %+v", opt)
	}
	if opt.MaxRounds != core.DefaultRoundCap(64) {
		t.Fatalf("round cap not materialized: %d", opt.MaxRounds)
	}
}
