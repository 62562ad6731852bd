package serve

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"meg/internal/rng"
	"meg/internal/spec"
	"meg/internal/sweep"
)

// testSpec returns a small, fast campaign spec.
func testSpec(n int) spec.Spec {
	return spec.Spec{
		Model:  spec.Model{Name: "geometric", N: n},
		Trials: 2,
	}
}

// gatedRunner wraps an Executor but blocks every Execute until
// released, so tests can hold jobs in flight deterministically.
type gatedRunner struct {
	inner   Executor
	release chan struct{}
}

func (g *gatedRunner) Execute(ctx context.Context, s spec.Spec, sink func(Event)) (*Result, error) {
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.inner.Execute(ctx, s, sink)
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish", j.ID)
	}
}

func TestSingleFlightCoalescing(t *testing.T) {
	runner := &gatedRunner{release: make(chan struct{})}
	cache, _ := NewCache(0, "")
	sched := NewScheduler(2, 16, runner, cache)
	defer sched.Close()

	first, outcome, err := sched.Submit(testSpec(64))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if outcome != OutcomeQueued {
		t.Fatalf("first submit outcome = %s, want queued", outcome)
	}

	// Concurrent identical submissions must attach to the same job.
	var wg sync.WaitGroup
	jobs := make([]*Job, 8)
	outcomes := make([]Outcome, 8)
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, o, err := sched.Submit(testSpec(64))
			if err != nil {
				t.Errorf("concurrent Submit: %v", err)
				return
			}
			jobs[i], outcomes[i] = j, o
		}(i)
	}
	wg.Wait()
	for i, j := range jobs {
		if j.ID != first.ID {
			t.Errorf("submission %d got job %s, want %s (coalesced)", i, j.ID, first.ID)
		}
		if outcomes[i] != OutcomeCoalesced {
			t.Errorf("submission %d outcome = %s, want coalesced", i, outcomes[i])
		}
	}

	close(runner.release)
	waitDone(t, first)
	if got := runner.inner.Invocations(); got != 1 {
		t.Fatalf("executor ran %d times for 9 identical submissions, want 1", got)
	}
	if first.Status() != StatusDone {
		t.Fatalf("status = %s, err = %q", first.Status(), first.Err())
	}
}

func TestCacheHitByteIdentical(t *testing.T) {
	runner := &Executor{}
	cache, _ := NewCache(0, "")
	sched := NewScheduler(1, 16, runner, cache)
	defer sched.Close()

	j1, outcome, err := sched.Submit(testSpec(64))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if outcome != OutcomeQueued {
		t.Fatalf("outcome = %s, want queued", outcome)
	}
	waitDone(t, j1)
	if j1.Status() != StatusDone {
		t.Fatalf("status = %s, err = %q", j1.Status(), j1.Err())
	}

	j2, outcome, err := sched.Submit(testSpec(64))
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if outcome != OutcomeCached {
		t.Fatalf("outcome = %s, want cached", outcome)
	}
	if j2.Status() != StatusDone {
		t.Fatalf("cached job not done: %s", j2.Status())
	}
	if j1.Hash != j2.Hash {
		t.Fatalf("hash mismatch: %s vs %s", j1.Hash, j2.Hash)
	}
	if !bytes.Equal(j1.Result(), j2.Result()) {
		t.Fatalf("cache hit is not byte-identical")
	}
	if got := runner.Invocations(); got != 1 {
		t.Fatalf("executor ran %d times, want 1 (second submit served from cache)", got)
	}

	// Different spec → different hash, new simulation.
	j3, outcome, err := sched.Submit(testSpec(128))
	if err != nil {
		t.Fatalf("Submit different: %v", err)
	}
	if outcome != OutcomeQueued || j3.Hash == j1.Hash {
		t.Fatalf("different spec should queue a fresh job (outcome=%s)", outcome)
	}
	waitDone(t, j3)
	if got := runner.Invocations(); got != 2 {
		t.Fatalf("executor ran %d times, want 2", got)
	}
}

func TestRerunReproducesCachedBytes(t *testing.T) {
	// Two *independent* schedulers (no shared cache) must produce the
	// same result bytes for the same spec: determinism end to end.
	run := func() []byte {
		cache, _ := NewCache(0, "")
		sched := NewScheduler(2, 16, &Executor{}, cache)
		defer sched.Close()
		j, _, err := sched.Submit(testSpec(64))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		waitDone(t, j)
		if j.Status() != StatusDone {
			t.Fatalf("status = %s, err = %q", j.Status(), j.Err())
		}
		return j.Result()
	}
	if !bytes.Equal(run(), run()) {
		t.Fatalf("independent runs of the same spec produced different bytes")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	runner := &gatedRunner{release: make(chan struct{})}
	defer close(runner.release)
	cache, _ := NewCache(0, "")
	sched := NewScheduler(1, 16, runner, cache)
	defer sched.Close()

	// Occupy the single worker, then queue a second job and cancel it.
	blocker, _, err := sched.Submit(testSpec(64))
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	queued, _, err := sched.Submit(testSpec(128))
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}
	if !sched.Cancel(queued.ID) {
		t.Fatalf("Cancel returned false")
	}
	waitDone(t, queued)
	if queued.Status() != StatusCanceled {
		t.Fatalf("status = %s, want canceled", queued.Status())
	}
	// The cancelled job's hash must be free for resubmission.
	again, outcome, err := sched.Submit(testSpec(128))
	if err != nil {
		t.Fatalf("resubmit after cancel: %v", err)
	}
	if again.ID == queued.ID || outcome == OutcomeCached {
		t.Fatalf("cancelled job still active: outcome=%s id=%s", outcome, again.ID)
	}
	_ = blocker
}

func TestCancelRunningJobPrompt(t *testing.T) {
	runner := &Executor{}
	cache, _ := NewCache(0, "")
	sched := NewScheduler(1, 16, runner, cache)
	defer sched.Close()

	// A heavy spec: many trials on a mid-size model. Cancellation must
	// land long before the full campaign would finish.
	heavy := spec.Spec{
		Model:  spec.Model{Name: "geometric", N: 2048},
		Trials: 512,
	}
	j, _, err := sched.Submit(heavy)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Wait until it is actually running.
	deadline := time.Now().Add(10 * time.Second)
	for j.Status() != StatusRunning && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if !sched.Cancel(j.ID) {
		t.Fatalf("Cancel returned false")
	}
	waitDone(t, j)
	if j.Status() != StatusCanceled {
		t.Fatalf("status = %s, want canceled", j.Status())
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

func TestSubmitInvalidSpec(t *testing.T) {
	cache, _ := NewCache(0, "")
	sched := NewScheduler(1, 4, &Executor{}, cache)
	defer sched.Close()
	if _, _, err := sched.Submit(spec.Spec{Model: spec.Model{Name: "nosuch", N: 64}}); err == nil {
		t.Fatalf("invalid spec accepted")
	}
}

func TestJobProgressAndEvents(t *testing.T) {
	cache, _ := NewCache(0, "")
	sched := NewScheduler(1, 4, &Executor{}, cache)
	defer sched.Close()
	j, _, err := sched.Submit(testSpec(64))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, j)
	v := j.View(true)
	if v.Progress.TrialsDone != 2 || v.Progress.Trials != 2 {
		t.Fatalf("progress = %+v, want 2/2 trials", v.Progress)
	}
	if v.Progress.Events == 0 {
		t.Fatalf("no events recorded")
	}
	if len(v.Result) == 0 {
		t.Fatalf("view missing result")
	}
	replay, live, unsub := j.Subscribe()
	defer unsub()
	if len(replay) == 0 || !isTerminalEvent(replay[len(replay)-1]) {
		t.Fatalf("replay of a finished job must end with the terminal event; got %d events", len(replay))
	}
	rounds := 0
	for _, e := range replay {
		if e.Type == "round" {
			rounds++
		}
	}
	if rounds == 0 {
		t.Fatalf("no round events in replay")
	}
	if _, ok := <-live; ok {
		t.Fatalf("live channel of a finished job should be closed")
	}
}

// panicRunner fails by panicking — the shape of a spec whose run trips
// a model invariant or protocol precondition deep inside the engines.
type panicRunner struct{ inner Executor }

func (p *panicRunner) Execute(ctx context.Context, s spec.Spec, sink func(Event)) (*Result, error) {
	if s.Model.N == 64 {
		panic("model invariant violated")
	}
	return p.inner.Execute(ctx, s, sink)
}

func TestWorkerSurvivesPanickingJob(t *testing.T) {
	// Regression: before the worker recover, one panicking spec killed
	// the whole server. The job must fail with the panic message in its
	// event history, and the same worker must keep serving jobs.
	runner := &panicRunner{}
	cache, _ := NewCache(0, "")
	sched := NewScheduler(1, 16, runner, cache)
	defer sched.Close()

	bad, _, err := sched.Submit(testSpec(64))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, bad)
	if bad.Status() != StatusFailed {
		t.Fatalf("status = %s, want failed", bad.Status())
	}
	if msg := bad.Err(); !strings.Contains(msg, "model invariant violated") {
		t.Fatalf("failure message %q does not carry the panic", msg)
	}
	replay, _, unsub := bad.Subscribe()
	defer unsub()
	found := false
	for _, e := range replay {
		if e.Type == "error" && strings.Contains(e.Message, "model invariant violated") {
			found = true
		}
	}
	if !found {
		t.Fatalf("event history lacks the panic message: %+v", replay)
	}

	// The single worker survived: a healthy job still completes.
	good, _, err := sched.Submit(testSpec(128))
	if err != nil {
		t.Fatalf("Submit good: %v", err)
	}
	waitDone(t, good)
	if good.Status() != StatusDone {
		t.Fatalf("post-panic job status = %s, err = %q", good.Status(), good.Err())
	}
	// The failed hash is free for resubmission (not wedged in the
	// single-flight index).
	again, outcome, err := sched.Submit(testSpec(64))
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if outcome == OutcomeCached || again.ID == bad.ID {
		t.Fatalf("panicked job wedged its hash: outcome=%s id=%s", outcome, again.ID)
	}
	waitDone(t, again)
}

func TestWorkerSurvivesSweepWorkerPanic(t *testing.T) {
	// End to end through the real Executor: a panic raised inside the
	// parallel trial sweep (on a sweep worker goroutine) must surface as
	// a failed job, not a process crash.
	runner := &sweepPanicRunner{}
	cache, _ := NewCache(0, "")
	sched := NewScheduler(1, 4, runner, cache)
	defer sched.Close()
	j, _, err := sched.Submit(testSpec(64))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, j)
	if j.Status() != StatusFailed || !strings.Contains(j.Err(), "trial 1 poisoned") {
		t.Fatalf("status = %s err = %q, want failed with sweep panic", j.Status(), j.Err())
	}
}

// sweepPanicRunner routes execution through sweep.RepeatCtx with
// several workers and panics inside one job, exercising the harness's
// panic propagation under the scheduler's recover.
type sweepPanicRunner struct{}

func (sweepPanicRunner) Execute(ctx context.Context, s spec.Spec, sink func(Event)) (*Result, error) {
	_, err := sweep.RepeatCtx(ctx, 8, 1, 4, func(rep int, r *rng.RNG) int {
		if rep == 1 {
			panic("trial 1 poisoned")
		}
		return rep
	})
	return &Result{}, err
}

// instantRunner finishes every job at once with an empty result, so a
// test can cycle through jobs faster than real simulations allow.
type instantRunner struct{}

func (instantRunner) Execute(context.Context, spec.Spec, func(Event)) (*Result, error) {
	return &Result{}, nil
}

// TestResubmitAfterDoneIsCached pins the single-flight release order:
// a job leaves the single-flight index before it reports done, so a
// resubmission made once Done has closed is served from the cache and
// never coalesces onto the finished job.
func TestResubmitAfterDoneIsCached(t *testing.T) {
	cache, _ := NewCache(0, "")
	sched := NewScheduler(1, 16, instantRunner{}, cache)
	defer sched.Close()
	for i := 0; i < 5000; i++ {
		s := testSpec(64)
		s.Seed = uint64(i + 1)
		j, _, err := sched.Submit(s)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		waitDone(t, j)
		if _, outcome, err := sched.Submit(s); err != nil || outcome != OutcomeCached {
			t.Fatalf("iteration %d: resubmit outcome = %s (err %v), want cached", i, outcome, err)
		}
	}
}
