package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"meg/internal/spec"
)

// burstRunner emits a fixed burst of round events once released, then
// returns a tiny result — the harness for subscriber-backpressure and
// history-eviction tests.
type burstRunner struct {
	start  chan struct{}
	events int
}

func (r *burstRunner) Execute(ctx context.Context, s spec.Spec, sink func(Event)) (*Result, error) {
	if r.start != nil {
		select {
		case <-r.start:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	for i := 0; i < r.events; i++ {
		if sink != nil {
			sink(Event{Type: "round", Trial: 0, Round: i + 1, Informed: i + 1})
		}
	}
	c, err := s.Canonical()
	if err != nil {
		return nil, err
	}
	hash, err := c.Hash()
	if err != nil {
		return nil, err
	}
	return &Result{Hash: hash, Spec: publicSpec(c)}, nil
}

// TestSSESlowSubscriberDoesNotBlockOrLeak pins the backpressure
// contract: a subscriber that never reads must not stall the running
// job, and at finish its channel is closed and the subscription table
// emptied — no goroutine has to consume anything for cleanup to
// happen.
func TestSSESlowSubscriberDoesNotBlockOrLeak(t *testing.T) {
	start := make(chan struct{})
	runner := &burstRunner{start: start, events: 600} // far beyond the 256-slot channel
	cache, err := NewCache(0, "")
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(1, 16, runner, cache)
	defer sched.Close()
	m := NewMetrics()
	sched.Instrument(m)

	job, _, err := sched.Submit(testSpec(64))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	_, live, unsubscribe := job.Subscribe()
	if got := m.sseSubs.Value(); got != 1 {
		t.Errorf("sse subscribers = %v, want 1", got)
	}
	close(start)
	// The job must finish although nobody reads `live`. waitDone would
	// hang here if the event fan-out blocked on the full channel.
	waitDone(t, job)

	// finish() closed the channel after the terminal send attempt;
	// draining it must terminate (≤ 256 buffered events, then closed).
	drained := 0
	for range live {
		drained++
	}
	if drained > 256+1 {
		t.Errorf("drained %d events from a 256-slot channel", drained)
	}
	if m.sseDropped.Value() == 0 {
		t.Error("no dropped events recorded despite a stalled subscriber")
	}
	job.mu.Lock()
	leaked := len(job.subs)
	job.mu.Unlock()
	if leaked != 0 {
		t.Errorf("%d subscriptions leaked after finish", leaked)
	}
	if got := m.sseSubs.Value(); got != 0 {
		t.Errorf("sse subscriber gauge = %v after finish, want 0", got)
	}
	unsubscribe() // idempotent after finish: must not panic or double-count
	if got := m.sseSubs.Value(); got != 0 {
		t.Errorf("sse subscriber gauge = %v after late unsubscribe, want 0", got)
	}
}

// TestEventHistoryEviction pins the replay bound: a job emitting more
// than maxEventHistory events keeps only the newest, counts the
// evictions, and serves a bounded replay to late subscribers.
func TestEventHistoryEviction(t *testing.T) {
	over := 100
	runner := &burstRunner{events: maxEventHistory + over}
	cache, err := NewCache(0, "")
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(1, 16, runner, cache)
	defer sched.Close()

	job, _, err := sched.Submit(testSpec(64))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, job)

	replay, live, _ := job.Subscribe()
	for range live { // closed immediately on a finished job
	}
	// History is capped at maxEventHistory progress events; the terminal
	// event is appended on top at finish so it always survives replay.
	if len(replay) != maxEventHistory+1 {
		t.Errorf("replay length = %d, want %d", len(replay), maxEventHistory+1)
	}
	job.mu.Lock()
	dropped := job.dropped
	job.mu.Unlock()
	if dropped != over {
		t.Errorf("dropped = %d, want %d", dropped, over)
	}
	// The bounded replay still ends with the terminal event.
	if replay[len(replay)-1].Type != "done" {
		t.Errorf("replay ends with %q, want done", replay[len(replay)-1].Type)
	}
}

// TestMetricsEndpoint drives a submit → done → cached-resubmit cycle
// through the HTTP stack and asserts the scrape carries the scheduler,
// cache, executor, and HTTP-latency series with the expected counts.
func TestMetricsEndpoint(t *testing.T) {
	runner := &Executor{}
	cache, err := NewCache(0, "")
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(2, 16, runner, cache)
	defer sched.Close()
	srv := NewServer(sched) // auto-instruments the scheduler
	runner.Metrics = sched.Metrics()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sr := postSpec(t, ts, smallSpec)
	waitJobDone(t, ts, sr.ID)
	if again := postSpec(t, ts, smallSpec); again.Outcome != OutcomeCached {
		t.Fatalf("resubmit outcome = %s, want cached", again.Outcome)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		`meg_jobs_submitted_total{outcome="queued"} 1`,
		`meg_jobs_submitted_total{outcome="cached"} 1`,
		// 2: the executed job plus the cached resubmit's pre-finished job.
		`meg_jobs_completed_total{status="done"} 2`,
		`meg_cache_ops_total{op="miss"}`, // first submit missed
		`meg_cache_ops_total{op="hit"} 1`,
		"meg_cache_entries 1",
		`meg_http_requests_total{route="submit",code="202"} 1`,
		`meg_http_requests_total{route="submit",code="200"} 1`,
		`meg_http_request_seconds_count{route="submit"} 2`,
		`meg_executor_jobs_total{model="geometric",protocol="flooding",outcome="ok"} 1`,
		"meg_engine_rounds_total",
		`meg_phase_seconds_total{phase="kernel"}`,
		"meg_job_wait_seconds_count 1",
		"meg_job_run_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", out)
	}
}

// TestHealthzDraining pins the graceful-shutdown contract: /healthz
// serves 200 with ok=true in steady state and flips to 503 with
// draining=true once BeginDrain is called.
func TestHealthzDraining(t *testing.T) {
	runner := &Executor{}
	cache, err := NewCache(0, "")
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(1, 4, runner, cache)
	defer sched.Close()
	ts := httptest.NewServer(NewServer(sched).Handler())
	defer ts.Close()

	check := func(wantCode int, wantOK, wantDraining bool) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Errorf("healthz status = %d, want %d", resp.StatusCode, wantCode)
		}
		var h healthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatalf("decode healthz: %v", err)
		}
		if h.OK != wantOK || h.Draining != wantDraining {
			t.Errorf("healthz = {ok:%v draining:%v}, want {ok:%v draining:%v}", h.OK, h.Draining, wantOK, wantDraining)
		}
		if h.UptimeSeconds < 0 {
			t.Errorf("negative uptime %v", h.UptimeSeconds)
		}
	}
	check(http.StatusOK, true, false)
	sched.BeginDrain()
	check(http.StatusServiceUnavailable, false, true)
}

// TestPprofGated pins that profile endpoints are opt-in.
func TestPprofGated(t *testing.T) {
	runner := &Executor{}
	cache, err := NewCache(0, "")
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(1, 4, runner, cache)
	defer sched.Close()
	srv := NewServer(sched)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, err := http.Get(ts.URL + "/debug/pprof/"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("pprof served without opt-in: %d", resp.StatusCode)
		}
	}
	srv.EnablePprof()
	if resp, err := http.Get(ts.URL + "/debug/pprof/"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("pprof index status = %d after EnablePprof", resp.StatusCode)
		}
	}
}

// TestExecutorTelemetryEvents pins the SSE multiplexing: with a sink
// attached, flooding runs emit telemetry events whose phase spans are
// populated, alongside (never instead of) the round events.
func TestExecutorTelemetryEvents(t *testing.T) {
	e := &Executor{}
	s := testSpec(64)
	// Execute calls the sink from concurrent trials, so the counters
	// are guarded.
	var mu sync.Mutex
	var rounds, telemetry int
	var lastKernel int64
	res, err := e.Execute(context.Background(), s, func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.Type {
		case "round":
			rounds++
		case "telemetry":
			telemetry++
			if ev.Telemetry == nil {
				t.Error("telemetry event without payload")
				return
			}
			lastKernel += ev.Telemetry.KernelNS
		}
	})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res == nil || rounds == 0 {
		t.Fatalf("no rounds observed (res=%v)", res)
	}
	if telemetry == 0 {
		t.Fatal("no telemetry events emitted")
	}
	if telemetry != rounds {
		t.Errorf("telemetry events = %d, round events = %d; want equal", telemetry, rounds)
	}
	if lastKernel <= 0 {
		t.Errorf("kernel span never positive across %d telemetry events", telemetry)
	}
}
