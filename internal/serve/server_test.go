package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newTestServer boots a full scheduler+server stack on httptest.
func newTestServer(t *testing.T) (*httptest.Server, *Executor, func()) {
	t.Helper()
	runner := &Executor{}
	cache, err := NewCache(0, "")
	if err != nil {
		t.Fatalf("NewCache: %v", err)
	}
	sched := NewScheduler(2, 16, runner, cache)
	ts := httptest.NewServer(NewServer(sched).Handler())
	return ts, runner, func() {
		ts.Close()
		sched.Close()
	}
}

func postSpec(t *testing.T, ts *httptest.Server, body string) submitResponse {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/jobs status %d", resp.StatusCode)
	}
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	return sr
}

func getJob(t *testing.T, ts *httptest.Server, id string) View {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET /v1/jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode job view: %v", err)
	}
	return v
}

func waitJobDone(t *testing.T, ts *httptest.Server, id string) View {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v := getJob(t, ts, id)
		if JobStatus(v.Status).terminal() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return View{}
}

const smallSpec = `{"model":{"name":"geometric","n":64},"trials":2,"seed":3}`

func TestEndToEndSubmitStatusResult(t *testing.T) {
	ts, runner, shutdown := newTestServer(t)
	defer shutdown()

	sr := postSpec(t, ts, smallSpec)
	if sr.ID == "" || len(sr.Hash) != 64 {
		t.Fatalf("bad submit response: %+v", sr)
	}
	v := waitJobDone(t, ts, sr.ID)
	if v.Status != StatusDone {
		t.Fatalf("status = %s, error = %q", v.Status, v.Error)
	}
	var res Result
	if err := json.Unmarshal(v.Result, &res); err != nil {
		t.Fatalf("result does not decode: %v", err)
	}
	if res.Hash != sr.Hash {
		t.Fatalf("result hash %s != submit hash %s", res.Hash, sr.Hash)
	}
	if res.CompletedTrials+res.IncompleteTrials != 2 || len(res.Trials) != 2 {
		t.Fatalf("trial accounting wrong: %+v", res)
	}
	if len(res.Trajectory) == 0 {
		t.Fatalf("missing trajectory")
	}

	// Second submission of the same spec: one simulation total, same
	// hash, byte-identical result.
	sr2 := postSpec(t, ts, smallSpec)
	if sr2.Hash != sr.Hash {
		t.Fatalf("resubmit hash changed: %s vs %s", sr2.Hash, sr.Hash)
	}
	if sr2.Outcome != OutcomeCached && sr2.Outcome != OutcomeCoalesced {
		t.Fatalf("resubmit outcome = %s", sr2.Outcome)
	}
	v2 := waitJobDone(t, ts, sr2.ID)
	if !bytes.Equal(v.Result, v2.Result) {
		t.Fatalf("resubmitted result not byte-identical")
	}
	if got := runner.Invocations(); got != 1 {
		t.Fatalf("executor ran %d times for two identical submissions, want 1", got)
	}

	// The result is addressable by content hash, byte-identical again.
	resp, err := http.Get(ts.URL + "/v1/cache/" + sr.Hash)
	if err != nil {
		t.Fatalf("GET /v1/cache: %v", err)
	}
	cached, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache GET status %d", resp.StatusCode)
	}
	if !bytes.Equal(bytes.TrimSpace(cached), bytes.TrimSpace(v.Result)) {
		t.Fatalf("cache endpoint bytes differ from job result")
	}
}

func TestSSEStreamDeliversProgressAndTerminates(t *testing.T) {
	ts, _, shutdown := newTestServer(t)
	defer shutdown()

	sr := postSpec(t, ts, `{"model":{"name":"geometric","n":128},"trials":3,"seed":5}`)
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+sr.ID+"/events", nil)
	client := &http.Client{Timeout: 60 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	// Read the stream to EOF: it must terminate on its own (no client
	// cancel), deliver ≥1 progress event, and end with a terminal one.
	var events []Event
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var e Event
			if err := json.Unmarshal([]byte(data), &e); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
			events = append(events, e)
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(events) == 0 {
		t.Fatalf("empty SSE stream")
	}
	last := events[len(events)-1]
	if !isTerminalEvent(last) {
		t.Fatalf("stream did not end with a terminal event: %+v", last)
	}
	progress := 0
	for _, e := range events[:len(events)-1] {
		if e.Type == "round" || e.Type == "trial" {
			progress++
		}
	}
	if progress == 0 {
		t.Fatalf("no progress events before completion (got %d events)", len(events))
	}
}

func TestHTTPErrors(t *testing.T) {
	ts, _, shutdown := newTestServer(t)
	defer shutdown()

	// Unknown job.
	resp, _ := http.Get(ts.URL + "/v1/jobs/j999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Unknown cache hash.
	resp, _ = http.Get(ts.URL + "/v1/cache/" + strings.Repeat("ab", 32))
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown hash status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Malformed spec.
	resp, _ = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"model":{`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed spec status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Unknown field (strict decoding).
	resp, _ = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"model":{"name":"geometric","n":64},"bogus":1}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestOversizedSpec posts one byte past the spec limit: the server must
// answer 413 with its size message and close the connection instead of
// reading on.
func TestOversizedSpec(t *testing.T) {
	ts, _, shutdown := newTestServer(t)
	defer shutdown()

	body := bytes.Repeat([]byte(" "), maxSpecBytes+1)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec status %d, want 413", resp.StatusCode)
	}
	if !resp.Close {
		t.Error("oversized spec response keeps the connection open")
	}
	msg, _ := io.ReadAll(resp.Body)
	if want := fmt.Sprintf("spec exceeds %d bytes", maxSpecBytes); !strings.Contains(string(msg), want) {
		t.Errorf("oversized spec body %q, want it to contain %q", msg, want)
	}
}

func TestHealthz(t *testing.T) {
	ts, _, shutdown := newTestServer(t)
	defer shutdown()
	sr := postSpec(t, ts, smallSpec)
	waitJobDone(t, ts, sr.ID)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var h struct {
		OK    bool               `json:"ok"`
		Jobs  map[string]int     `json:"jobs"`
		Cache map[string]float64 `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if !h.OK || h.Jobs[string(StatusDone)] != 1 || h.Cache["entries"] != 1 {
		t.Fatalf("healthz payload wrong: %+v", h)
	}
}

func TestCancelEndpoint(t *testing.T) {
	runner := &gatedRunner{release: make(chan struct{})}
	defer close(runner.release)
	cache, _ := NewCache(0, "")
	sched := NewScheduler(1, 16, runner, cache)
	defer sched.Close()
	ts := httptest.NewServer(NewServer(sched).Handler())
	defer ts.Close()

	// Occupy the worker, then cancel a queued job over HTTP.
	postSpec(t, ts, smallSpec)
	sr := postSpec(t, ts, `{"model":{"name":"geometric","n":256},"trials":2}`)
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+sr.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	v := waitJobDone(t, ts, sr.ID)
	if v.Status != StatusCanceled {
		t.Fatalf("status = %s, want canceled", v.Status)
	}
}
