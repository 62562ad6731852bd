package serve

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"meg/internal/spec"
)

func TestExecutorProtocolPath(t *testing.T) {
	s := spec.Spec{
		Model:    spec.Model{Name: "edge", N: 128},
		Protocol: spec.Protocol{Name: "push-pull"},
		Trials:   3,
		Sources:  2,
	}
	var mu sync.Mutex
	trials := 0
	exec := &Executor{}
	res, err := exec.Execute(context.Background(), s, func(e Event) {
		if e.Type == "trial" {
			mu.Lock()
			trials++
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if trials != 3 {
		t.Fatalf("trial events = %d, want 3", trials)
	}
	if res.Protocol != "push-pull" || len(res.Trials) != 3 {
		t.Fatalf("result wrong: protocol=%q trials=%d", res.Protocol, len(res.Trials))
	}
	for i, tr := range res.Trials {
		if tr.Messages == 0 && tr.Completed {
			t.Errorf("trial %d completed with zero messages", i)
		}
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatalf("protocol result does not marshal: %v", err)
	}
}

// TestExecutorProtocolName pins Result.Protocol to the canonical spec
// spelling, as flooding jobs report "flooding"; the protocol
// parameters stay visible in Result.Spec.
func TestExecutorProtocolName(t *testing.T) {
	for _, p := range []spec.Protocol{{Name: "push"}, {Name: "probabilistic", Beta: 0.8}} {
		s := spec.Spec{Model: spec.Model{Name: "edge", N: 128}, Protocol: p}
		res, err := (&Executor{}).Execute(context.Background(), s, nil)
		if err != nil {
			t.Fatalf("%s: Execute: %v", p.Name, err)
		}
		if res.Protocol != p.Name {
			t.Errorf("Result.Protocol = %q, want %q", res.Protocol, p.Name)
		}
		if res.Spec.Protocol != p {
			t.Errorf("Result.Spec.Protocol = %+v, want %+v", res.Spec.Protocol, p)
		}
	}
}

func TestExecutorExperimentPath(t *testing.T) {
	s := spec.Spec{Experiment: "E2", Scale: "quick"}
	exec := &Executor{}
	var events []Event
	var mu sync.Mutex
	res, err := exec.Execute(context.Background(), s, func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.Report == nil || res.Report.ID != "E2" {
		t.Fatalf("missing experiment report: %+v", res.Report)
	}
	if len(res.Report.Tables) == 0 || len(res.Report.Checks) == 0 {
		t.Fatalf("report lacks tables/checks")
	}
	if len(events) == 0 || events[0].Type != "experiment" {
		t.Fatalf("no experiment event emitted")
	}
	// The whole result — report, tables, metrics — must marshal and
	// round-trip through JSON (NaN metrics become null).
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("experiment result does not marshal: %v", err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("experiment result does not unmarshal: %v", err)
	}
	if back.Report.ID != "E2" || len(back.Report.Tables) != len(res.Report.Tables) {
		t.Fatalf("report round trip lost data")
	}
	if back.Report.Tables[0].NumRows() != res.Report.Tables[0].NumRows() {
		t.Fatalf("table rows lost in round trip")
	}
}

func TestExecutorUnknownExperiment(t *testing.T) {
	exec := &Executor{}
	if _, err := exec.Execute(context.Background(), spec.Spec{Experiment: "E999"}, nil); err == nil {
		t.Fatalf("unknown experiment accepted")
	}
}

func TestExecutorSeedPolicyContentDeterministic(t *testing.T) {
	s := spec.Spec{
		Model:      spec.Model{Name: "edge", N: 128},
		Trials:     2,
		SeedPolicy: spec.SeedContent,
	}
	exec := &Executor{}
	r1, err := exec.Execute(context.Background(), s, nil)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	r2, err := exec.Execute(context.Background(), s, nil)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if string(b1) != string(b2) {
		t.Fatalf("content-seeded runs are not reproducible")
	}
}

func TestResultBytesIgnoreWorkers(t *testing.T) {
	// Workers is excluded from the content hash, so two submitters
	// differing only in workers must produce byte-identical results —
	// otherwise the cache would serve different bytes for one hash
	// depending on who simulated first.
	base := spec.Spec{Model: spec.Model{Name: "edge", N: 128}, Trials: 2}
	w4 := base
	w4.Workers = 4
	exec := &Executor{}
	r1, err := exec.Execute(context.Background(), base, nil)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	r2, err := exec.Execute(context.Background(), w4, nil)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if string(b1) != string(b2) {
		t.Fatalf("worker count leaked into result bytes:\n%s\n%s", b1, b2)
	}
}

func TestResultBytesIgnoreProtocolEngine(t *testing.T) {
	// ProtocolEngine is a retired hint: specs carrying either value
	// must run the same engine and produce byte-identical results under
	// one content hash.
	base := spec.Spec{
		Model:    spec.Model{Name: "geometric", N: 256},
		Protocol: spec.Protocol{Name: "push-pull"},
		Trials:   2,
		Sources:  2,
	}
	ref := base
	ref.ProtocolEngine = "reference"
	ker := base
	ker.ProtocolEngine = "kernel"
	ker.Parallelism = 4
	exec := &Executor{}
	r1, err := exec.Execute(context.Background(), ref, nil)
	if err != nil {
		t.Fatalf("Execute reference: %v", err)
	}
	r2, err := exec.Execute(context.Background(), ker, nil)
	if err != nil {
		t.Fatalf("Execute kernel: %v", err)
	}
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if string(b1) != string(b2) {
		t.Fatalf("engine choice leaked into result bytes:\n%s\n%s", b1, b2)
	}
	h1, _ := ref.Hash()
	h2, _ := ker.Hash()
	if h1 != h2 {
		t.Fatalf("engine choice changed the content hash: %s vs %s", h1, h2)
	}
}

func TestResultBytesIgnoreSnapshotPath(t *testing.T) {
	// Snapshot is a retired hint: specs carrying either value must
	// produce byte-identical cached results under one content hash.
	base := spec.Spec{
		Model:   spec.Model{Name: "edge", N: 256, PhatMult: 2, Q: 0.05},
		Trials:  2,
		Sources: 2,
	}
	full := base
	full.Snapshot = "full"
	delta := base
	delta.Snapshot = "delta"
	delta.Parallelism = 4
	exec := &Executor{}
	r1, err := exec.Execute(context.Background(), full, nil)
	if err != nil {
		t.Fatalf("Execute full: %v", err)
	}
	r2, err := exec.Execute(context.Background(), delta, nil)
	if err != nil {
		t.Fatalf("Execute delta: %v", err)
	}
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if string(b1) != string(b2) {
		t.Fatalf("snapshot path leaked into result bytes:\n%s\n%s", b1, b2)
	}
	h1, _ := full.Hash()
	h2, _ := delta.Hash()
	if h1 != h2 {
		t.Fatalf("snapshot path changed the content hash: %s vs %s", h1, h2)
	}
}

func TestExecutorProtocolRoundEvents(t *testing.T) {
	// The kernel engine streams per-round progress for non-flooding
	// protocols — previously only trial events existed on this path.
	s := spec.Spec{
		Model:    spec.Model{Name: "edge", N: 128},
		Protocol: spec.Protocol{Name: "push"},
		Trials:   1,
	}
	var mu sync.Mutex
	rounds := 0
	exec := &Executor{}
	if _, err := exec.Execute(context.Background(), s, func(e Event) {
		if e.Type == "round" {
			mu.Lock()
			rounds++
			mu.Unlock()
		}
	}); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if rounds == 0 {
		t.Fatal("no round events from the protocol path")
	}
}
