package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"meg/internal/rng"
)

func rngFor(seed uint64) *rng.RNG { return rng.New(seed) }

func TestParseScale(t *testing.T) {
	cases := map[string]Scale{
		"quick": Quick, "q": Quick,
		"standard": Standard, "std": Standard, "s": Standard,
		"full": Full, "f": Full, "FULL": Full,
	}
	for in, want := range cases {
		got, err := ParseScale(in)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseScale("bogus"); err == nil {
		t.Error("bogus scale accepted")
	}
}

func TestScaleString(t *testing.T) {
	if Quick.String() != "quick" || Standard.String() != "standard" || Full.String() != "full" {
		t.Error("scale labels wrong")
	}
	if Scale(42).String() == "" {
		t.Error("unknown scale should render")
	}
}

func TestAllAndByID(t *testing.T) {
	all := All()
	if len(all) != 20 {
		t.Fatalf("suite has %d experiments, want 20", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.Run == nil || e.ID == "" || e.Title == "" {
			t.Errorf("experiment %q incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
	if e, ok := ByID("e4"); !ok || e.ID != "E4" {
		t.Error("ByID case-insensitive lookup failed")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("ByID accepted unknown id")
	}
}

func TestReportPassedAndText(t *testing.T) {
	rep := &Report{
		ID:     "EX",
		Title:  "demo",
		Checks: []Check{{Name: "a", Pass: true, Detail: "ok"}},
		Notes:  []string{"note"},
	}
	if !rep.Passed() {
		t.Fatal("Passed with all-pass checks")
	}
	rep.Checks = append(rep.Checks, Check{Name: "b", Pass: false, Detail: "bad"})
	if rep.Passed() {
		t.Fatal("Passed with a failing check")
	}
	var sb strings.Builder
	rep.WriteText(&sb)
	out := sb.String()
	for _, frag := range []string{"== EX: demo ==", "[PASS] a", "[FAIL] b", "note"} {
		if !strings.Contains(out, frag) {
			t.Errorf("report text missing %q:\n%s", frag, out)
		}
	}
}

func TestPick(t *testing.T) {
	if pick(Quick, 1, 2, 3) != 1 || pick(Standard, 1, 2, 3) != 2 || pick(Full, 1, 2, 3) != 3 {
		t.Fatal("pick wrong")
	}
}

func TestBoolCheck(t *testing.T) {
	c := boolCheck("n", true, "x=%d", 5)
	if !c.Pass || c.Detail != "x=5" || c.Name != "n" {
		t.Fatalf("boolCheck = %+v", c)
	}
}

// TestQuickSuitePasses runs the complete experiment suite at Quick
// scale — the end-to-end integration test of the reproduction: every
// theorem's shape check must pass. Skipped in -short mode.
func TestQuickSuitePasses(t *testing.T) {
	if testing.Short() {
		t.Skip("quick suite skipped in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep := e.Run(Params{Scale: Quick, Seed: 1})
			for _, c := range rep.Checks {
				if !c.Pass {
					t.Errorf("%s check %q failed: %s", e.ID, c.Name, c.Detail)
				}
			}
			if len(rep.Tables) == 0 {
				t.Errorf("%s produced no tables", e.ID)
			}
		})
	}
}

// TestExperimentsDeterministic re-runs one stochastic experiment with
// the same parameters and requires identical rendered tables.
func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism check skipped in -short mode")
	}
	p := Params{Scale: Quick, Seed: 123, Workers: 2}
	a := E1GeneralBound(p)
	b := E1GeneralBound(p)
	if a.Tables[0].Text() != b.Tables[0].Text() {
		t.Fatal("E1 not deterministic under fixed seed")
	}
}

func TestCycleMatchingDynamics(t *testing.T) {
	m := newCycleMatching(10, true)
	m.Reset(rngFor(1))
	g := m.Graph()
	if g.N() != 10 {
		t.Fatal("wrong node count")
	}
	// The cycle is always present.
	for i := 0; i < 10; i++ {
		if !g.HasEdge(i, (i+1)%10) {
			t.Fatalf("cycle edge (%d,%d) missing", i, (i+1)%10)
		}
	}
	// With the matching, the edge count exceeds the bare cycle's often;
	// with withMatching=false it is exactly n.
	plain := newCycleMatching(10, false)
	plain.Reset(rngFor(2))
	if plain.Graph().M() != 10 {
		t.Fatalf("bare cycle has %d edges", plain.Graph().M())
	}
	// Graph is cached until Step.
	if m.Graph() != m.Graph() {
		t.Fatal("graph not cached")
	}
	m.Step()
	_ = m.Graph()
}

func TestCycleMatchingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n < 4")
		}
	}()
	newCycleMatching(3, false)
}

func TestE16ParallelismEquivalent(t *testing.T) {
	// E16's gossip rows run on the sharded kernel engine, so the report
	// must be byte-identical at every intra-trial worker count (the
	// kernel's equivalence to the per-node reference is pinned in
	// internal/flood and internal/protocol).
	sharded := E16Protocols(Params{Scale: Quick, Seed: 5, Parallelism: 4})
	serial := E16Protocols(Params{Scale: Quick, Seed: 5, Parallelism: 1})
	a, err := json.Marshal(sharded)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	b, err := json.Marshal(serial)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if string(a) != string(b) {
		t.Fatalf("E16 reports diverge across parallelism:\n%s\n%s", a, b)
	}
}
