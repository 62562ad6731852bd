package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"meg/internal/spec"
)

// tinySuite mirrors the real suite's shape at test-sized n.
func tinySuite() []Scenario {
	multi := spec.Spec{
		Model:   spec.Model{Name: "geometric", N: 512, RFrac: 0.5},
		Trials:  1,
		Sources: 64,
		Engine:  spec.Engine{BatchSources: true},
		Seed:    7,
	}
	return []Scenario{
		{Name: "tiny-geom", Note: "t", Spec: spec.Spec{Model: spec.Model{Name: "geometric", N: 512, RFrac: 0.5}, Trials: 2, Seed: 7}},
		{Name: "tiny-edge", Note: "t", Spec: spec.Spec{Model: spec.Model{Name: "edge", N: 512, PhatMult: 4}, Trials: 2, Seed: 7}},
		{Name: "tiny-multi", Note: "t", Spec: multi},
	}
}

func TestRunScenariosSerialShardedIdentical(t *testing.T) {
	f, err := RunScenarios(tinySuite(), Options{Parallelism: 4})
	if err != nil {
		t.Fatalf("RunScenarios: %v", err)
	}
	if f.SchemaVersion != SchemaVersion {
		t.Fatalf("schema version %d", f.SchemaVersion)
	}
	if len(f.Results) != 3 {
		t.Fatalf("got %d results", len(f.Results))
	}
	for _, r := range f.Results {
		if !r.Identical {
			t.Errorf("%s: serial and sharded diverged", r.Name)
		}
		if len(r.Variants) != 2 {
			t.Fatalf("%s: %d variants", r.Name, len(r.Variants))
		}
		for _, v := range r.Variants {
			if v.Rounds <= 0 || v.WallNS <= 0 || v.NSPerRound <= 0 {
				t.Errorf("%s/%s: empty measurement %+v", r.Name, v.Variant, v)
			}
			if !v.Completed {
				t.Errorf("%s/%s: flooding did not complete", r.Name, v.Variant)
			}
			if len(v.Checksum) != 16 {
				t.Errorf("%s/%s: checksum %q", r.Name, v.Variant, v.Checksum)
			}
		}
		if r.Hash == "" {
			t.Errorf("%s: missing spec hash", r.Name)
		}
	}
}

func TestRunScenariosFilter(t *testing.T) {
	f, err := RunScenarios(tinySuite(), Options{Parallelism: 2, Filter: []string{"edge"}})
	if err != nil {
		t.Fatalf("RunScenarios: %v", err)
	}
	if len(f.Results) != 1 || f.Results[0].Name != "tiny-edge" {
		t.Fatalf("filter selected %+v", f.Results)
	}
}

// TestRunScenariosWarmsUp checks that the untimed warm-up run is
// logged before every timed variant and leaves the entry as it was:
// one result per selected scenario, two variants each, with the
// checksums a direct run of each variant gives.
func TestRunScenariosWarmsUp(t *testing.T) {
	var lines []string
	logf := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	f, err := RunScenarios(tinySuite()[:2], Options{Parallelism: 2, Log: logf})
	if err != nil {
		t.Fatalf("RunScenarios: %v", err)
	}
	if len(lines) != 5 || !strings.Contains(lines[0], "tiny-geom") || !strings.Contains(lines[0], "warm-up") {
		t.Fatalf("log %q: want the tiny-geom warm-up line, then four variant lines", lines)
	}
	for _, l := range lines[1:] {
		if strings.Contains(l, "warm-up") {
			t.Fatalf("second warm-up line %q", l)
		}
	}
	if len(f.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(f.Results))
	}
	for i, sc := range tinySuite()[:2] {
		r := f.Results[i]
		c, err := sc.Spec.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		want, err := runVariant(c, "serial", 1, sc.DeltaVsFull, false)
		if err != nil {
			t.Fatal(err)
		}
		if r.Name != sc.Name || len(r.Variants) != 2 || !r.Identical {
			t.Fatalf("result %d: %s with %d variants (identical %v)", i, r.Name, len(r.Variants), r.Identical)
		}
		for _, v := range r.Variants {
			if v.Checksum != want.Checksum || v.Rounds != want.Rounds {
				t.Errorf("%s/%s: checksum %s over %d rounds, want %s over %d", r.Name, v.Variant, v.Checksum, v.Rounds, want.Checksum, want.Rounds)
			}
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	f, err := RunScenarios(tinySuite()[:1], Options{Parallelism: 2})
	if err != nil {
		t.Fatalf("RunScenarios: %v", err)
	}
	path := filepath.Join(t.TempDir(), FileName(f.GitSHA))
	if err := f.Write(path); err != nil {
		t.Fatalf("Write: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	var re File
	if err := json.Unmarshal(data, &re); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if re.SchemaVersion != f.SchemaVersion || len(re.Results) != len(f.Results) {
		t.Fatalf("round trip mutated the file")
	}
	if re.Results[0].Variants[0].Checksum != f.Results[0].Variants[0].Checksum {
		t.Fatalf("round trip mutated a checksum")
	}
}

func TestSuiteSpecsAreValid(t *testing.T) {
	for _, sc := range Suite() {
		if _, err := sc.Spec.Canonical(); err != nil {
			t.Errorf("%s: invalid spec: %v", sc.Name, err)
		}
		if sc.Name == "" || sc.Note == "" {
			t.Errorf("scenario missing name/note: %+v", sc)
		}
	}
}

func TestRunProtocolScenario(t *testing.T) {
	// A gossip scenario times the gossip engine on one shard against
	// every worker — identical checksums.
	scenarios := []Scenario{{
		Name: "tiny-proto",
		Note: "t",
		Spec: spec.Spec{
			Model:    spec.Model{Name: "edge", N: 512, PhatMult: 4},
			Protocol: spec.Protocol{Name: "push-pull"},
			Trials:   2,
			Seed:     7,
		},
	}}
	f, err := RunScenarios(scenarios, Options{Parallelism: 4})
	if err != nil {
		t.Fatalf("RunScenarios: %v", err)
	}
	r := f.Results[0]
	if !r.Identical {
		t.Fatalf("serial and sharded gossip runs diverged: %+v", r.Variants)
	}
	for _, v := range r.Variants {
		if v.Rounds <= 0 || !v.Completed || v.WallNS <= 0 {
			t.Fatalf("%s: empty measurement %+v", v.Variant, v)
		}
	}
}

func TestRunDeltaScenario(t *testing.T) {
	// A delta scenario times the full-rebuild path serially against the
	// incremental snapshot path — identical checksums, snapshot labels
	// recorded on the variants. At 2q·d̄ ≈ 0.05 the engines choose the
	// delta path on their own, so only the sharded variant records
	// delta-apply time.
	scenarios := []Scenario{{
		Name: "tiny-delta",
		Note: "t",
		Spec: spec.Spec{
			Model:  spec.Model{Name: "edge", N: 512, PhatMult: 2, Q: 0.002},
			Trials: 2,
			Seed:   7,
		},
		DeltaVsFull: true,
	}}
	f, err := RunScenarios(scenarios, Options{Parallelism: 4, Telemetry: true})
	if err != nil {
		t.Fatalf("RunScenarios: %v", err)
	}
	r := f.Results[0]
	if !r.Identical {
		t.Fatalf("full and delta snapshot paths diverged: %+v", r.Variants)
	}
	if r.Variants[0].Snapshot != "full" || r.Variants[1].Snapshot != "delta" {
		t.Fatalf("snapshot labels wrong: %q/%q", r.Variants[0].Snapshot, r.Variants[1].Snapshot)
	}
	if full, delta := r.Variants[0].Telemetry.DeltaApplyNS, r.Variants[1].Telemetry.DeltaApplyNS; full != 0 || delta <= 0 {
		t.Fatalf("delta-apply time full/delta = %d/%d ns, want 0 and > 0", full, delta)
	}
	for _, v := range r.Variants {
		if v.Rounds <= 0 || !v.Completed || v.WallNS <= 0 {
			t.Fatalf("%s: empty measurement %+v", v.Variant, v)
		}
	}
}

func TestSuiteCoversDeltaScenarios(t *testing.T) {
	// The fixed suite must carry the low-churn delta scenarios so the
	// trajectory records the incremental path's gain and CI gates its
	// equivalence with the full rebuild.
	deltas := 0
	for _, sc := range Suite() {
		if sc.DeltaVsFull {
			deltas++
		}
	}
	if deltas < 2 {
		t.Fatalf("suite has %d delta scenarios, want ≥ 2", deltas)
	}
}

func TestCompare(t *testing.T) {
	run := func(names ...string) *File {
		f := &File{SchemaVersion: SchemaVersion, GitSHA: "abc", GeneratedAt: "2026-07-26T00:00:00Z"}
		for i, name := range names {
			f.Results = append(f.Results, Result{
				Name: name,
				Variants: []Variant{
					{Variant: "serial", WallNS: 1000, NSPerRound: 10},
					{Variant: "sharded", WallNS: int64(100 * (i + 1)), NSPerRound: float64(i + 1)},
				},
				SpeedupVsSerial: 2,
			})
		}
		return f
	}
	base := run("a", "b", "gone")
	cur := run("a", "b", "fresh")
	// Regress scenario b by 50%.
	cur.Results[1].Variants[1].WallNS = 300
	c := Compare(base, cur)
	if got := c.Regressions(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("regressions = %v, want [b]", got)
	}
	byName := map[string]ScenarioDiff{}
	for _, d := range c.Diffs {
		byName[d.Name] = d
	}
	if d := byName["a"]; d.WallPct != 0 || d.Regressed {
		t.Fatalf("scenario a diff %+v", d)
	}
	if d := byName["b"]; d.WallPct != 50 || !d.Regressed {
		t.Fatalf("scenario b diff %+v", d)
	}
	if !byName["fresh"].OnlyInCurrent || !byName["gone"].OnlyInBase {
		t.Fatalf("composition diffs wrong: %+v", c.Diffs)
	}
}

func TestCompareSurvivesEmptyVariants(t *testing.T) {
	// A truncated trajectory entry (schema-valid JSON, no variants)
	// must degrade to an incomparable row — the comparison is advisory
	// and may never crash the bench job.
	base := &File{SchemaVersion: SchemaVersion, GitSHA: "b", Results: []Result{{Name: "a"}}}
	cur := &File{SchemaVersion: SchemaVersion, GitSHA: "c", Results: []Result{{
		Name:     "a",
		Variants: []Variant{{Variant: "serial", WallNS: 1}, {Variant: "sharded", WallNS: 1}},
	}}}
	c := Compare(base, cur)
	if len(c.Diffs) != 1 || !c.Diffs[0].OnlyInCurrent || c.Diffs[0].Regressed {
		t.Fatalf("empty-variant baseline diffed as %+v", c.Diffs)
	}
}

func TestLoadLatestPicksNewestGeneratedAt(t *testing.T) {
	dir := t.TempDir()
	old := &File{SchemaVersion: SchemaVersion, GitSHA: "old1", GeneratedAt: "2026-01-01T00:00:00Z"}
	newer := &File{SchemaVersion: SchemaVersion, GitSHA: "new1", GeneratedAt: "2026-06-01T00:00:00Z"}
	if err := old.Write(filepath.Join(dir, FileName("old1"))); err != nil {
		t.Fatal(err)
	}
	if err := newer.Write(filepath.Join(dir, FileName("new1"))); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLatest(dir)
	if err != nil {
		t.Fatalf("LoadLatest: %v", err)
	}
	if got.GitSHA != "new1" {
		t.Fatalf("LoadLatest picked %s, want new1", got.GitSHA)
	}
	if _, err := LoadLatest(t.TempDir()); err == nil {
		t.Fatal("LoadLatest on empty dir should error")
	}
}

func TestSuiteCoversProtocols(t *testing.T) {
	// The fixed suite must carry gossip scenarios so the trajectory
	// records protocol speedups and CI gates their divergence.
	protos := 0
	for _, sc := range Suite() {
		if sc.Spec.Protocol.Name != "" && sc.Spec.Protocol.Name != "flooding" {
			protos++
		}
	}
	if protos < 3 {
		t.Fatalf("suite has %d protocol scenarios, want ≥ 3", protos)
	}
}
