package bench

import (
	"math"
	"strings"
	"testing"
)

// trajFile builds one trajectory entry measuring the given scenarios'
// sharded wall times (serial wall is irrelevant to the comparison).
func trajFile(gen string, walls map[string]int64) *File {
	f := &File{SchemaVersion: SchemaVersion, GitSHA: "sha-" + gen, GeneratedAt: gen}
	for _, name := range sortedKeys(walls) {
		f.Results = append(f.Results, Result{
			Name: name,
			Variants: []Variant{
				{Variant: "serial", WallNS: 5000, NSPerRound: 50},
				{Variant: "sharded", WallNS: walls[name], NSPerRound: 10},
			},
			SpeedupVsSerial: 2,
		})
	}
	return f
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	return keys
}

func TestNoiseBands(t *testing.T) {
	files := []*File{
		trajFile("2026-08-01T00:00:00Z", map[string]int64{"steady": 1000, "noisy": 900}),
		trajFile("2026-08-02T00:00:00Z", map[string]int64{"steady": 1000, "noisy": 1000}),
		trajFile("2026-08-03T00:00:00Z", map[string]int64{"steady": 1000, "noisy": 1100, "short": 1000}),
		trajFile("2026-08-04T00:00:00Z", map[string]int64{"steady": 1000, "short": 1000}),
	}
	bands := NoiseBands(files)

	// Zero scatter clamps to the floor, not to zero.
	steady, ok := bands["steady"]
	if !ok || steady.Entries != 4 {
		t.Fatalf("steady band = %+v, ok=%v", steady, ok)
	}
	if steady.StddevWallNS != 0 || steady.ThresholdPct != noiseFloorPct {
		t.Errorf("steady band = %+v, want stddev 0 at the %v%% floor", steady, noiseFloorPct)
	}

	// 900/1000/1100: mean 1000, sample stddev 100 → 10% relative → 3σ = 30%.
	noisy := bands["noisy"]
	if noisy.Entries != 3 || math.Abs(noisy.MeanWallNS-1000) > 1e-9 {
		t.Fatalf("noisy band = %+v", noisy)
	}
	if math.Abs(noisy.StddevWallNS-100) > 1e-9 || math.Abs(noisy.ThresholdPct-30) > 1e-9 {
		t.Errorf("noisy band = %+v, want stddev 100, threshold 30%%", noisy)
	}

	// Two measurements are below noiseMinEntries: no band, flat fallback.
	if _, ok := bands["short"]; ok {
		t.Errorf("short trajectory produced a band: %+v", bands["short"])
	}
}

func TestNoiseBandsWindowTrimsOldEntries(t *testing.T) {
	// Two ancient wild measurements followed by eight identical ones:
	// only the trailing window feeds the estimate, so the band sits at
	// the floor instead of being blown up by stale history.
	var files []*File
	for i := 0; i < 2; i++ {
		files = append(files, trajFile("2026-07-0"+string(rune('1'+i))+"T00:00:00Z", map[string]int64{"w": 1_000_000}))
	}
	for i := 0; i < noiseWindow; i++ {
		files = append(files, trajFile("2026-08-0"+string(rune('1'+i))+"T00:00:00Z", map[string]int64{"w": 1000}))
	}
	band, ok := NoiseBands(files)["w"]
	if !ok || band.Entries != noiseWindow {
		t.Fatalf("band = %+v, ok=%v; want %d windowed entries", band, ok, noiseWindow)
	}
	if band.ThresholdPct != noiseFloorPct {
		t.Errorf("threshold = %v%%, want floor %v%% (stale entries leaked in)", band.ThresholdPct, noiseFloorPct)
	}
}

func TestCompareHistoryUsesPerScenarioThresholds(t *testing.T) {
	files := []*File{
		trajFile("2026-08-01T00:00:00Z", map[string]int64{"quiet": 1000, "noisy": 400}),
		trajFile("2026-08-02T00:00:00Z", map[string]int64{"quiet": 1000, "noisy": 1000}),
		trajFile("2026-08-03T00:00:00Z", map[string]int64{"quiet": 1000, "noisy": 1600, "short": 1000}),
	}
	cur := trajFile("2026-08-04T00:00:00Z", map[string]int64{
		"quiet": 1100, // +10% vs base — inside the flat 20% but beyond the 5% floor band
		"noisy": 2000, // +25% vs base 1600 — beyond flat 20% but far inside the 180% band
		"short": 1300, // +30% vs base — only 1 measurement, flat fallback applies
	})
	c := CompareHistory(files, cur)
	byName := map[string]ScenarioDiff{}
	for _, d := range c.Diffs {
		byName[d.Name] = d
	}

	if d := byName["quiet"]; !d.Regressed || d.ThresholdPct != noiseFloorPct {
		t.Errorf("quiet diff = %+v; want regressed at the %v%% floor band", d, noiseFloorPct)
	}
	// 400/1000/1600: stddev 600 → 60%% relative → 3σ = 180%%.
	if d := byName["noisy"]; d.Regressed || math.Abs(d.ThresholdPct-180) > 1e-9 {
		t.Errorf("noisy diff = %+v; want not regressed under a 180%% band", d)
	}
	if d := byName["short"]; !d.Regressed || d.ThresholdPct != wallRegressionPct {
		t.Errorf("short diff = %+v; want regressed at the flat %d%% fallback", d, wallRegressionPct)
	}

	// The base of the value comparison is still the newest entry.
	if c.BaseGenerated != "2026-08-03T00:00:00Z" {
		t.Errorf("base generatedAt = %s, want the newest trajectory entry", c.BaseGenerated)
	}

	// Rendering carries the per-scenario thresholds.
	var md, warn strings.Builder
	c.WriteMarkdown(&md)
	if !strings.Contains(md.String(), "| threshold |") || !strings.Contains(md.String(), ">180.0%") {
		t.Errorf("markdown missing per-scenario threshold column:\n%s", md.String())
	}
	c.WriteWarnings(&warn)
	if !strings.Contains(warn.String(), "threshold 5.0%") || strings.Contains(warn.String(), "noisy") {
		t.Errorf("warnings wrong:\n%s", warn.String())
	}
}

func TestCompareHistorySkipsCompositionDiffs(t *testing.T) {
	// Scenarios present on only one side must keep their composition
	// flags — a noise band for a renamed scenario must not resurrect it
	// as a regression.
	files := []*File{
		trajFile("2026-08-01T00:00:00Z", map[string]int64{"old": 1000}),
		trajFile("2026-08-02T00:00:00Z", map[string]int64{"old": 1000}),
		trajFile("2026-08-03T00:00:00Z", map[string]int64{"old": 1000}),
	}
	cur := trajFile("2026-08-04T00:00:00Z", map[string]int64{"new": 1000})
	c := CompareHistory(files, cur)
	byName := map[string]ScenarioDiff{}
	for _, d := range c.Diffs {
		byName[d.Name] = d
	}
	if d := byName["old"]; !d.OnlyInBase || d.Regressed {
		t.Errorf("removed scenario diff = %+v", d)
	}
	if d := byName["new"]; !d.OnlyInCurrent || d.Regressed {
		t.Errorf("added scenario diff = %+v", d)
	}
}

func TestCompareHistoryDropsCurrentEntry(t *testing.T) {
	// A suite run that writes its entry into the trajectory directory
	// before comparing finds itself there as the newest file. It must
	// be compared with the entry before it, under bands that leave it
	// out, not with itself at +0.0 %.
	files := []*File{
		trajFile("2026-08-01T00:00:00Z", map[string]int64{"s": 1000}),
		trajFile("2026-08-02T00:00:00Z", map[string]int64{"s": 1000}),
		trajFile("2026-08-03T00:00:00Z", map[string]int64{"s": 1000}),
	}
	cur := trajFile("2026-08-04T00:00:00Z", map[string]int64{"s": 1500})
	c := CompareHistory(append(files, cur), cur)
	if c.BaseGenerated != "2026-08-03T00:00:00Z" {
		t.Fatalf("baseline generatedAt = %s, want the entry before the current one", c.BaseGenerated)
	}
	d := c.Diffs[0]
	if math.Abs(d.WallPct-50) > 1e-9 || !d.Regressed || d.ThresholdPct != noiseFloorPct {
		t.Errorf("diff = %+v; want +50%% against the 1000 ns history, regressed at the %v%% floor band", d, noiseFloorPct)
	}

	// Only the current entry on file: nothing to compare against.
	c = CompareHistory([]*File{cur}, cur)
	if len(c.Diffs) != 1 || !c.Diffs[0].OnlyInCurrent || c.Diffs[0].Regressed {
		t.Errorf("self-only history diffs = %+v; want the scenario reported as new", c.Diffs)
	}
}
