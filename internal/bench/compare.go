package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// wallRegressionPct is the flat wall-clock regression threshold (in
// percent, sharded variant) past which a scenario is flagged when the
// trajectory is too short to estimate its noise. Comparisons warn —
// they never fail a build — because CI runner speed varies run to run.
const wallRegressionPct = 20

// Noise-band estimation: with enough trajectory a scenario's threshold
// comes from its own run-to-run scatter instead of the flat default —
// noisy scenarios stop crying wolf, quiet ones catch small regressions.
const (
	// noiseWindow is how many trailing entries feed the estimate.
	noiseWindow = 8
	// noiseMinEntries is the minimum number of measurements before the
	// estimate replaces the flat threshold.
	noiseMinEntries = 3
	// noiseSigmas scales the relative stddev into a threshold.
	noiseSigmas = 3.0
	// noiseFloorPct keeps the threshold from collapsing on eerily
	// stable scenarios — a sub-floor band would flag measurement jitter.
	noiseFloorPct = 5.0
)

// Load reads one BENCH file.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if f.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("bench: %s: schema version %d (want %d)", path, f.SchemaVersion, SchemaVersion)
	}
	return &f, nil
}

// LoadLatest returns the newest BENCH_*.json in dir, judged by the
// files' own generatedAt stamps (RFC 3339, so lexicographic order is
// chronological) — file mtimes are useless after a CI checkout.
func LoadLatest(dir string) (*File, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	var latest *File
	for _, p := range paths {
		f, err := Load(p)
		if err != nil {
			// A malformed trajectory entry shouldn't hide the rest.
			continue
		}
		if latest == nil || f.GeneratedAt > latest.GeneratedAt {
			latest = f
		}
	}
	if latest == nil {
		return nil, fmt.Errorf("bench: no readable BENCH_*.json in %s", dir)
	}
	return latest, nil
}

// ScenarioDiff is one scenario's baseline-vs-current comparison. Wall
// and ns/round figures come from each run's sharded variant (the
// configuration CI actually ships); the speedup column is the file's
// recorded serial/sharded ratio.
type ScenarioDiff struct {
	Name string
	// OnlyInBase/OnlyInCurrent flag scenarios the other run lacks
	// (suite composition changed).
	OnlyInBase    bool
	OnlyInCurrent bool

	BaseWallNS, CurWallNS         int64
	WallPct                       float64 // (cur-base)/base · 100
	BaseNSPerRound, CurNSPerRound float64
	NSPerRoundPct                 float64
	BaseSpeedup, CurSpeedup       float64
	// ThresholdPct is the regression threshold applied to this scenario:
	// its noise band when the trajectory supports one (CompareHistory),
	// the flat wallRegressionPct otherwise.
	ThresholdPct float64
	// Regressed reports a wall regression beyond ThresholdPct.
	Regressed bool
}

// Comparison is the scenario-by-scenario diff of two BENCH files.
type Comparison struct {
	BaseSHA, CurSHA             string
	BaseGenerated, CurGenerated string
	Diffs                       []ScenarioDiff
}

// shardedVariant returns a result's last variant — the sharded run —
// and whether the result carries any variants at all (a truncated
// trajectory entry must degrade to "incomparable", never crash the
// advisory comparison).
func shardedVariant(r Result) (Variant, bool) {
	if len(r.Variants) == 0 {
		return Variant{}, false
	}
	return r.Variants[len(r.Variants)-1], true
}

// Compare diffs the current suite run against a baseline, matching
// scenarios by name. Scenarios present on only one side are reported
// as such rather than dropped, so suite composition changes stay
// visible in the trajectory.
func Compare(base, cur *File) Comparison {
	c := Comparison{
		BaseSHA: base.GitSHA, CurSHA: cur.GitSHA,
		BaseGenerated: base.GeneratedAt, CurGenerated: cur.GeneratedAt,
	}
	baseByName := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseByName[r.Name] = r
	}
	seen := make(map[string]bool, len(cur.Results))
	for _, r := range cur.Results {
		seen[r.Name] = true
		b, ok := baseByName[r.Name]
		if !ok {
			c.Diffs = append(c.Diffs, ScenarioDiff{Name: r.Name, OnlyInCurrent: true})
			continue
		}
		bv, bok := shardedVariant(b)
		cv, cok := shardedVariant(r)
		if !bok || !cok {
			// One side has no measurements: surface the scenario as
			// present-only-where-measured instead of comparing.
			c.Diffs = append(c.Diffs, ScenarioDiff{Name: r.Name, OnlyInCurrent: !bok, OnlyInBase: !cok})
			continue
		}
		d := ScenarioDiff{
			Name:       r.Name,
			BaseWallNS: bv.WallNS, CurWallNS: cv.WallNS,
			BaseNSPerRound: bv.NSPerRound, CurNSPerRound: cv.NSPerRound,
			BaseSpeedup: b.SpeedupVsSerial, CurSpeedup: r.SpeedupVsSerial,
		}
		if bv.WallNS > 0 {
			d.WallPct = 100 * float64(cv.WallNS-bv.WallNS) / float64(bv.WallNS)
		}
		if bv.NSPerRound > 0 {
			d.NSPerRoundPct = 100 * (cv.NSPerRound - bv.NSPerRound) / bv.NSPerRound
		}
		d.ThresholdPct = wallRegressionPct
		d.Regressed = d.WallPct > d.ThresholdPct
		c.Diffs = append(c.Diffs, d)
	}
	var missing []string
	for name := range baseByName {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		c.Diffs = append(c.Diffs, ScenarioDiff{Name: name, OnlyInBase: true})
	}
	return c
}

// NoiseBand is one scenario's wall-clock scatter over the trailing
// trajectory window.
type NoiseBand struct {
	// Entries is how many measurements fed the estimate.
	Entries int
	// MeanWallNS / StddevWallNS describe the window's sharded wall
	// times.
	MeanWallNS   float64
	StddevWallNS float64
	// ThresholdPct is the derived regression threshold:
	// max(noiseFloorPct, noiseSigmas · 100 · stddev/mean).
	ThresholdPct float64
}

// NoiseBands estimates a per-scenario noise band from a chronological
// trajectory (as LoadAll returns): the relative stddev of the sharded
// wall time over the last noiseWindow entries that measured the
// scenario. Scenarios with fewer than noiseMinEntries measurements are
// omitted — callers fall back to the flat threshold for those.
func NoiseBands(files []*File) map[string]NoiseBand {
	walls := make(map[string][]float64)
	for _, f := range files {
		for _, r := range f.Results {
			v, ok := shardedVariant(r)
			if !ok || v.WallNS <= 0 {
				continue
			}
			walls[r.Name] = append(walls[r.Name], float64(v.WallNS))
		}
	}
	bands := make(map[string]NoiseBand)
	for name, w := range walls {
		if len(w) > noiseWindow {
			w = w[len(w)-noiseWindow:]
		}
		if len(w) < noiseMinEntries {
			continue
		}
		var sum float64
		for _, x := range w {
			sum += x
		}
		mean := sum / float64(len(w))
		var sq float64
		for _, x := range w {
			sq += (x - mean) * (x - mean)
		}
		// Sample stddev: the window is a sample of the scenario's noise
		// process, not the whole population.
		stddev := math.Sqrt(sq / float64(len(w)-1))
		threshold := noiseSigmas * 100 * stddev / mean
		if threshold < noiseFloorPct {
			threshold = noiseFloorPct
		}
		bands[name] = NoiseBand{
			Entries:      len(w),
			MeanWallNS:   mean,
			StddevWallNS: stddev,
			ThresholdPct: threshold,
		}
	}
	return bands
}

// CompareHistory diffs the current run against the newest trajectory
// entry, like Compare, but flags regressions against each scenario's
// own noise band when the trajectory is long enough to estimate one.
// files must be chronological (LoadAll order). Entries with cur's
// GitSHA and GeneratedAt are cur itself, written into the trajectory
// directory before the comparison: they are dropped before the
// baseline is picked and the bands are estimated. With nothing left,
// every scenario reads as new.
func CompareHistory(files []*File, cur *File) Comparison {
	var history []*File
	for _, f := range files {
		if f.GitSHA != cur.GitSHA || f.GeneratedAt != cur.GeneratedAt {
			history = append(history, f)
		}
	}
	if len(history) == 0 {
		return Compare(&File{}, cur)
	}
	c := Compare(history[len(history)-1], cur)
	bands := NoiseBands(history)
	for i := range c.Diffs {
		d := &c.Diffs[i]
		if d.OnlyInBase || d.OnlyInCurrent {
			continue
		}
		if band, ok := bands[d.Name]; ok {
			d.ThresholdPct = band.ThresholdPct
			d.Regressed = d.WallPct > d.ThresholdPct
		}
	}
	return c
}

// Regressions returns the names of scenarios whose wall time regressed
// beyond the threshold.
func (c Comparison) Regressions() []string {
	var out []string
	for _, d := range c.Diffs {
		if d.Regressed {
			out = append(out, d.Name)
		}
	}
	return out
}

// WriteMarkdown renders the comparison as a GitHub-flavored markdown
// table — the payload the CI bench job appends to its job summary.
// Regression annotations are a separate stream (WriteWarnings), so the
// summary never carries literal `::warning::` text.
func (c Comparison) WriteMarkdown(w io.Writer) {
	fmt.Fprintf(w, "### Bench comparison: %s vs baseline %s (%s)\n\n", c.CurSHA, c.BaseSHA, c.BaseGenerated)
	fmt.Fprintf(w, "| scenario | wall | Δwall | threshold | ns/round | Δns/round | speedup |\n")
	fmt.Fprintf(w, "|---|---:|---:|---:|---:|---:|---:|\n")
	for _, d := range c.Diffs {
		switch {
		case d.OnlyInCurrent:
			fmt.Fprintf(w, "| %s | — | new scenario | — | — | — | — |\n", d.Name)
		case d.OnlyInBase:
			fmt.Fprintf(w, "| %s | — | removed | — | — | — | — |\n", d.Name)
		default:
			flag := ""
			if d.Regressed {
				flag = " ⚠"
			}
			fmt.Fprintf(w, "| %s | %.1f ms | %+.1f%%%s | >%.1f%% | %.0f | %+.1f%% | %.2fx → %.2fx |\n",
				d.Name, float64(d.CurWallNS)/1e6, d.WallPct, flag, d.ThresholdPct,
				d.CurNSPerRound, d.NSPerRoundPct, d.BaseSpeedup, d.CurSpeedup)
		}
	}
	fmt.Fprintln(w)
}

// WriteWarnings emits one `::warning::` workflow-command line per
// regression — interpreted as an annotation by GitHub Actions, a plain
// informative line elsewhere; never an error either way.
func (c Comparison) WriteWarnings(w io.Writer) {
	for _, d := range c.Diffs {
		if d.Regressed {
			fmt.Fprintf(w, "::warning title=bench regression::%s wall %+.1f%% (threshold %.1f%%) vs %s (%.1f ms → %.1f ms)\n",
				d.Name, d.WallPct, d.ThresholdPct, c.BaseSHA, float64(d.BaseWallNS)/1e6, float64(d.CurWallNS)/1e6)
		}
	}
}
