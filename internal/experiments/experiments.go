// Package experiments implements the paper-reproduction suite: one
// experiment per theorem/claim of the paper (E1–E13, indexed in
// DESIGN.md). Every experiment simulates the exact stochastic process
// the theorem is about, measures the bounded quantity, evaluates the
// theorem's formula, and reports both a human-readable table and
// machine-checkable shape assertions.
//
// Experiments are deterministic given (Scale, Seed) and run their
// Monte Carlo repetitions in parallel through internal/sweep.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"meg/internal/core"
	"meg/internal/spec"
	"meg/internal/stats"
	"meg/internal/table"
)

// Scale selects the experiment size/accuracy trade-off.
type Scale int

const (
	// Quick is sized for CI: seconds per experiment, loose checks.
	Quick Scale = iota
	// Standard is the default for interactive runs: tens of seconds.
	Standard
	// Full is the EXPERIMENTS.md configuration: minutes, widest ranges.
	Full
)

// String returns the scale's flag spelling.
func (s Scale) String() string {
	switch s {
	case Quick:
		return "quick"
	case Standard:
		return "standard"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// ParseScale converts a flag value into a Scale.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "quick", "q":
		return Quick, nil
	case "standard", "std", "s":
		return Standard, nil
	case "full", "f":
		return Full, nil
	default:
		return Quick, fmt.Errorf("experiments: unknown scale %q (want quick|standard|full)", s)
	}
}

// Params carries the run parameters every experiment receives.
type Params struct {
	Scale   Scale
	Seed    uint64
	Workers int
	// Parallelism is the intra-trial worker count of the sharded
	// flooding engine and model snapshot builds (0/1 = serial). It is
	// result-equivalent: it only changes speed.
	Parallelism int
}

// FloodOptions returns the flooding engine options experiments thread
// into their core.FloodOpt and flood.Run calls.
func (p Params) FloodOptions() core.FloodOptions {
	return core.FloodOptions{Parallelism: p.Parallelism}
}

// ParamsFromSpec is the spec-driven constructor: it maps an experiment
// spec (experiment ID + scale + seed policy) onto run parameters. The
// experiment ID itself is resolved by the caller via ByID.
func ParamsFromSpec(s spec.Spec) (Params, error) {
	c, err := s.Canonical()
	if err != nil {
		return Params{}, err
	}
	if c.Experiment == "" {
		return Params{}, fmt.Errorf("experiments: spec names no experiment")
	}
	scale, err := ParseScale(c.Scale)
	if err != nil {
		return Params{}, err
	}
	seed, err := c.EffectiveSeed()
	if err != nil {
		return Params{}, err
	}
	return Params{Scale: scale, Seed: seed, Workers: c.Workers, Parallelism: c.Parallelism}, nil
}

// Check is one machine-verifiable shape assertion derived from a
// theorem (e.g. "measured ≤ bound in every trial", "ratio spread ≤ 2").
type Check struct {
	Name   string
	Pass   bool
	Detail string
}

// Report is the outcome of one experiment.
type Report struct {
	// ID is the experiment identifier (e.g. "E4").
	ID string
	// Title names the paper result being reproduced.
	Title string
	// Tables holds the result tables (at least one).
	Tables []*table.Table
	// Checks holds the shape assertions.
	Checks []Check
	// Notes holds free-form commentary (parameter conventions,
	// substitutions, caveats).
	Notes []string
	// Metrics holds the experiment's headline numeric results, used by
	// the bench harness's ReportMetric output.
	Metrics map[string]float64
}

// reportJSON is the wire form of a Report; Metrics values pass through
// stats.NullableFloat so NaN/Inf (legitimate for, say, an unfit slope)
// encode as null instead of failing the encoder.
type reportJSON struct {
	ID      string              `json:"id"`
	Title   string              `json:"title"`
	Tables  []*table.Table      `json:"tables"`
	Checks  []Check             `json:"checks"`
	Notes   []string            `json:"notes,omitempty"`
	Metrics map[string]*float64 `json:"metrics,omitempty"`
	Passed  bool                `json:"passed"`
}

// MarshalJSON implements json.Marshaler.
func (r *Report) MarshalJSON() ([]byte, error) {
	j := reportJSON{
		ID: r.ID, Title: r.Title, Tables: r.Tables,
		Checks: r.Checks, Notes: r.Notes, Passed: r.Passed(),
	}
	if r.Metrics != nil {
		j.Metrics = make(map[string]*float64, len(r.Metrics))
		for k, v := range r.Metrics {
			j.Metrics[k] = stats.NullableFloat(v)
		}
	}
	return json.Marshal(j)
}

// UnmarshalJSON implements json.Unmarshaler (null metrics become NaN).
func (r *Report) UnmarshalJSON(data []byte) error {
	var j reportJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*r = Report{ID: j.ID, Title: j.Title, Tables: j.Tables, Checks: j.Checks, Notes: j.Notes}
	if j.Metrics != nil {
		r.Metrics = make(map[string]float64, len(j.Metrics))
		for k, v := range j.Metrics {
			r.Metrics[k] = stats.FloatFromNullable(v)
		}
	}
	return nil
}

// Passed reports whether every check passed.
func (r *Report) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// WriteText renders the report for terminals and EXPERIMENTS.md.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	for _, t := range r.Tables {
		fmt.Fprintln(w)
		_ = t.WriteText(w)
	}
	fmt.Fprintln(w)
	for _, c := range r.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(w, "   [%s] %s — %s\n", status, c.Name, c.Detail)
	}
}

// Experiment is one runnable entry of the suite.
type Experiment struct {
	ID    string
	Title string
	Run   func(Params) *Report
}

// All returns the full suite in index order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Lemma 2.4 / Theorem 2.5: expansion ⇒ flooding bound (synthetic MEGs)", E1GeneralBound},
		{"E2", "Claim 1: cell occupancy concentration in stationary geometric-MEG", E2CellOccupancy},
		{"E3", "Theorem 3.2: node expansion of stationary geometric-MEG", E3GeometricExpansion},
		{"E4", "Theorem 3.4 + Corollary 3.6: flooding time Θ(√n/R) in geometric-MEG", E4GeometricScaling},
		{"E5", "Theorem 3.5: flooding lower bound √n/(2(R+2r)) and move-radius effect", E5GeometricLower},
		{"E6", "Perfect simulation: stationarity of geometric-MEG snapshots", E6Stationarity},
		{"E7", "Theorem 4.1: node expansion of stationary edge-MEG (G(n,p̂))", E7EdgeExpansion},
		{"E8", "Theorem 4.3 + Corollary 4.5: flooding time Θ(log n/log(np̂)) in edge-MEG", E8EdgeScaling},
		{"E9", "Theorem 4.4: per-round growth ≤ 2np̂ in edge-MEG", E9EdgeGrowth},
		{"E10", "Stationary vs worst-case gap in edge-MEG (Section 1)", E10Gap},
		{"E11", "Further mobility models: same Θ(√n/R) flooding shape", E11MobilityModels},
		{"E12", "Observation 3.3: density scaling R ≥ c√(log n/δ)", E12Density},
		{"E13", "Sub-threshold ablation: mobility speeds up flooding (Section 5 / [11])", E13SubThreshold},
		{"E14", "Section 5: flooding time ≈ diameter of the static stationary graph", E14FloodVsDiameter},
		{"E15", "Extension [4]: parsimonious flooding with k-round budgets", E15Parsimonious},
		{"E16", "Flooding as the baseline for broadcast protocols (Section 1 framing)", E16Protocols},
		{"E17", "Connectivity-regime validation behind Theorems 3.4/4.3", E17Connectivity},
		{"E18", "Mean-field trajectory predictors vs simulated flooding", E18MeanField},
		{"E19", "Uniformity of the stationary distribution: where the assumption binds", E19Uniformity},
		{"E20", "Flooding under message loss: graceful degradation", E20Faults},
	}
}

// ByID returns the experiment with the given (case-insensitive) ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// pick returns the value matching the scale.
func pick[T any](s Scale, quick, standard, full T) T {
	switch s {
	case Standard:
		return standard
	case Full:
		return full
	default:
		return quick
	}
}

// b2f encodes a boolean as a 0/1 metric value.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// boolCheck builds a Check from a condition and a formatted detail.
func boolCheck(name string, pass bool, format string, args ...any) Check {
	return Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)}
}
