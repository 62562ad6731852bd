package lint

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// selfTestCase pins one analyzer's exact finding count over its
// fixture corpus. The counts are load-bearing: a framework regression
// that silently drops findings (or a fixture edit that adds one)
// changes a count and fails the self-test, independently of the
// want-comment harness that go test runs. CI executes `meglint
// -selftest` with the same binary that gates the tree, so "the gate
// still sees what it is supposed to see" is itself gated.
type selfTestCase struct {
	analyzer string
	pkgs     []string
	want     int
}

// selfTests is the corpus: every analyzer appears at least once with a
// firing fixture and (where one exists) a silent one.
var selfTests = []selfTestCase{
	{"mapiter", []string{"meg/internal/core"}, 3},
	{"mapiter", []string{"meg/internal/stats"}, 0},
	{"rngdiscipline", []string{"meg/internal/protocol"}, 7},
	{"rngdiscipline", []string{"meg/internal/stats"}, 0},
	{"wallclock", []string{"meg/internal/graph"}, 3},
	{"wallclock", []string{"meg/internal/serve"}, 0},
	{"wallclock", []string{"meg/cmd/demo"}, 0},
	{"rawgo", []string{"meg/internal/mobility"}, 5},
	{"rawgo", []string{"meg/internal/par"}, 0},
	{"hashhints", []string{"hashspec_clean"}, 0},
	{"hashhints", []string{"hashspec_drift"}, 3},
	{"metricshooks", []string{"meg/internal/expansion"}, 5},
	{"metricshooks", []string{"meg/internal/serve"}, 0},
	{"ordertaint", []string{"meg/internal/ingest", "meg/internal/relay", "meg/internal/driver", "meg/internal/edgemeg"}, 3},
	{"shardwrite", []string{"meg/internal/walk"}, 3},
	{"staledirective", []string{"meg/internal/celldelta"}, 2},
}

// SelfTest runs the fixture corpus under internal/lint/testdata/src of
// the module rooted at moduleRoot and verifies every analyzer's exact
// finding count, writing one line per case to w. It returns an error
// describing the first few mismatches, or nil when the corpus checks
// out.
func SelfTest(w io.Writer, moduleRoot string) error {
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}

	loader, err := NewLoader(moduleRoot)
	if err != nil {
		return err
	}
	loader.TestSrc = filepath.Join(moduleRoot, "internal", "lint", "testdata", "src")

	var bad []string
	for _, c := range selfTests {
		a, ok := byName[c.analyzer]
		if !ok {
			return fmt.Errorf("selftest: unknown analyzer %q", c.analyzer)
		}
		var pkgs []*Package
		for _, path := range c.pkgs {
			dir := filepath.Join(loader.TestSrc, filepath.FromSlash(path))
			pkg, err := loader.Load(path, dir)
			if err != nil {
				return fmt.Errorf("selftest: load %s: %w", path, err)
			}
			for _, terr := range pkg.TypeErrors {
				bad = append(bad, fmt.Sprintf("%s: fixture does not type-check: %v", path, terr))
			}
			pkgs = append(pkgs, pkg)
		}
		diags, err := RunAnalyzers(pkgs, []*Analyzer{a})
		if err != nil {
			return fmt.Errorf("selftest: %s: %w", c.analyzer, err)
		}
		status := "ok"
		if len(diags) != c.want {
			status = "MISMATCH"
			bad = append(bad, fmt.Sprintf("%s over %v: %d finding(s), want %d", c.analyzer, c.pkgs, len(diags), c.want))
		}
		fmt.Fprintf(w, "%-14s %-60s %d finding(s), want %d: %s\n", c.analyzer, strings.Join(c.pkgs, ","), len(diags), c.want, status)
	}
	if len(bad) > 0 {
		return fmt.Errorf("selftest: %d case(s) failed:\n  %s", len(bad), strings.Join(bad, "\n  "))
	}
	return nil
}
