package dynamicstest

import (
	"testing"

	"meg/internal/core"
	"meg/internal/spec"
)

// modelCases covers every model the spec factory knows, at a size
// small enough to exercise many steps, plus the lazy lattice variants
// (few movers per round), a low-churn edge-MEG for the incremental
// path, and a geometric grid coarse enough to be a single cell.
var modelCases = []struct {
	name string
	m    spec.Model
}{
	{"geometric", spec.Model{Name: "geometric", N: 300, RFrac: 0.5}},
	{"geometric-lazy", spec.Model{Name: "geometric", N: 300, RFrac: 0.5, Jump: 0.1}},
	{"torus", spec.Model{Name: "torus", N: 300, RFrac: 0.5}},
	{"torus-lazy", spec.Model{Name: "torus", N: 300, RFrac: 0.3, Jump: 0.05}},
	{"edge", spec.Model{Name: "edge", N: 300}},
	{"edge-lowchurn", spec.Model{Name: "edge", N: 300, PhatMult: 2, Q: 0.02}},
	{"waypoint", spec.Model{Name: "waypoint", N: 250, RFrac: 0.5}},
	{"billiard", spec.Model{Name: "billiard", N: 250, RFrac: 0.5}},
	{"walkers", spec.Model{Name: "walkers", N: 250, RFrac: 0.5}},
	{"iiddisk", spec.Model{Name: "iiddisk", N: 250, RFrac: 0.5}},
	{"geometric-brute", spec.Model{Name: "geometric", N: 40, Mult: 3, RFrac: 0.5}},
}

func modelFactory(t *testing.T, name string, m spec.Model) func() core.Dynamics {
	t.Helper()
	s := spec.Spec{Model: m}
	factory, _, err := s.NewFactory()
	if err != nil {
		t.Fatalf("%s: NewFactory: %v", name, err)
	}
	return factory
}

// TestGraphContractAllModels runs the aliasing/delta conformance check
// for every model case.
func TestGraphContractAllModels(t *testing.T) {
	for _, tc := range modelCases {
		CheckGraphContract(t, tc.name, modelFactory(t, tc.name, tc.m), 97, 12)
	}
}

// TestSpreadContractAllModels runs the snapshot-free spread check for
// every model case that implements core.Spreader, over a 10-step chain.
func TestSpreadContractAllModels(t *testing.T) {
	for _, tc := range modelCases {
		CheckSpreadContract(t, tc.name, modelFactory(t, tc.name, tc.m), 97, 10)
	}
}

// geometricFamily lists the factory models that flood through the
// shared cell grid.
var geometricFamily = []string{"geometric", "torus", "waypoint", "billiard", "walkers", "iiddisk"}

// TestSpreaderModels pins which factory models flood without a
// snapshot, so the spread check above is never vacuous for them.
func TestSpreaderModels(t *testing.T) {
	for _, name := range geometricFamily {
		if _, ok := modelFactory(t, name, spec.Model{Name: name, N: 128, RFrac: 0.5})().(core.Spreader); !ok {
			t.Errorf("%s: does not implement core.Spreader", name)
		}
	}
}

// TestDeltaCapabilityMatrix pins which factory models speak the
// incremental snapshot protocol: the edge-MEG does, and the geometric
// family does not (it floods through its cell grid, and a snapshot=delta
// hint falls back to full rebuilds there).
func TestDeltaCapabilityMatrix(t *testing.T) {
	for _, name := range append([]string{"edge"}, geometricFamily...) {
		_, delta := modelFactory(t, name, spec.Model{Name: name, N: 128, RFrac: 0.5})().(core.DeltaDynamics)
		if want := name == "edge"; delta != want {
			t.Errorf("%s: implements core.DeltaDynamics = %v, want %v", name, delta, want)
		}
	}
}
