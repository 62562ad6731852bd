package flood

import (
	"testing"

	"meg/internal/core"
	"meg/internal/spec"
)

// withSnapshotPath wraps factory so that a delta-capable model takes
// the given snapshot path whatever its churn: "full" hides StepDelta
// (struct{ core.Dynamics }), "delta" hides the model's ChurnHinter
// (struct{ core.DeltaDynamics }), and "" leaves the engines' choice in
// place. Models without StepDelta pass through unchanged.
func withSnapshotPath(factory Factory, path string) Factory {
	return func() core.Dynamics {
		d := factory()
		dd, ok := d.(core.DeltaDynamics)
		switch {
		case !ok || path == "":
			return d
		case path == "full":
			return struct{ core.Dynamics }{d}
		default:
			return struct{ core.DeltaDynamics }{dd}
		}
	}
}

// TestSnapshotDeltaIdenticalAcrossAllModels is the equivalence gate of
// the incremental snapshot path: on every model, a flooding campaign
// with the delta path forced must be byte-identical — trajectories and
// per-node arrival arrays included — to the full-rebuild campaign, at
// Parallelism 1 and 8 alike. Only the edge-MEG is delta-capable (at
// q = 0.5, where the engines would rebuild in full); the others pass
// through unchanged. This is the contract that lets the engines choose
// the path on their own.
func TestSnapshotDeltaIdenticalAcrossAllModels(t *testing.T) {
	for _, s := range allModelSpecs(t) {
		name := s.Model.Name
		full := runWithSnapshot(t, s, "full", 1, false)
		for _, par := range []int{1, 8} {
			delta := runWithSnapshot(t, s, "delta", par, false)
			campaignsEqual(t, name+"/delta-vs-full", full, delta)
		}
		if full.Incomplete == len(full.Trials) {
			t.Errorf("%s: every trial incomplete (vacuous comparison)", name)
		}
	}
}

// TestSnapshotDeltaIdenticalLowChurn covers the regimes the delta path
// is actually for — lazy lattice walks and low-churn edge chains —
// where most rounds rebuild only a sliver of the snapshot. The edge
// chain (2q·d̄ ≈ 0.5) is above the engines' crossover, so the delta
// path is forced here too.
func TestSnapshotDeltaIdenticalLowChurn(t *testing.T) {
	cases := []spec.Model{
		{Name: "geometric", N: 600, RFrac: 0.5, Jump: 0.05},
		{Name: "torus", N: 600, RFrac: 0.3, Jump: 0.1},
		{Name: "edge", N: 600, PhatMult: 2, Q: 0.02},
	}
	for _, m := range cases {
		s := spec.Spec{Model: m, Trials: 2, Sources: 3, Seed: 29}
		if _, err := s.Canonical(); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		full := runWithSnapshot(t, s, "full", 8, false)
		delta := runWithSnapshot(t, s, "delta", 8, false)
		campaignsEqual(t, m.Name+"/lowchurn", full, delta)
	}
}

// TestSnapshotDeltaIdenticalBatchedMulti covers the bit-parallel
// FloodMulti path under the delta snapshot engine.
func TestSnapshotDeltaIdenticalBatchedMulti(t *testing.T) {
	for _, s := range allModelSpecs(t) {
		s.Sources = 70 // spans two 64-wide groups
		full := runWithSnapshot(t, s, "full", 1, true)
		delta := runWithSnapshot(t, s, "delta", 8, true)
		campaignsEqual(t, s.Model.Name+"/batched-delta", full, delta)
	}
}

// TestSnapshotDeltaIdenticalProtocols closes the matrix over the
// gossip family: on every (model, protocol) pair the gossip engine
// run with the delta path forced must reproduce the full-rebuild campaign at
// Parallelism 1 and 8. Together with the reference-vs-kernel
// equivalence gate this pins delta × {all four protocols} × {P1, P8}
// to the oracle.
func TestSnapshotDeltaIdenticalProtocols(t *testing.T) {
	for _, s := range protocolSpecs(t) {
		label := s.Model.Name + "/" + s.Protocol.Name
		full := runProtocolOn(t, s, 1, "full")
		for _, par := range []int{1, 8} {
			delta := runProtocolOn(t, s, par, "delta")
			protocolCampaignsEqual(t, label+"/delta-vs-full", full, delta)
		}
	}
}

// TestSnapshotHintDoesNotChangeHash pins the retired hint: a spec that
// still carries snapshot, like one carrying parallelism, must hash as
// the spec without it.
func TestSnapshotHintDoesNotChangeHash(t *testing.T) {
	a := spec.Spec{Model: spec.Model{Name: "geometric", N: 512, RFrac: 0.5}}
	b := a
	b.Snapshot = "delta"
	b.Parallelism = 8
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("snapshot hint changed the content hash: %s vs %s", ha, hb)
	}
}
