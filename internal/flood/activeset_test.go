package flood

import (
	"testing"

	"meg/internal/core"
	"meg/internal/spec"
)

// runWithActiveSetFrac executes a flooding campaign with the active-set
// crossover pinned to frac (0 = pure complement scan, 1 = list from the
// first pull round); frac < 0 leaves the default crossover in place.
// path pins the snapshot path as in withSnapshotPath.
func runWithActiveSetFrac(t *testing.T, s spec.Spec, path string, frac float64, parallelism int) Campaign {
	t.Helper()
	if frac >= 0 {
		defer core.SetActiveSetFracForTest(frac)()
	}
	return runWithSnapshot(t, s, path, parallelism, false)
}

// TestActiveSetEquivalenceAllModels is the equivalence gate of the
// active-set pull kernel: on every one of the seven models, a campaign
// run with the active set forced on from the first pull round (frac 1)
// and one with it disabled entirely (frac 0, the pure complement scan)
// must be byte-identical — trajectories and per-node arrival arrays
// included — at Parallelism 1 and 8 alike. The default crossover must
// match both. This is the contract that keeps the crossover fraction an
// execution heuristic, never a semantic.
func TestActiveSetEquivalenceAllModels(t *testing.T) {
	for _, s := range allModelSpecs(t) {
		name := s.Model.Name
		baseline := runWithActiveSetFrac(t, s, "", 0, 1)
		for _, par := range []int{1, 8} {
			for _, frac := range []float64{1, -1} {
				got := runWithActiveSetFrac(t, s, "", frac, par)
				campaignsEqual(t, name+"/active-set", baseline, got)
			}
		}
		if baseline.Incomplete > 0 {
			t.Errorf("%s: equivalence case never completed (vacuous comparison)", name)
		}
	}
}

// TestActiveSetEquivalenceDelta covers the active set on the delta
// path, where the Mutable retires the informed rows once the list
// takes over: every model × Parallelism must still reproduce the
// complement-scan campaign byte for byte with the list forced on from
// the first pull round. The edge spec churns at q = 0.5, so the delta
// path is forced.
func TestActiveSetEquivalenceDelta(t *testing.T) {
	for _, s := range allModelSpecs(t) {
		name := s.Model.Name
		baseline := runWithActiveSetFrac(t, s, "delta", 0, 1)
		for _, par := range []int{1, 8} {
			got := runWithActiveSetFrac(t, s, "delta", 1, par)
			campaignsEqual(t, name+"/active-set-delta", baseline, got)
		}
	}
}

// TestActiveSetEquivalenceLossy covers the other consumer of the
// active set — lossy flooding's per-edge coin-flip scan — on every
// model: forced-on, forced-off and default crossover must agree on the
// kernel engine at Parallelism 1 and 8. The per-(node, round) RNG
// streams make the coin flips independent of scan order, which is what
// the list walk changes.
func TestActiveSetEquivalenceLossy(t *testing.T) {
	models := []string{"geometric", "torus", "edge", "waypoint", "billiard", "walkers", "iiddisk"}
	for _, m := range models {
		s := spec.Spec{
			Model:    spec.Model{Name: m, N: 500, RFrac: 0.5},
			Protocol: spec.Protocol{Name: "lossy", Loss: 0.25},
			Trials:   2,
			Sources:  2,
			Seed:     13,
		}
		if _, err := s.Canonical(); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		baseline := func() ProtocolCampaign {
			defer core.SetActiveSetFracForTest(0)()
			return runProtocolWith(t, s, 1)
		}()
		for _, par := range []int{1, 8} {
			for _, frac := range []float64{1, -1} {
				got := func() ProtocolCampaign {
					if frac >= 0 {
						defer core.SetActiveSetFracForTest(frac)()
					}
					return runProtocolWith(t, s, par)
				}()
				protocolCampaignsEqual(t, m+"/lossy-active-set", baseline, got)
			}
		}
	}
}

// TestActiveSetDeltaDenseEdge covers a dense edge-MEG (average degree
// ≈ 110) on the delta path: with the active set forced on from the
// first pull round, and at the default crossover, it must reproduce
// the complement-scan, full-rebuild campaign byte for byte, across
// several trials so the pooled Mutable is also reused between runs. At
// 2q·d̄ ≈ 11 the engines would rebuild in full, so the delta path is
// forced.
func TestActiveSetDeltaDenseEdge(t *testing.T) {
	s := spec.Spec{
		Model:     spec.Model{Name: "edge", N: 1024, PhatMult: 16, Q: 0.05},
		Trials:    3,
		Sources:   2,
		Seed:      17,
		MaxRounds: 30,
	}
	if _, err := s.Canonical(); err != nil {
		t.Fatal(err)
	}
	full := runWithActiveSetFrac(t, s, "full", 0, 1)
	for _, par := range []int{1, 8} {
		for _, frac := range []float64{1, -1} {
			delta := runWithActiveSetFrac(t, s, "delta", frac, par)
			campaignsEqual(t, "dense-edge/delta-vs-full", full, delta)
		}
	}
	if full.Incomplete > 0 {
		t.Errorf("dense-edge case never completed (vacuous comparison)")
	}
}
