package core

import (
	"math"
	"testing"

	"meg/internal/edgemeg"
	"meg/internal/geommeg"
	"meg/internal/graph"
	"meg/internal/rng"
)

// edgeModel returns the edge-MEG a spec {n, phatmult, q} builds:
// p̂ = phatmult·ln n/n, birth rate p = q·p̂/(1−p̂).
func edgeModel(n int, phatMult, q float64) *edgemeg.Model {
	pHat := phatMult * math.Log(float64(n)) / float64(n)
	return edgemeg.MustNew(edgemeg.Config{N: n, P: q * pHat / (1 - pHat), Q: q})
}

// TestSnapshotPathRule pins which snapshot path the engines take for
// the configurations the bench and perfbench run: the delta path on low
// churn (2q·d̄ below the crossover) and on a DeltaDynamics without a
// churn hint, the full rebuild on every q = 0.5 workload and on
// dynamics without StepDelta.
func TestSnapshotPathRule(t *testing.T) {
	frozen := edgemeg.MustNew(edgemeg.Config{N: 64, Init: edgemeg.InitComplete})
	seq := &deltaSequence{Sequence: NewSequence(graph.FromEdges(3, [][2]int{{0, 1}})), deltas: make([]graph.Delta, 1)}
	for _, tc := range []struct {
		name  string
		d     Dynamics
		delta bool
	}{
		{"edge-lowchurn-8k", edgeModel(8192, 0.5, 0.002), true},
		{"delta-edge-64k-lowchurn", edgeModel(65536, 0.5, 0.002), true},
		{"frozen chain p=q=0", frozen, true},
		{"DeltaDynamics without hint", seq, true},
		{"serve-mix edge n=1024", edgeModel(1024, 4, 0.5), false},
		{"edge-sparse-64k", edgeModel(65536, 2, 0.5), false},
		{"edge-dense-16k", edgeModel(16384, 16, 0.5), false},
		{"proto-pushpull-edge-16k", edgeModel(16384, 4, 0.5), false},
		{"geometric (no StepDelta)", geommeg.MustNew(geommeg.Config{N: 100, R: 3, MoveRadius: 1}), false},
		{"q=0.5 edge with StepDelta hidden", struct{ Dynamics }{edgeModel(1024, 4, 0.5)}, false},
		{"q=0.5 edge with the hint hidden", struct{ DeltaDynamics }{edgeModel(1024, 4, 0.5)}, true},
	} {
		if got := newSnapshotter(tc.d, 1, nil).dd != nil; got != tc.delta {
			t.Errorf("%s: delta path = %v, want %v", tc.name, got, tc.delta)
		}
	}
}

// TestExpectedChurn checks the edge-MEG's closed-form churn against
// the mean over a stationary chain, and 2·ExpectedChurn/n against
// 2q·d̄.
func TestExpectedChurn(t *testing.T) {
	m := edgeModel(2048, 2, 0.05)
	var h ChurnHinter = m
	if got, want := 2*h.ExpectedChurn()/2048, 2*0.05*m.ExpectedDegree(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("2·ExpectedChurn/n = %v, want 2q·d̄ = %v", got, want)
	}
	m.Reset(rng.New(3))
	const steps = 200
	total := 0
	for i := 0; i < steps; i++ {
		d := m.StepDelta()
		total += len(d.Births) + len(d.Deaths)
	}
	if mean, want := float64(total)/steps, h.ExpectedChurn(); math.Abs(mean-want) > 0.05*want {
		t.Fatalf("mean churn %.1f per step, ExpectedChurn %.1f", mean, want)
	}
}
