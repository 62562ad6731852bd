package flood

import (
	"sync"
	"testing"

	"meg/internal/core"
	"meg/internal/metrics"
	"meg/internal/spec"
)

// recorderSet hands each trial its own PhaseRecorder and remembers them
// all, so tests can both attach hooks and assert they actually fired.
type recorderSet struct {
	mu   sync.Mutex
	recs []*metrics.PhaseRecorder
}

func (rs *recorderSet) factory(trial int) core.PhaseHook {
	pr := metrics.NewPhaseRecorder(nil)
	rs.mu.Lock()
	rs.recs = append(rs.recs, pr)
	rs.mu.Unlock()
	return pr
}

func (rs *recorderSet) totals() metrics.PhaseTotals {
	var total metrics.PhaseTotals
	rs.mu.Lock()
	for _, pr := range rs.recs {
		total.Merge(pr.Totals())
	}
	rs.mu.Unlock()
	return total
}

// runHooked executes a flooding campaign with per-trial phase
// recorders attached and returns the campaign plus the merged totals.
func runHooked(t *testing.T, s spec.Spec, path string, parallelism int, batch bool) (Campaign, metrics.PhaseTotals) {
	t.Helper()
	s.Parallelism = parallelism
	s.Engine.BatchSources = batch
	factory, _, err := s.NewFactory()
	if err != nil {
		t.Fatalf("NewFactory: %v", err)
	}
	opt, err := OptionsFromSpec(s)
	if err != nil {
		t.Fatalf("OptionsFromSpec: %v", err)
	}
	var rs recorderSet
	opt.Hook = rs.factory
	camp := Run(withSnapshotPath(factory, path), opt)
	return camp, rs.totals()
}

// TestHooksPreserveDeterminism is the observability layer's core
// contract: attaching phase hooks must not change a single byte of the
// results, at any parallelism, batched or not. Hooks observe — they
// never feed back into RNG draws or traversal order.
func TestHooksPreserveDeterminism(t *testing.T) {
	s := allModelSpecs(t)[0] // geometric; the full model sweep runs hookless in determinism_test.go
	for _, cse := range []struct {
		label string
		par   int
		batch bool
	}{
		{"P1", 1, false},
		{"P8", 8, false},
		{"P1/batched", 1, true},
		{"P8/batched", 8, true},
	} {
		bare := runWithParallelism(t, s, cse.par, cse.batch)
		hooked, totals := runHooked(t, s, "", cse.par, cse.batch)
		campaignsEqual(t, "hooked/"+cse.label, bare, hooked)
		if totals.Rounds == 0 {
			t.Errorf("%s: hooks attached but recorded no rounds (vacuous comparison)", cse.label)
		}
		if totals.KernelNS <= 0 || totals.SnapshotNS <= 0 {
			t.Errorf("%s: phase spans empty: kernel=%dns snapshot=%dns", cse.label, totals.KernelNS, totals.SnapshotNS)
		}
	}
	// Cross-parallelism with hooks on both sides: still identical.
	h1, _ := runHooked(t, s, "", 1, false)
	h8, _ := runHooked(t, s, "", 8, false)
	campaignsEqual(t, "hooked/P1-vs-P8", h1, h8)
}

// TestHooksPreserveDeterminismDeltaSnapshot covers the incremental
// snapshot path, whose step/delta-apply spans are distinct phases. The
// edge spec churns at q = 0.5, where the engines would rebuild in full,
// so the delta path is forced.
func TestHooksPreserveDeterminismDeltaSnapshot(t *testing.T) {
	s := allModelSpecs(t)[2] // edge: churn-native, exercises StepDelta
	bare := runWithSnapshot(t, s, "delta", 8, false)
	hooked, totals := runHooked(t, s, "delta", 8, false)
	campaignsEqual(t, "hooked/delta", bare, hooked)
	if totals.DeltaApplyNS <= 0 {
		t.Errorf("delta path recorded no delta-apply time: %+v", totals)
	}
}

// TestHooksPreserveDeterminismGossip runs the push-pull kernel engine
// hooked and hookless at both parallelisms.
func TestHooksPreserveDeterminismGossip(t *testing.T) {
	s := allModelSpecs(t)[0]
	s.Protocol = spec.Protocol{Name: "push-pull"}
	run := func(par int, hook func(int) core.PhaseHook) ProtocolCampaign {
		s.Parallelism = par
		factory, _, err := s.NewFactory()
		if err != nil {
			t.Fatalf("NewFactory: %v", err)
		}
		opt, err := ProtocolOptionsFromSpec(s)
		if err != nil {
			t.Fatalf("ProtocolOptionsFromSpec: %v", err)
		}
		opt.Hook = hook
		return RunProtocol(factory, opt)
	}
	for _, par := range []int{1, 8} {
		var rs recorderSet
		bare := run(par, nil)
		hooked := run(par, rs.factory)
		protocolCampaignsEqual(t, "gossip/hooked", bare, hooked)
		if rs.totals().Rounds == 0 {
			t.Errorf("par=%d: gossip hooks recorded no rounds", par)
		}
	}
}
