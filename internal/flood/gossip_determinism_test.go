package flood

import (
	"testing"

	"meg/internal/core"
	"meg/internal/protocol"
	"meg/internal/rng"
	"meg/internal/spec"
	"meg/internal/sweep"
)

// protocolSpecs builds one small spec per (model, protocol) pair — all
// seven models crossed with the four gossip-family protocols.
func protocolSpecs(t *testing.T) []spec.Spec {
	t.Helper()
	models := []string{"geometric", "torus", "edge", "waypoint", "billiard", "walkers", "iiddisk"}
	protos := []spec.Protocol{
		{Name: "push"},
		{Name: "push-pull"},
		{Name: "probabilistic", Beta: 0.8},
		{Name: "lossy", Loss: 0.25},
	}
	var specs []spec.Spec
	for _, m := range models {
		for _, p := range protos {
			s := spec.Spec{
				Model:    spec.Model{Name: m, N: 500, RFrac: 0.5},
				Protocol: p,
				Trials:   2,
				Sources:  2,
				Seed:     13,
			}
			if _, err := s.Canonical(); err != nil {
				t.Fatalf("%s/%s: %v", m, p.Name, err)
			}
			specs = append(specs, s)
		}
	}
	return specs
}

// runProtocolWith executes a spec's protocol campaign on the gossip
// engine with the given intra-trial parallelism.
func runProtocolWith(t *testing.T, s spec.Spec, parallelism int) ProtocolCampaign {
	t.Helper()
	return runProtocolOn(t, s, parallelism, "")
}

// runProtocolOn is runProtocolWith with the snapshot path pinned as in
// withSnapshotPath ("" leaves the engines' choice in place).
func runProtocolOn(t *testing.T, s spec.Spec, parallelism int, path string) ProtocolCampaign {
	t.Helper()
	s.Parallelism = parallelism
	factory, opt := protocolSetup(t, s)
	return RunProtocol(withSnapshotPath(factory, path), opt)
}

// protocolSetup builds a protocol spec's factory and campaign options.
func protocolSetup(t *testing.T, s spec.Spec) (Factory, ProtocolOptions) {
	t.Helper()
	factory, _, err := s.NewFactory()
	if err != nil {
		t.Fatalf("NewFactory: %v", err)
	}
	opt, err := ProtocolOptionsFromSpec(s)
	if err != nil {
		t.Fatalf("ProtocolOptionsFromSpec: %v", err)
	}
	return factory, opt
}

// runReferenceCampaign is RunProtocol with every run on the per-node
// reference implementation in internal/protocol. It mirrors
// RunProtocolContext's use of randomness — one sweep stream per trial,
// the extra sources drawn first, then a Reset from r.Split() and a run
// drawing from r for each source — and its worst-source choice, so the
// engine must reproduce it on every field the reference computes.
func runReferenceCampaign(t *testing.T, s spec.Spec) ProtocolCampaign {
	t.Helper()
	factory, opt := protocolSetup(t, s)
	ref, err := protocol.ByName(opt.Protocol, opt.Beta, opt.Loss)
	if err != nil {
		t.Fatalf("protocol.ByName: %v", err)
	}
	n := factory().N()
	opt = opt.withDefaults(n)
	trials := sweep.Repeat(opt.Trials, opt.Seed, opt.Workers, func(rep int, r *rng.RNG) ProtocolTrial {
		d := factory()
		sources := make([]int, opt.SourcesPerTrial)
		for i := 1; i < len(sources); i++ {
			sources[i] = r.Intn(n)
		}
		var worst core.GossipResult
		for i, src := range sources {
			d.Reset(r.Split())
			out := ref.Run(d, src, opt.MaxRounds, r)
			res := core.GossipResult{Source: src, Rounds: out.Rounds, Completed: out.Completed,
				Trajectory: out.Trajectory, Messages: out.Messages}
			if i == 0 || worseResult(res, worst) {
				worst = res
			}
		}
		return ProtocolTrial{Result: worst, RoundsToHalf: worst.RoundsToHalf(n)}
	})
	c := ProtocolCampaign{Trials: trials}
	for _, tr := range trials {
		if !tr.Result.Completed {
			c.Incomplete++
		}
	}
	return c
}

// protocolCampaignsEqual compares two protocol campaigns trial by
// trial on the fields the reference also produces (it computes no
// arrival arrays).
func protocolCampaignsEqual(t *testing.T, label string, a, b ProtocolCampaign) {
	t.Helper()
	if len(a.Trials) != len(b.Trials) {
		t.Fatalf("%s: trial counts %d vs %d", label, len(a.Trials), len(b.Trials))
	}
	if a.Incomplete != b.Incomplete {
		t.Fatalf("%s: incomplete %d vs %d", label, a.Incomplete, b.Incomplete)
	}
	for i := range a.Trials {
		ra, rb := a.Trials[i].Result, b.Trials[i].Result
		if ra.Source != rb.Source || ra.Rounds != rb.Rounds || ra.Completed != rb.Completed || ra.Messages != rb.Messages {
			t.Fatalf("%s: trial %d headers differ: {src %d rounds %d %v msgs %d} vs {src %d rounds %d %v msgs %d}",
				label, i, ra.Source, ra.Rounds, ra.Completed, ra.Messages, rb.Source, rb.Rounds, rb.Completed, rb.Messages)
		}
		if len(ra.Trajectory) != len(rb.Trajectory) {
			t.Fatalf("%s: trial %d trajectory lengths differ", label, i)
		}
		for j := range ra.Trajectory {
			if ra.Trajectory[j] != rb.Trajectory[j] {
				t.Fatalf("%s: trial %d trajectory[%d] = %d vs %d", label, i, j, ra.Trajectory[j], rb.Trajectory[j])
			}
		}
	}
}

// TestProtocolParallelismIdentical is the determinism gate for the
// sharded gossip engine, mirroring the flooding engine's: on every
// (model, protocol) pair, Parallelism 1 and Parallelism 8 must produce
// identical campaigns, because the worker pool is an execution hint.
func TestProtocolParallelismIdentical(t *testing.T) {
	for _, s := range protocolSpecs(t) {
		label := s.Model.Name + "/" + s.Protocol.Name
		serial := runProtocolWith(t, s, 1)
		sharded := runProtocolWith(t, s, 8)
		protocolCampaignsEqual(t, label, serial, sharded)
	}
}

// TestProtocolEngineEquivalence pins the oracle contract end to end at
// the campaign level: the gossip engine must reproduce the per-node
// reference campaign byte for byte on every (model, protocol) pair.
func TestProtocolEngineEquivalence(t *testing.T) {
	for _, s := range protocolSpecs(t) {
		label := s.Model.Name + "/" + s.Protocol.Name
		ref := runReferenceCampaign(t, s)
		ker := runProtocolWith(t, s, 8)
		protocolCampaignsEqual(t, label+"/ref-vs-kernel", ref, ker)
		if ref.Incomplete == len(ref.Trials) {
			t.Errorf("%s: every trial incomplete (vacuous comparison)", label)
		}
	}
}

// TestProtocolOptionsFromSpecRejectsFlooding pins the split between the
// two engines: flooding specs belong to OptionsFromSpec.
func TestProtocolOptionsFromSpecRejectsFlooding(t *testing.T) {
	s := spec.Spec{Model: spec.Model{Name: "edge", N: 128}}
	if _, err := ProtocolOptionsFromSpec(s); err == nil {
		t.Fatal("flooding spec accepted by ProtocolOptionsFromSpec")
	}
}
