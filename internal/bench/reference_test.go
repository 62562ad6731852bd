package bench

import (
	"testing"

	"meg/internal/core"
	"meg/internal/flood"
	"meg/internal/protocol"
	"meg/internal/rng"
	"meg/internal/spec"
	"meg/internal/sweep"
)

// referenceCampaign runs a protocol spec's campaign with every run on
// the per-node reference implementation in internal/protocol. It
// mirrors flood.RunProtocolContext's use of randomness — one sweep
// stream per trial, the extra sources drawn first, then a Reset from
// r.Split() and a run drawing from r for each source — and keeps the
// worst source as it does, so protocolChecksum must agree with the
// gossip engine's campaign.
func referenceCampaign(t *testing.T, c spec.Spec) flood.ProtocolCampaign {
	t.Helper()
	factory, _, err := c.NewFactory()
	if err != nil {
		t.Fatal(err)
	}
	opt, err := flood.ProtocolOptionsFromSpec(c)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := protocol.ByName(opt.Protocol, opt.Beta, opt.Loss)
	if err != nil {
		t.Fatal(err)
	}
	n := factory().N()
	maxRounds := opt.MaxRounds
	if maxRounds <= 0 {
		maxRounds = core.DefaultRoundCap(n)
	}
	trials := sweep.Repeat(opt.Trials, opt.Seed, opt.Workers, func(rep int, r *rng.RNG) flood.ProtocolTrial {
		d := factory()
		sources := make([]int, opt.SourcesPerTrial)
		for i := 1; i < len(sources); i++ {
			sources[i] = r.Intn(n)
		}
		var worst core.GossipResult
		for i, src := range sources {
			d.Reset(r.Split())
			out := ref.Run(d, src, maxRounds, r)
			res := core.GossipResult{Source: src, Rounds: out.Rounds, Completed: out.Completed,
				Trajectory: out.Trajectory, Messages: out.Messages}
			// Incomplete beats complete, then more rounds beat fewer.
			if i == 0 || res.Completed != worst.Completed && !res.Completed ||
				res.Completed == worst.Completed && res.Rounds > worst.Rounds {
				worst = res
			}
		}
		return flood.ProtocolTrial{Result: worst}
	})
	return flood.ProtocolCampaign{Trials: trials}
}

// TestProtoScenariosMatchReference is the oracle gate of the suite's
// gossip scenarios: on each proto-* spec of Suite, the campaign the
// suite times on the gossip engine (every worker) must carry the same
// protocolChecksum as the per-node reference campaign.
func TestProtoScenariosMatchReference(t *testing.T) {
	protos := 0
	for _, sc := range Suite() {
		if sc.Spec.Protocol.Name == "" || sc.Spec.Protocol.Name == "flooding" {
			continue
		}
		protos++
		t.Run(sc.Name, func(t *testing.T) {
			kernel, err := runVariant(sc.Spec, "sharded", -1, false, false)
			if err != nil {
				t.Fatal(err)
			}
			c := sc.Spec
			c.Parallelism = -1 // the models' snapshot builds only
			want := protocolChecksum(referenceCampaign(t, c))
			if kernel.Checksum != want {
				t.Fatalf("gossip engine checksum %s, reference %s", kernel.Checksum, want)
			}
		})
	}
	if protos < 3 {
		t.Fatalf("suite has %d protocol scenarios, want ≥ 3", protos)
	}
}
