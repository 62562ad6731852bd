package protocol_test

import (
	"testing"

	"meg/internal/core"
	"meg/internal/protocol"
	"meg/internal/rng"
	"meg/internal/spec"
)

// gossipCases pairs every reference protocol with its kernel engine
// counterpart. Flooding has no gossip kernel of its own: lossy flooding
// at f = 0 is flooding with message accounting, the row E16 runs as its
// baseline.
var gossipCases = []struct {
	name  string
	ref   protocol.Protocol
	proto core.GossipProtocol
	opt   core.GossipOptions
}{
	{"push", protocol.PushGossip{}, core.GossipPush, core.GossipOptions{}},
	{"push-pull", protocol.PushPull{}, core.GossipPushPull, core.GossipOptions{}},
	{"probabilistic", protocol.Probabilistic{Beta: 0.7}, core.GossipProbFlood, core.GossipOptions{Beta: 0.7}},
	{"lossy", protocol.LossyFlooding{Loss: 0.3}, core.GossipLossyFlood, core.GossipOptions{Loss: 0.3}},
	{"flooding", protocol.Flooding{}, core.GossipLossyFlood, core.GossipOptions{}},
}

// modelFactories builds one small dynamics factory per evolving-graph
// model via the spec factory — the complete set of substrates.
func modelFactories(t *testing.T) map[string]func() core.Dynamics {
	t.Helper()
	out := make(map[string]func() core.Dynamics)
	for _, name := range []string{"geometric", "torus", "edge", "waypoint", "billiard", "walkers", "iiddisk"} {
		s := spec.Spec{Model: spec.Model{Name: name, N: 400, RFrac: 0.5}}
		factory, _, err := s.NewFactory()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = factory
	}
	return out
}

func resultsEqual(t *testing.T, label string, ref protocol.Result, got core.GossipResult) {
	t.Helper()
	if ref.Rounds != got.Rounds || ref.Completed != got.Completed || ref.Messages != got.Messages {
		t.Fatalf("%s: header diverged: reference {rounds %d completed %v msgs %d} vs kernel {rounds %d completed %v msgs %d}",
			label, ref.Rounds, ref.Completed, ref.Messages, got.Rounds, got.Completed, got.Messages)
	}
	if len(ref.Trajectory) != len(got.Trajectory) {
		t.Fatalf("%s: trajectory lengths %d vs %d", label, len(ref.Trajectory), len(got.Trajectory))
	}
	for i := range ref.Trajectory {
		if ref.Trajectory[i] != got.Trajectory[i] {
			t.Fatalf("%s: trajectory[%d] = %d vs %d", label, i, ref.Trajectory[i], got.Trajectory[i])
		}
	}
}

// TestGossipKernelMatchesReference is the oracle gate of the gossip
// engine: on every one of the seven models and every protocol, the
// bitset kernel must reproduce the per-node reference implementation
// byte for byte — same rounds, completion, trajectory, and message
// count — at every parallelism level, because both draw every decision
// from the same (node, round)-keyed streams.
func TestGossipKernelMatchesReference(t *testing.T) {
	for model, factory := range modelFactories(t) {
		for _, tc := range gossipCases {
			for _, par := range []int{1, 3, 8} {
				seed := rng.New(41)
				cap := core.DefaultRoundCap(400)

				dRef := factory()
				dRef.Reset(seed.Split())
				ref := tc.ref.Run(dRef, 3, cap, seed.Split())

				seed = rng.New(41)
				dKer := factory()
				dKer.Reset(seed.Split())
				opt := tc.opt
				opt.Parallelism = par
				got := core.Gossip(dKer, tc.proto, 3, cap, seed.Split(), opt)

				resultsEqual(t, model+"/"+tc.name, ref, got)
			}
		}
	}
}

// TestGossipArrivalConsistent pins the kernel's extra outputs: the
// arrival array and informed set must agree with the trajectory.
func TestGossipArrivalConsistent(t *testing.T) {
	factory := modelFactories(t)["edge"]
	for _, tc := range gossipCases {
		d := factory()
		r := rng.New(17)
		d.Reset(r.Split())
		res := core.Gossip(d, tc.proto, 0, core.DefaultRoundCap(400), r.Split(), tc.opt)
		informed := 0
		maxArrival := 0
		for v, a := range res.Arrival {
			if (a >= 0) != res.Informed.Contains(v) {
				t.Fatalf("%s: arrival/informed mismatch at %d", tc.name, v)
			}
			if a >= 0 {
				informed++
				if int(a) > maxArrival {
					maxArrival = int(a)
				}
			}
		}
		final := res.Trajectory[len(res.Trajectory)-1]
		if informed != final {
			t.Fatalf("%s: %d arrivals vs trajectory end %d", tc.name, informed, final)
		}
		if res.Completed && maxArrival != res.Rounds {
			t.Fatalf("%s: max arrival %d vs rounds %d", tc.name, maxArrival, res.Rounds)
		}
	}
}
