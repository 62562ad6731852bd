// Broadcast compares dissemination protocols on one evolving network —
// the evaluation the paper's introduction describes ("flooding is often
// used in order to evaluate the relative efficiency of alternative
// protocols"). Pick latency or message budget; this prints the menu.
//
// Scenario: a 4096-node mobile mesh (geometric-MEG). The operator can
// broadcast via full flooding (fastest, most radio time), Gnutella-style
// probabilistic flooding, push gossip, push-pull, or flooding over a
// lossy radio layer.
//
//	go run ./examples/broadcast
package main

import (
	"fmt"
	"math"
	"os"

	"meg"
	"meg/internal/stats"
	"meg/internal/table"
)

func main() {
	const n = 4096
	const trials = 8
	radius := 2 * math.Sqrt(math.Log(float64(n)))
	cfg := meg.GeometricConfig{N: n, R: radius, MoveRadius: radius / 2}

	// Flooding is lossy flooding with no loss: every informed node
	// transmits to all its current neighbors each round.
	protocols := []struct {
		label string
		proto meg.GossipProtocol
		opt   meg.GossipOptions
	}{
		{"flooding", meg.GossipLossyFlood, meg.GossipOptions{}},
		{"prob-flood(β=0.80)", meg.GossipProbFlood, meg.GossipOptions{Beta: 0.8}},
		{"prob-flood(β=0.50)", meg.GossipProbFlood, meg.GossipOptions{Beta: 0.5}},
		{"push-gossip", meg.GossipPush, meg.GossipOptions{}},
		{"push-pull", meg.GossipPushPull, meg.GossipOptions{}},
		{"lossy-flood(f=0.50)", meg.GossipLossyFlood, meg.GossipOptions{Loss: 0.5}},
	}

	fmt.Printf("mobile mesh: n=%d, R=%.2f, node speed %.2f\n\n", n, radius, radius/2)
	tbl := table.New("broadcast protocol menu (mean over trials, stationary starts)",
		"protocol", "success", "rounds", "messages", "msgs/node")
	base := meg.NewRNG(2024)
	for _, p := range protocols {
		success := 0
		var rounds, msgs stats.Accumulator
		for i := 0; i < trials; i++ {
			model := meg.NewGeometric(cfg)
			model.Reset(base.Split())
			res := meg.Gossip(model, p.proto, i%n, meg.DefaultRoundCap(n), base.Split(), p.opt)
			if res.Completed {
				success++
				rounds.Add(float64(res.Rounds))
			}
			msgs.Add(float64(res.Messages))
		}
		tbl.AddRow(p.label, success, rounds.Mean(), msgs.Mean(), msgs.Mean()/n)
	}
	if err := tbl.WriteText(os.Stdout); err != nil {
		panic(err)
	}

	fmt.Println("\nReading the menu: flooding is the latency floor (the paper's baseline);")
	fmt.Println("gossip cuts messages by >20× at a few× the latency; β-flooding sits between;")
	fmt.Println("and even 50% message loss barely dents flooding thanks to retransmission.")
}
