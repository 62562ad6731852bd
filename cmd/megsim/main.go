// Command megsim runs a single flooding simulation on a chosen
// Markovian evolving graph model and prints the per-round trajectory —
// the quickest way to explore the dynamics interactively.
//
// megsim builds a spec.Spec from its flags and runs it through the same
// serve.Executor that powers megserve, so a CLI run and an HTTP job
// with the same spec are the same computation — same seed derivation,
// same engine, same result, same content hash.
//
// Usage examples:
//
//	megsim -model geometric -n 4096 -mult 2 -rfrac 0.5 -trace
//	megsim -model edge -n 4096 -phatmult 4 -q 0.5
//	megsim -model waypoint -n 4096 -mult 2
//	megsim -model geometric -n 4096 -sources 8 -trials 5 -json
//	megsim -spec run.json -json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"

	"meg/internal/geommeg"
	"meg/internal/metrics"
	"meg/internal/rng"
	"meg/internal/serve"
	"meg/internal/spec"
)

func main() {
	model := flag.String("model", "geometric", "model: geometric|torus|edge|waypoint|billiard|walkers|iiddisk")
	n := flag.Int("n", 4096, "number of nodes")
	mult := flag.Float64("mult", 2, "transmission radius R = mult·√log n (geometric models)")
	rfrac := flag.Float64("rfrac", 0.5, "move radius r = rfrac·R (geometric models)")
	density := flag.Float64("density", 1, "node density δ (geometric lattice model)")
	phatmult := flag.Float64("phatmult", 4, "edge model: p̂ = phatmult·log n/n")
	q := flag.Float64("q", 0.5, "edge model death rate")
	emptyStart := flag.Bool("empty", false, "edge model: start from the empty graph (worst case)")
	proto := flag.String("protocol", "flooding", "protocol: flooding|probabilistic|push|push-pull|lossy")
	beta := flag.Float64("beta", 0, "forward probability (probabilistic protocol)")
	loss := flag.Float64("loss", 0, "per-message loss probability (lossy protocol)")
	batch := flag.Bool("batch", false, "batch each trial's sources bit-parallel over one realization")
	parallelism := flag.Int("par", 0, "intra-trial worker count of the sharded engine (0/1 = serial, -1 = all CPUs); results are identical for every value")
	seed := flag.Uint64("seed", 1, "RNG seed")
	trials := flag.Int("trials", 1, "independent trials")
	sources := flag.Int("sources", 1, "sources per trial (flooding time = max)")
	specFile := flag.String("spec", "", "run this spec JSON file instead of building one from the model flags")
	jsonOut := flag.Bool("json", false, "emit the result as JSON (the same payload megserve returns)")
	telemetry := flag.Bool("telemetry", false, "collect per-round phase timings and dump the aggregated breakdown as JSON on stderr (observation only; the result is byte-identical)")
	trace := flag.Bool("trace", false, "print the informed-count trajectory of trial 0")
	dotFile := flag.String("dot", "", "write the initial snapshot of a fresh run as Graphviz DOT to this file")
	flag.Parse()

	var sp spec.Spec
	if *specFile != "" {
		data, err := os.ReadFile(*specFile)
		if err != nil {
			fatal(err)
		}
		sp, err = spec.Parse(data)
		if err != nil {
			fatal(err)
		}
		if *parallelism != 0 {
			// An execution hint (excluded from the content hash), so the
			// flag may override the file without changing the run.
			sp.Parallelism = *parallelism
		}
	} else {
		var err error
		sp, err = spec.Spec{
			Model: spec.Model{
				Name: *model, N: *n,
				Mult: *mult, RFrac: *rfrac, Density: *density,
				PhatMult: *phatmult, Q: *q, Empty: *emptyStart,
			},
			Protocol:    spec.Protocol{Name: *proto, Beta: *beta, Loss: *loss},
			Engine:      spec.Engine{BatchSources: *batch},
			Trials:      *trials,
			Sources:     *sources,
			Seed:        *seed,
			Parallelism: *parallelism,
		}.Canonical()
		if err != nil {
			fatal(err)
		}
	}

	if *dotFile != "" {
		if err := dumpDOT(*dotFile, sp); err != nil {
			fatal(err)
		}
		if !*jsonOut {
			fmt.Printf("wrote snapshot DOT to %s\n", *dotFile)
		}
	}

	exec := &serve.Executor{}
	var sink func(serve.Event)
	var telMu sync.Mutex
	var totals metrics.PhaseTotals
	if *telemetry {
		sink = func(e serve.Event) {
			if e.Telemetry == nil {
				return
			}
			telMu.Lock()
			totals.AddRound(*e.Telemetry)
			telMu.Unlock()
		}
	}
	res, err := exec.Execute(context.Background(), sp, sink)
	if err != nil {
		fatal(err)
	}
	if *telemetry {
		enc := json.NewEncoder(os.Stderr)
		enc.SetIndent("", "  ")
		telMu.Lock()
		enc.Encode(totals)
		telMu.Unlock()
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("model: %s\n", res.Model)
	fmt.Printf("protocol: %s\n", res.Protocol)
	fmt.Printf("spec hash: %s\n", res.Hash)
	if *trace && len(res.Trajectory) > 0 {
		fmt.Println("trajectory (|I_t| per round) of trial 0:")
		for t, m := range res.Trajectory {
			fmt.Printf("  t=%-4d informed=%d\n", t, m)
		}
	}
	fmt.Printf("trials: %d completed, %d hit the round cap\n", res.CompletedTrials, res.IncompleteTrials)
	if res.CompletedTrials > 0 {
		fmt.Printf("rounds: %s\n", res.Rounds)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "megsim: %v\n", err)
	os.Exit(2)
}

// dumpDOT samples a fresh initial snapshot of the spec's model and
// writes it as DOT, with geographic positions when the model is
// geometric.
func dumpDOT(path string, sp spec.Spec) error {
	factory, _, err := sp.NewFactory()
	if err != nil {
		return err
	}
	seed, err := sp.EffectiveSeed()
	if err != nil {
		return err
	}
	d := factory()
	d.Reset(rng.New(seed))
	g := d.Graph()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if gm, ok := d.(*geommeg.Model); ok {
		coords := make([][2]float64, g.N())
		for u := 0; u < g.N(); u++ {
			p := gm.Position(u)
			coords[u] = [2]float64{p.X, p.Y}
		}
		return g.WriteDOTPositioned(f, "snapshot", coords)
	}
	return g.WriteDOT(f, "snapshot")
}
