package main

import (
	"testing"

	"meg/internal/core"
	"meg/internal/edgemeg"
	"meg/internal/geommeg"
	"meg/internal/graph"
	"meg/internal/rng"
)

// fakeDyn implements core.Dynamics; the types below add optional
// interfaces in every combination.
type fakeDyn struct{ g *graph.Graph }

func (f *fakeDyn) N() int                  { return f.g.N() }
func (f *fakeDyn) Reset(*rng.RNG)          {}
func (f *fakeDyn) Graph() *graph.Graph     { return f.g }
func (f *fakeDyn) Step()                   {}
func (f *fakeDyn) StepDelta() graph.Delta  { return graph.Delta{} }
func (f *fakeDyn) ExpectedDegree() float64 { return 1 }
func (f *fakeDyn) SetParallelism(int)      {}

type plain struct{ d *fakeDyn }

func (p plain) N() int              { return p.d.N() }
func (p plain) Reset(r *rng.RNG)    { p.d.Reset(r) }
func (p plain) Graph() *graph.Graph { return p.d.Graph() }
func (p plain) Step()               { p.d.Step() }

type withDelta struct{ plain }

func (w withDelta) StepDelta() graph.Delta { return w.d.StepDelta() }

type withHint struct{ plain }

func (w withHint) ExpectedDegree() float64 { return w.d.ExpectedDegree() }

type withPar struct{ plain }

func (w withPar) SetParallelism(n int) { w.d.SetParallelism(n) }

type deltaHint struct{ withDelta }

func (w deltaHint) ExpectedDegree() float64 { return 1 }

type deltaPar struct{ withDelta }

func (w deltaPar) SetParallelism(int) {}

type hintPar struct{ withHint }

func (w hintPar) SetParallelism(int) {}

func optional(d core.Dynamics) [3]bool {
	_, delta := d.(core.DeltaDynamics)
	_, hint := d.(core.DegreeHinter)
	_, par := d.(core.Parallelizable)
	return [3]bool{delta, hint, par}
}

func TestWrapForwardsExactlyTheOptionalInterfaces(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	f := &fakeDyn{g: b.Build()}
	p := plain{f}
	dyns := []core.Dynamics{
		p, withDelta{p}, withHint{p}, withPar{p},
		deltaHint{withDelta{p}}, deltaPar{withDelta{p}}, hintPar{withHint{p}}, f,
		geommeg.MustNew(geommeg.Config{N: 64, R: 4, MoveRadius: 2}),
		edgemeg.MustNew(edgemeg.Config{N: 64, P: 0.01, Q: 0.5}),
	}
	tr := newTracer(3)
	seen := map[[3]bool]bool{}
	for _, d := range dyns {
		want := optional(d)
		seen[want] = true
		if got := optional(tr.wrap(d)); got != want {
			t.Errorf("%T: wrapper implements (delta, hint, par) = %v, want %v", d, got, want)
		}
	}
	if len(seen) != 8 {
		t.Fatalf("covered %d of 8 interface combinations", len(seen))
	}
	st := core.NewStatic(f.g)
	if tr.wrap(st) != core.Dynamics(st) {
		t.Error("*core.Static must not be wrapped: the engine detects it")
	}
}

func TestWrapperTimesEveryCall(t *testing.T) {
	m := edgemeg.MustNew(edgemeg.Config{N: 256, P: 0.01, Q: 0.5})
	tr := newTracer(256)
	d := tr.wrap(m)
	d.Reset(rng.New(1))
	g := d.Graph()
	d.Step()
	delta := d.(core.DeltaDynamics).StepDelta()
	if tr.total[kModelReset] <= 0 || tr.total[kModelGraph] <= 0 || tr.total[kModelStep] <= 0 || tr.total[kModelStepDelta] <= 0 {
		t.Errorf("a call went untimed: %v", tr.total)
	}
	if len(tr.graphMs) != 1 || len(tr.stepMs) != 1 || tr.edges != int64(g.M()) {
		t.Errorf("per-call samples: graph %d, step %d, edges %d (want 1, 1, %d)", len(tr.graphMs), len(tr.stepMs), tr.edges, g.M())
	}
	if tr.churn != int64(len(delta.Births)+len(delta.Deaths)) {
		t.Errorf("churn %d, want %d", tr.churn, len(delta.Births)+len(delta.Deaths))
	}
	if d.(core.DegreeHinter).ExpectedDegree() != m.ExpectedDegree() {
		t.Error("ExpectedDegree not forwarded")
	}
}

// smallWorkloads are the simulation workloads at test size: the same
// spec fields and code paths, fewer nodes.
var smallWorkloads = []simWorkload{
	specWorkload("geom",
		`{"model":{"name":"geometric","n":512},"trials":1,"sources":1,"workers":1,"parallelism":1,"snapshot":"full"}`,
		512, "geommeg", 0),
	specWorkload("edge",
		`{"model":{"name":"edge","n":1024,"phatmult":0.5,"q":0.02},"trials":1,"sources":1,"maxRounds":4096,"workers":1,"parallelism":1,"snapshot":"delta"}`,
		1024, "edgemeg", 0),
	{name: "static", n: 1024, build: func(seed uint64) (simFixture, error) { return newStaticFixture(1024, seed), nil }},
}

func TestTracedOpsMatchUntraced(t *testing.T) {
	for _, w := range smallWorkloads {
		fx, err := w.build(7)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer(w.n)
		rounds := 0
		for i := 0; i < 3; i++ {
			plain, err := fx.op(i, opSeed(7, i), 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := fx.op(i, opSeed(7, i), 1, tr)
			if err != nil {
				t.Fatal(err)
			}
			if traced != plain || !plain.completed {
				t.Errorf("%s op %d: traced %+v, untraced %+v", w.name, i, traced, plain)
			}
			if p2, _ := fx.op(i, opSeed(7, i), 2, nil); p2 != plain {
				t.Errorf("%s op %d: parallelism 2 gave %+v, want %+v", w.name, i, p2, plain)
			}
			rounds += plain.rounds
		}
		if tr.rounds != int64(rounds) {
			t.Errorf("%s: traced rounds %d, untraced results %d", w.name, tr.rounds, rounds)
		}
		if len(tr.stack) != 0 {
			t.Errorf("%s: %d spans left open", w.name, len(tr.stack))
		}
		for i, s := range tr.spans {
			if s.end < s.start || (s.parent >= 0 && (tr.spans[s.parent].start > s.start || tr.spans[s.parent].end < s.end)) {
				t.Fatalf("%s: span %d (%s) is not inside its parent", w.name, i, kindNames[s.kind])
			}
		}
		m := simLayers(w, fx, tr, &report{}, 3, 0)
		if got, want := m["core.rounds_per_op"].Value, float64(rounds)/3; got != want {
			t.Errorf("%s: core.rounds_per_op %v, want %v", w.name, got, want)
		}
	}
}

func TestEdgeWorkloadStepsDeltas(t *testing.T) {
	w := smallWorkloads[1]
	fx, err := w.build(3)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(w.n)
	const ops = 2
	rounds := 0
	for i := 0; i < ops; i++ {
		res, err := fx.op(i, opSeed(7, i), 1, tr)
		if err != nil {
			t.Fatal(err)
		}
		rounds += res.rounds
	}
	// Graph materializes the first snapshot once per op; every round
	// then advances the chain with StepDelta, never Step.
	if len(tr.graphMs) != ops {
		t.Errorf("Graph called %d times in %d ops, want once per op", len(tr.graphMs), ops)
	}
	if len(tr.stepMs) != rounds || tr.total[kModelStep] != 0 {
		t.Errorf("StepDelta called %d times, Step for %v, over %d rounds", len(tr.stepMs), tr.total[kModelStep], rounds)
	}
	if tr.total[kPhaseDeltaApply] <= 0 {
		t.Error("no delta apply recorded")
	}
}

func TestGeomWorkloadBuildsSnapshotsEachRound(t *testing.T) {
	w := smallWorkloads[0]
	fx, err := w.build(3)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(w.n)
	res, err := fx.op(0, 3, 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.graphMs) != res.rounds || len(tr.stepMs) != 0 {
		t.Errorf("full path: %d Graph and %d StepDelta calls over %d rounds", len(tr.graphMs), len(tr.stepMs), res.rounds)
	}
}
