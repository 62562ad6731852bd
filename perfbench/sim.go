package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"meg"
	"meg/internal/core"
	"meg/internal/flood"
	"meg/internal/rng"
	"meg/internal/spec"
)

// opResult is what one simulation op produced: a digest of its flooding
// results (rounds, completion and every node's arrival round), their
// total rounds, and whether every run completed within the round cap.
type opResult struct {
	digest    uint64
	rounds    int
	completed bool
}

// digestOf folds flooding results into an FNV-1a digest.
func digestOf(results ...core.FloodResult) opResult {
	h := fnv.New64a()
	out := opResult{completed: true}
	var b [8]byte
	for _, r := range results {
		out.rounds += r.Rounds
		binary.LittleEndian.PutUint64(b[:], uint64(r.Rounds))
		h.Write(b[:])
		if r.Completed {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
			out.completed = false
		}
		for _, a := range r.Arrival {
			binary.LittleEndian.PutUint32(b[:4], uint32(a))
			h.Write(b[:4])
		}
	}
	out.digest = h.Sum64()
	return out
}

// simFixture is a simulation workload ready to run ops. op runs the op
// with the given seed at the given engine parallelism; the same seed
// always does the same work. With tr non-nil the op is traced, and id
// labels its spans.
type simFixture interface {
	op(id int, seed uint64, parallelism int, tr *tracer) (opResult, error)
}

// opSeed derives op i's seed from the workload seed.
func opSeed(seed uint64, i int) uint64 { return rng.SeedFor(seed, i) }

// warmupSeed is the seed of the k-th warm-up op of every fixture build.
// It does not depend on the workload seed, so every build, and every
// run, warms up with the same work, and setup_s varies only with the
// fixture and the machine.
func warmupSeed(k int) uint64 { return rng.SeedFor(0x5e7c0de, k) }

// specFixture runs one flooding campaign per op through the path megsim
// and megserve use: spec JSON → spec.NewFactory → flood.RunContext.
type specFixture struct {
	factory flood.Factory
	opt     flood.Options
}

func newSpecFixture(body string) (*specFixture, error) {
	s, err := spec.Parse([]byte(body))
	if err != nil {
		return nil, err
	}
	factory, _, err := s.NewFactory()
	if err != nil {
		return nil, err
	}
	opt, err := flood.OptionsFromSpec(s)
	if err != nil {
		return nil, err
	}
	return &specFixture{factory: factory, opt: opt}, nil
}

func (f *specFixture) op(id int, seed uint64, parallelism int, tr *tracer) (opResult, error) {
	opt := f.opt
	opt.Seed = seed
	opt.Parallelism = parallelism
	factory := f.factory
	var root int32
	if tr != nil {
		root = tr.beginOp(id)
		factory = func() core.Dynamics {
			id := tr.begin(kModelNew)
			d := f.factory()
			tr.end(id)
			return tr.wrap(d)
		}
		opt.Hook = tr.trialHook
	}
	camp, err := flood.RunContext(context.Background(), factory, opt)
	if tr != nil {
		tr.finishOp(root)
	}
	if err != nil {
		return opResult{}, err
	}
	if len(camp.Trials) != 1 {
		return opResult{}, fmt.Errorf("campaign returned %d trials, want 1", len(camp.Trials))
	}
	return digestOf(camp.Trials[0].Result), nil
}

// staticFixture floods and then runs push-pull gossip on one fixed
// geometric snapshot through the public meg API.
type staticFixture struct {
	n   int
	d   meg.Dynamics
	cap int
}

func newStaticFixture(n int, seed uint64) *staticFixture {
	r := 2 * math.Sqrt(math.Log(float64(n)))
	m := meg.NewGeometric(meg.GeometricConfig{N: n, R: r, MoveRadius: r / 2})
	m.Reset(meg.NewRNG(seed))
	// The model is never stepped again, so its snapshot stays valid.
	return &staticFixture{n: n, d: meg.Static(m.Graph()), cap: meg.DefaultRoundCap(n)}
}

func (f *staticFixture) op(id int, seed uint64, parallelism int, tr *tracer) (opResult, error) {
	src := int(seed % uint64(f.n))
	fo := meg.FloodOptions{Parallelism: parallelism}
	gopt := meg.GossipOptions{Parallelism: parallelism}
	var root, call int32
	if tr != nil {
		root = tr.beginOp(id)
		fo.Hook = tr.hook()
		gopt.Hook = tr.hook()
		call = tr.begin(kFloodCall)
	}
	fr := meg.FloodOpt(f.d, src, f.cap, fo)
	if tr != nil {
		tr.end(call)
		call = tr.begin(kGossipCall)
	}
	gr := meg.Gossip(f.d, meg.GossipPushPull, src, f.cap, meg.NewRNG(seed), gopt)
	if tr != nil {
		tr.end(call)
		tr.end(root)
	}
	return digestOf(fr, core.FloodResult{Rounds: gr.Rounds, Completed: gr.Completed, Arrival: gr.Arrival}), nil
}

// simWorkload describes a closed-loop simulation workload: one op after
// another on one goroutine, each op's seed derived from the workload's.
type simWorkload struct {
	name   string
	n      int
	model  string // metric prefix of the model layer, "" for none
	warmup int    // untimed ops per fixture build
	build  func(seed uint64) (simFixture, error)
}

func specWorkload(name, body string, n int, model string, warmup int) simWorkload {
	return simWorkload{name: name, n: n, model: model, warmup: warmup,
		build: func(uint64) (simFixture, error) { return newSpecFixture(body) }}
}

var simWorkloads = []simWorkload{
	specWorkload("geom-flood-4k",
		`{"model":{"name":"geometric","n":4096},"trials":1,"sources":1,"workers":1,"parallelism":1,"snapshot":"full"}`,
		4096, "geommeg", 2),
	specWorkload("edge-lowchurn-8k",
		`{"model":{"name":"edge","n":8192,"phatmult":0.5,"q":0.002},"trials":1,"sources":1,"maxRounds":4096,"workers":1,"parallelism":1,"snapshot":"delta"}`,
		8192, "edgemeg", 4),
	{name: "static-kernel-2k", n: 2048, warmup: 32,
		build: func(seed uint64) (simFixture, error) { return newStaticFixture(2048, seed), nil }},
}

// checkSamples is how many timed ops are re-run, outside the timed
// window, at parallelism 2 (and untraced, in a traced run) to check
// that their digests match.
const checkSamples = 4

// runSim runs a simulation workload: set-up (fresh fixtures, each warmed
// up and timed), the timed window, the output checks, and the rest of
// the set-up samples.
func runSim(w simWorkload, cfg runConfig) (*report, error) {
	rep := &report{}
	build := func() (simFixture, error) {
		fx, err := w.build(cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		for k := 0; k < w.warmup; k++ {
			if _, err := fx.op(-1-k, warmupSeed(k), 1, nil); err != nil {
				return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
			}
		}
		return fx, nil
	}
	fx, err := timeBuilds(rep, setupBefore, build, nil)
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer(w.n)
	}
	var results []opResult
	run := fnv.New64a()
	var b [8]byte
	u0 := readUsage()
	deadline := u0.wall.Add(cfg.window)
	prevEnd := u0.wall
	for i := 0; ; i++ {
		start := time.Now()
		if i > 0 && !start.Before(deadline) {
			break
		}
		rep.noteLate(start.Sub(prevEnd))
		res, err := fx.op(i, opSeed(cfg.seed, i), 1, tr)
		prevEnd = time.Now()
		rep.latMs = append(rep.latMs, ms(prevEnd.Sub(start)))
		rep.attempted++
		if err != nil || !res.completed {
			rep.fail(fmt.Sprintf("op %d failed: err=%v completed=%v", i, err, res.completed))
		}
		results = append(results, res)
		binary.LittleEndian.PutUint64(b[:], res.digest)
		run.Write(b[:])
	}
	rep.usage(u0, readUsage())
	rep.digest = run.Sum64()

	// Output checks: a seeded sample of ops re-run at parallelism 2 must
	// reproduce its digest byte for byte. In a traced run the same ops
	// re-run untraced must too; each is then re-run traced (into a scratch
	// tracer) and untraced back to back, and the pair gives the tracing
	// overhead.
	pick := rng.New(cfg.seed ^ 0x5eed)
	var overhead []float64
	for k := 0; k < checkSamples && k < len(results); k++ {
		i := pick.Intn(len(results))
		seed := opSeed(cfg.seed, i)
		p2, err := fx.op(i, seed, 2, nil)
		if err != nil || p2 != results[i] {
			rep.fail(fmt.Sprintf("op %d: parallelism-2 digest %016x != %016x (err=%v)", i, p2.digest, results[i].digest, err))
		}
		if tr == nil {
			continue
		}
		t0 := time.Now()
		_, _ = fx.op(i, seed, 1, newTracer(w.n)) // digest already compared above
		t1 := time.Now()
		plain, err := fx.op(i, seed, 1, nil)
		t2 := time.Now()
		if err != nil || plain != results[i] {
			rep.fail(fmt.Sprintf("op %d: untraced digest %016x != traced %016x (err=%v)", i, plain.digest, results[i].digest, err))
		}
		overhead = append(overhead, float64(t1.Sub(t0))/float64(t2.Sub(t1))-1)
	}
	if tr != nil {
		rep.layer = simLayers(w, fx, tr, rep, len(results), median(overhead))
		rep.tracer = tr
	}
	rep.peakRSSMB = peakRSSMB()
	if _, err := timeBuilds(rep, setupAfter, build, nil); err != nil {
		return nil, err
	}
	return rep, nil
}

// simLayers computes the per-layer metrics of a traced simulation run.
func simLayers(w simWorkload, fx simFixture, tr *tracer, rep *report, ops int, overhead float64) map[string]metric {
	per := func(k ...spanKind) float64 {
		var d time.Duration
		for _, x := range k {
			d += tr.total[x]
		}
		return ms(d) / float64(ops)
	}
	model := per(kModelNew, kModelReset, kModelStep, kModelStepDelta, kModelGraph)
	modelInCore := per(kModelReset, kModelStep, kModelStepDelta, kModelGraph)
	coreSpan := per(kCore, kFloodCall, kGossipCall)
	coreSelf := coreSpan - modelInCore - per(kPhaseDeltaApply)
	floodSelf := 0.0
	if w.model != "" {
		floodSelf = per(kOp) - per(kCore) - per(kModelNew)
	}
	opMs := per(kOp)
	m := layerMetrics()
	set := func(name string, v float64) {
		mm := m[name]
		mm.Value = v
		m[name] = mm
	}
	if w.model != "" {
		p := w.model + "."
		set(p+"reset_ms_per_op", per(kModelReset))
		set(p+"step_ms_per_op", per(kModelStep, kModelStepDelta))
		set(p+"op_share", model/opMs)
	}
	switch w.model {
	case "geommeg":
		set("geommeg.graph_ms_per_op", per(kModelGraph))
		set("geommeg.graph_ms_p50", median(tr.graphMs))
		set("geommeg.graph_alloc_mb_per_op", float64(tr.graphB)/1e6/float64(ops))
	case "edgemeg":
		set("edgemeg.step_ms_p50", median(tr.stepMs))
		if n := len(tr.stepMs); n > 0 {
			set("edgemeg.churn_per_step", float64(tr.churn)/float64(n))
		}
		if tr.churn > 0 {
			set("edgemeg.step_ns_per_churn", float64(tr.total[kModelStepDelta])/float64(tr.churn))
		}
	}
	if calls := len(tr.graphMs); calls > 0 {
		edges := float64(tr.edges) / float64(calls)
		set("graph.edges_per_snapshot", edges)
		set("graph.csr_mb_per_snapshot", csrMB(w.n, edges))
	} else if sf, ok := fx.(*staticFixture); ok {
		edges := float64(sf.d.Graph().M())
		set("graph.edges_per_snapshot", edges)
		set("graph.csr_mb_per_snapshot", csrMB(w.n, edges))
	}
	set("graph.delta_apply_ms_per_op", per(kPhaseDeltaApply))
	set("graph.op_share", per(kPhaseDeltaApply)/opMs)
	set("core.self_ms_per_op", coreSelf)
	set("core.op_share", coreSelf/opMs)
	set("core.kernel_ms_per_op", per(kPhaseKernel))
	set("core.kernel_op_share", per(kPhaseKernel)/opMs)
	set("core.merge_ms_per_op", per(kPhaseMerge))
	set("core.flood_ms_per_op", per(kCore, kFloodCall))
	set("core.gossip_ms_per_op", per(kGossipCall))
	set("core.rounds_per_op", float64(tr.rounds)/float64(ops))
	if tr.rounds > 0 {
		set("core.straggler_round_share", float64(tr.straggler)/float64(tr.rounds))
	}
	set("flood.self_ms_per_op", floodSelf)
	set("flood.op_share", floodSelf/opMs)
	set("harness.gen_late_ms_max", rep.lateMaxMs)
	set("harness.trace_overhead_share", overhead)
	return m
}

// csrMB is the size of a packed CSR snapshot: n+1 int32 row offsets and
// both directions of every edge as int32.
func csrMB(n int, edges float64) float64 { return (4*float64(n+1) + 8*edges) / 1e6 }
