package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"meg/internal/core"
	"meg/internal/graph"
	"meg/internal/rng"
	"meg/internal/serve"
	"meg/internal/spec"
)

// spanKind names a span recorded at a layer boundary. Every span is
// timed from the benchmark's own files, around a call into a layer's
// public functions; nothing inside the program is instrumented.
type spanKind uint8

const (
	kOp              spanKind = iota // one op (flood campaign, static op or serve job)
	kCore                            // flooding engine run inside a campaign trial
	kModelNew                        // campaign factory call: model construction
	kModelReset                      // Dynamics.Reset
	kModelStep                       // Dynamics.Step
	kModelStepDelta                  // DeltaDynamics.StepDelta
	kModelGraph                      // Dynamics.Graph: the snapshot build
	kPhaseSnapshot                   // engine PhaseSnapshot
	kPhaseKernel                     // engine PhaseKernel
	kPhaseMerge                      // engine PhaseMerge (nested in the kernel)
	kPhaseStep                       // engine PhaseStep
	kPhaseDeltaApply                 // engine PhaseDeltaApply: graph.Mutable delta apply
	kFloodCall                       // meg.FloodOpt
	kGossipCall                      // meg.Gossip
	kSubmit                          // HTTP POST round trip
	kQueue                           // scheduler queue wait
	kExecute                         // serve.Executor.Execute
	kindCount
)

var kindNames = [kindCount]string{
	"op", "core.engine", "model.new", "model.reset", "model.step", "model.step_delta",
	"model.graph", "phase.snapshot", "phase.kernel", "phase.merge", "phase.step",
	"phase.delta_apply", "core.flood", "core.gossip", "serve.submit", "serve.queue",
	"serve.execute",
}

var phaseKinds = [core.PhaseCount]spanKind{
	core.PhaseSnapshot:   kPhaseSnapshot,
	core.PhaseKernel:     kPhaseKernel,
	core.PhaseMerge:      kPhaseMerge,
	core.PhaseStep:       kPhaseStep,
	core.PhaseDeltaApply: kPhaseDeltaApply,
}

// span is one timed interval; start and end are nanoseconds since the
// tracer was made, and parent is the index of the enclosing span or -1.
type span struct {
	op, parent int32
	kind       spanKind
	start, end int64
}

// tracer keeps every span of a traced run in memory, together with the
// per-kind totals and per-call samples the per-layer metrics need, and
// writes the spans out when the run ends. A mutex makes it safe for the
// serve-mix goroutines; the simulation workloads use it from one
// goroutine at a time.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	n     int // node count, for the straggler-round test
	op    int32
	spans []span
	stack []int32 // open spans of the simulation goroutine

	total     [kindCount]time.Duration
	graphMs   []float64 // per Dynamics.Graph call
	stepMs    []float64 // per StepDelta call
	graphB    uint64    // heap bytes allocated inside Graph calls
	edges     int64     // summed over Graph calls
	churn     int64     // births + deaths summed over StepDelta calls
	rounds    int64
	straggler int64
	lastEvent time.Time
}

func newTracer(n int) *tracer { return &tracer{t0: time.Now(), n: n} }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// begin opens a span of the given kind, nested in the innermost open
// span, and returns its index.
func (t *tracer) begin(k spanKind) int32 {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{op: t.op, parent: parent, kind: k, start: t.ns(now), end: -1})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id now and returns its duration.
func (t *tracer) end(id int32) time.Duration { return t.endAt(id, time.Now()) }

// endAt closes span id at the given time. It is the innermost open span
// unless a caller left a span open inside it, which is then abandoned
// with end −1.
func (t *tracer) endAt(id int32, at time.Time) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.stack) > 0 {
		top := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		if top == id {
			break
		}
	}
	s := &t.spans[id]
	s.end = t.ns(at)
	d := time.Duration(s.end - s.start)
	t.total[s.kind] += d
	t.lastEvent = at
	return d
}

// record adds a finished span of op with no parent; the serve-mix
// goroutines use it, since their spans do not nest on one goroutine.
func (t *tracer) record(k spanKind, op int32, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{op: op, parent: -1, kind: k, start: t.ns(start), end: t.ns(end)})
	t.total[k] += end.Sub(start)
}

// beginOp starts op i's root span.
func (t *tracer) beginOp(i int) int32 {
	t.mu.Lock()
	t.op = int32(i)
	t.mu.Unlock()
	return t.begin(kOp)
}

// roundDone counts an engine round. A straggler round starts with fewer
// than n/16 nodes uninformed, the engines' active-set crossover.
func (t *tracer) roundDone(s core.RoundStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rounds++
	if 16*(t.n-(s.Informed-s.Newly)) < t.n {
		t.straggler++
	}
	t.lastEvent = time.Now()
}

// write stores the spans as CSV under dir and returns the file path.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op,id,parent,name,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.op, i, s.parent, kindNames[s.kind], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// phaseHook turns the engine's public PhaseHook callbacks into spans.
type phaseHook struct {
	tr   *tracer
	open [core.PhaseCount]int32
}

func (h *phaseHook) BeginPhase(p core.Phase)     { h.open[p] = h.tr.begin(phaseKinds[p]) }
func (h *phaseHook) EndPhase(p core.Phase)       { h.tr.end(h.open[p]) }
func (h *phaseHook) RoundDone(s core.RoundStats) { h.tr.roundDone(s) }

func (t *tracer) hook() core.PhaseHook { return &phaseHook{tr: t} }

// trialHook is the campaign's per-trial hook factory. The campaign calls
// it just before the engine run, so it opens the core.engine span, which
// finishOp closes at the engine's last callback.
func (t *tracer) trialHook(int) core.PhaseHook {
	t.begin(kCore)
	return t.hook()
}

// finishOp ends the span still open inside op (the core.engine span) at
// the time of the engine's last callback, then ends op itself now.
func (t *tracer) finishOp(op int32) time.Duration {
	t.mu.Lock()
	last := t.lastEvent
	var inner int32 = -1
	if n := len(t.stack); n > 0 && t.stack[n-1] != op {
		inner = t.stack[n-1]
	}
	t.mu.Unlock()
	if inner >= 0 {
		t.endAt(inner, last)
	}
	return t.end(op)
}

// tracedDyn forwards core.Dynamics to the model and times each call.
type tracedDyn struct {
	d  core.Dynamics
	dd core.DeltaDynamics
	tr *tracer
}

func (t *tracedDyn) N() int { return t.d.N() }

func (t *tracedDyn) Reset(r *rng.RNG) {
	id := t.tr.begin(kModelReset)
	t.d.Reset(r)
	t.tr.end(id)
}

func (t *tracedDyn) Step() {
	id := t.tr.begin(kModelStep)
	t.d.Step()
	t.tr.end(id)
}

func (t *tracedDyn) Graph() *graph.Graph {
	a0 := heapAllocs()
	id := t.tr.begin(kModelGraph)
	g := t.d.Graph()
	d := t.tr.end(id)
	a1 := heapAllocs()
	t.tr.mu.Lock()
	t.tr.graphMs = append(t.tr.graphMs, ms(d))
	t.tr.graphB += a1 - a0
	t.tr.edges += int64(g.M())
	t.tr.mu.Unlock()
	return g
}

// deltaFwd adds a timed StepDelta to the wrapper of a DeltaDynamics.
type deltaFwd struct{ t *tracedDyn }

func (f deltaFwd) StepDelta() graph.Delta {
	id := f.t.tr.begin(kModelStepDelta)
	delta := f.t.dd.StepDelta()
	d := f.t.tr.end(id)
	f.t.tr.mu.Lock()
	f.t.tr.stepMs = append(f.t.tr.stepMs, ms(d))
	f.t.tr.churn += int64(len(delta.Births) + len(delta.Deaths))
	f.t.tr.mu.Unlock()
	return delta
}

// wrap returns d behind a timing wrapper that implements exactly the
// optional interfaces d implements: the engine type-asserts
// DeltaDynamics (delta snapshot path), DegreeHinter (push→pull switch
// point) and Parallelizable (snapshot build workers), so adding or
// dropping one would change what the engine runs. *core.Static is
// returned as is, because the engine detects it to arm the skip layer.
func (t *tracer) wrap(d core.Dynamics) core.Dynamics {
	if _, ok := d.(*core.Static); ok {
		return d
	}
	w := &tracedDyn{d: d, tr: t}
	dd, isDelta := d.(core.DeltaDynamics)
	h, isHint := d.(core.DegreeHinter)
	p, isPar := d.(core.Parallelizable)
	w.dd = dd
	df := deltaFwd{w}
	switch {
	case isDelta && isHint && isPar:
		return struct {
			*tracedDyn
			deltaFwd
			core.DegreeHinter
			core.Parallelizable
		}{w, df, h, p}
	case isDelta && isHint:
		return struct {
			*tracedDyn
			deltaFwd
			core.DegreeHinter
		}{w, df, h}
	case isDelta && isPar:
		return struct {
			*tracedDyn
			deltaFwd
			core.Parallelizable
		}{w, df, p}
	case isHint && isPar:
		return struct {
			*tracedDyn
			core.DegreeHinter
			core.Parallelizable
		}{w, h, p}
	case isDelta:
		return struct {
			*tracedDyn
			deltaFwd
		}{w, df}
	case isHint:
		return struct {
			*tracedDyn
			core.DegreeHinter
		}{w, h}
	case isPar:
		return struct {
			*tracedDyn
			core.Parallelizable
		}{w, p}
	}
	return w
}

// timedRunner wraps the server's Runner and records each execution's
// queue wait and run time. The queue wait runs from the first send of
// the spec's hash, which the generator notes, to the start of Execute.
type timedRunner struct {
	inner serve.Runner
	tr    *tracer

	mu       sync.Mutex
	sent     map[string]sendNote // hash → first send
	queueMs  []float64
	execMs   []float64
	overhead time.Duration // time spent in the wrapper's own bookkeeping
}

type sendNote struct {
	op int32
	at time.Time
}

func newTimedRunner(inner serve.Runner, tr *tracer) *timedRunner {
	return &timedRunner{inner: inner, tr: tr, sent: map[string]sendNote{}}
}

// reset drops what the runner recorded so far and records into tr.
func (r *timedRunner) reset(tr *tracer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tr = tr
	r.sent = map[string]sendNote{}
	r.queueMs, r.execMs, r.overhead = nil, nil, 0
}

// noteSend records that op sent a submission of hash at the given time.
func (r *timedRunner) noteSend(hash string, op int, at time.Time) {
	r.mu.Lock()
	if _, ok := r.sent[hash]; !ok {
		r.sent[hash] = sendNote{op: int32(op), at: at}
	}
	r.mu.Unlock()
}

func (r *timedRunner) Execute(ctx context.Context, s spec.Spec, sink func(serve.Event)) (*serve.Result, error) {
	start := time.Now()
	hash, herr := s.Hash()
	r.mu.Lock()
	note, ok := r.sent[hash]
	tr := r.tr
	r.mu.Unlock()
	ok = ok && herr == nil
	begin := time.Now()
	res, err := r.inner.Execute(ctx, s, sink)
	end := time.Now()
	op := int32(-1)
	if ok {
		op = note.op
		tr.record(kQueue, op, note.at, begin)
	}
	tr.record(kExecute, op, begin, end)
	r.mu.Lock()
	if ok {
		r.queueMs = append(r.queueMs, ms(begin.Sub(note.at)))
	}
	r.execMs = append(r.execMs, ms(end.Sub(begin)))
	r.overhead += begin.Sub(start) + time.Since(end)
	r.mu.Unlock()
	return res, err
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
