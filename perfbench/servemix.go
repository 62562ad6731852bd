package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"reflect"
	"slices"
	"sync"
	"time"

	"meg/internal/flood"
	"meg/internal/rng"
	"meg/internal/serve"
	"meg/internal/spec"
)

// The serve-mix traffic: open-loop arrivals at a fixed rate against one
// shard with one job worker. mixInterval keeps the executor busy about a
// quarter of the time, so queue wait stays a minor part of job latency
// even when the host runs slow.
// Each block of mixBlock submissions holds mixBlockNew new specs, one
// resend of a new spec sent right behind it, which coalesces, and resends
// of uniformly chosen earlier specs, which hit the cache. The seed orders
// each block and picks the resent specs and every spec seed, so the mix
// is the same for every seed.
const (
	mixInterval  = time.Second / 14 // between submissions
	mixBlock     = 10
	mixBlockNew  = 6
	mixConns     = 2 // keep-alive connections of the generator
	mixQueue     = 64
	directChecks = 24 // unique specs re-run directly after the window
	warmupJobs   = 40 // per fixture build
	drainTimeout = 60 * time.Second
)

// mixShapes are the unique-spec templates; %d is the spec seed. Every
// spec runs with workers=1 on n ≤ 1024 nodes. The trial counts make every
// shape execute in 25–35 ms: long enough that a host stall of a few ms
// moves a job little, and short enough that a host running at half speed
// still finishes each job before the next one is due, so a slow host
// does not turn into queueing. (With 60 one-trial jobs/s the tail moved
// 2× between runs; with a 55 ms torus shape at 16 jobs/s the median did.)
var mixShapes = []string{
	`{"model":{"name":"geometric","n":512},"trials":4,"seed":%d,"workers":1,"parallelism":1}`,
	`{"model":{"name":"edge","n":1024},"trials":4,"seed":%d,"workers":1,"parallelism":1}`,
	`{"model":{"name":"torus","n":512,"jump":0.2},"trials":2,"seed":%d,"workers":1,"parallelism":1,"snapshot":"delta"}`,
	`{"model":{"name":"geometric","n":256},"protocol":{"name":"push-pull"},"trials":4,"seed":%d,"workers":1,"parallelism":1}`,
}

// submission is one scheduled POST, due at the given offset from the
// start of the schedule.
type submission struct {
	body []byte
	hash string
	due  time.Duration
}

// mixSchedule derives count submissions from seed, block by block. A
// block holds mixBlockNew new specs, taking the shapes in turn, and
// resends of uniformly chosen earlier specs, which hit the cache, in an
// order the seed picks, one slot of mixInterval each. The block's first
// new spec is also resent in its own slot, right behind it, so that the
// resend reaches the server while the job is queued or running and
// coalesces. A block of mixBlock submissions thus fills mixBlock−1
// slots. Every resend repeats its spec byte for byte.
func mixSchedule(seed uint64, count int) ([]submission, error) {
	r := rng.New(seed)
	var uniq []submission
	out := make([]submission, 0, count)
	slot := 0
	for len(out) < count {
		isNew := make([]bool, mixBlock-1)
		for k := 0; k < mixBlockNew; k++ {
			isNew[k] = true
		}
		r.Shuffle(len(isNew), func(a, b int) { isNew[a], isNew[b] = isNew[b], isNew[a] })
		if len(uniq) == 0 {
			// The first submission of a run has nothing to resend.
			k := slices.Index(isNew, true)
			isNew[0], isNew[k] = isNew[k], isNew[0]
		}
		coalescing := true
		for _, fresh := range isNew {
			if len(out) == count {
				break
			}
			due := time.Duration(slot) * mixInterval
			slot++
			if !fresh {
				sub := uniq[r.Intn(len(uniq))]
				sub.due = due
				out = append(out, sub)
				continue
			}
			body := []byte(fmt.Sprintf(mixShapes[len(uniq)%len(mixShapes)], r.Uint64()>>12))
			s, err := spec.Parse(body)
			if err != nil {
				return nil, err
			}
			h, err := s.Hash()
			if err != nil {
				return nil, err
			}
			sub := submission{body: body, hash: h, due: due}
			uniq = append(uniq, sub)
			out = append(out, sub)
			if coalescing && len(out) < count {
				out = append(out, sub)
				coalescing = false
			}
		}
	}
	return out, nil
}

// mixServer is an in-process megserve: the same constructors and wiring
// as cmd/megserve with one shard and one job worker, listening on a
// loopback port, plus the generator's HTTP client.
type mixServer struct {
	sched  *serve.Scheduler
	srv    *http.Server
	served chan struct{}
	url    string
	client *http.Client
}

// newMixServer starts the server. wrap, when non-nil, wraps the
// executor in the Runner the scheduler uses.
func newMixServer(cacheEntries int, wrap func(serve.Runner) serve.Runner) (*mixServer, error) {
	cache, err := serve.NewCache(cacheEntries, "")
	if err != nil {
		return nil, err
	}
	exec := &serve.Executor{}
	var runner serve.Runner = exec
	if wrap != nil {
		runner = wrap(exec)
	}
	ms := &mixServer{served: make(chan struct{})}
	ms.sched = serve.NewShardedScheduler(1, 1, mixQueue, runner, cache)
	ms.sched.Instrument(serve.NewMetrics())
	exec.Metrics = ms.sched.Metrics()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ms.sched.Close()
		return nil, err
	}
	ms.srv = &http.Server{Handler: serve.NewServer(ms.sched).Handler()}
	go func() {
		defer close(ms.served)
		_ = ms.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	ms.url = "http://" + ln.Addr().String() + "/v1/jobs"
	ms.client = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: mixConns, MaxIdleConnsPerHost: mixConns},
	}
	return ms, nil
}

// close stops the server and the scheduler and waits for both.
func (m *mixServer) close() {
	m.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = m.srv.Shutdown(ctx) // a timeout leaves only idle loopback connections
	<-m.served
	m.sched.Close()
}

// submitOutcome is the POST /v1/jobs response.
type submitOutcome struct {
	ID      string `json:"id"`
	Hash    string `json:"hash"`
	Outcome string `json:"outcome"`
}

// submit POSTs body and returns the job it created or joined.
func (m *mixServer) submit(body []byte) (*serve.Job, submitOutcome, error) {
	var out submitOutcome
	resp, err := m.client.Post(m.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, out, err
	}
	defer resp.Body.Close()
	derr := json.NewDecoder(resp.Body).Decode(&out)
	_, _ = io.Copy(io.Discard, resp.Body) // drain for keep-alive reuse
	if resp.StatusCode/100 != 2 {
		return nil, out, fmt.Errorf("POST: status %d", resp.StatusCode)
	}
	if derr != nil {
		return nil, out, fmt.Errorf("POST: decode: %w", derr)
	}
	j, ok := m.sched.Get(out.ID)
	if !ok {
		return nil, out, fmt.Errorf("job %s not found", out.ID)
	}
	return j, out, nil
}

// openLoop sends len(due) requests, request i due at start + due[i]
// (non-decreasing), from conns sender goroutines, and times each from its
// due time to its completion, so a stall anywhere shows in every request
// queued behind it. send submits request i and returns a channel that is
// closed when the request reaches a terminal state.
type openLoop struct {
	due     []time.Duration
	conns   int
	send    func(i int) (<-chan struct{}, error)
	timeout time.Duration // how long to wait for completions after the last send
}

type loopResult struct {
	start  time.Time
	end    time.Time // the last completion
	latMs  []float64 // due → terminal state
	lateMs []float64 // due → actual send
	errs   []error
}

func (o openLoop) run() loopResult {
	n := len(o.due)
	res := loopResult{latMs: make([]float64, n), lateMs: make([]float64, n), errs: make([]error, n)}
	doneAt := make([]time.Time, n)
	abort := make(chan struct{})
	var wg sync.WaitGroup
	idx := make(chan int)
	res.start = time.Now()
	due := func(i int) time.Time { return res.start.Add(o.due[i]) }
	wg.Add(o.conns)
	for c := 0; c < o.conns; c++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				d := due(i)
				res.lateMs[i] = ms(time.Since(d))
				done, err := o.send(i)
				if err != nil {
					res.errs[i] = err
					doneAt[i] = time.Now()
					continue
				}
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					select {
					case <-done:
						doneAt[i] = time.Now()
					case <-abort:
						res.errs[i] = errors.New("no terminal state before the drain timeout")
						doneAt[i] = time.Now()
					}
				}(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		if w := time.Until(due(i)); w > 0 {
			time.Sleep(w)
		}
		idx <- i
	}
	close(idx)
	timer := time.AfterFunc(o.timeout, func() { close(abort) })
	wg.Wait()
	timer.Stop()
	for i := range doneAt {
		res.latMs[i] = ms(doneAt[i].Sub(due(i)))
		if doneAt[i].After(res.end) {
			res.end = doneAt[i]
		}
	}
	return res
}

// lateMaxMs is how late the generator sent its latest request.
func (l loopResult) lateMaxMs() float64 {
	late := 0.0
	for _, v := range l.lateMs {
		late = math.Max(late, v)
	}
	return late
}

// runServeMix runs the serve-mix workload.
func runServeMix(cfg runConfig) (*report, error) {
	rep := &report{}
	count := int(cfg.window/mixInterval) * mixBlock / (mixBlock - 1) // fills the window
	sched, err := mixSchedule(cfg.seed, count)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	var timed *timedRunner
	var wrap func(serve.Runner) serve.Runner
	if cfg.trace {
		wrap = func(r serve.Runner) serve.Runner {
			timed = newTimedRunner(r, newTracer(0))
			return timed
		}
	}
	warm, err := mixSchedule(warmupSeed(0), warmupJobs)
	if err != nil {
		return nil, err
	}
	build := func() (*mixServer, error) {
		srv, err := newMixServer(count+warmupJobs+1, wrap)
		if err != nil {
			return nil, err
		}
		for _, w := range warm {
			j, _, err := srv.submit(w.body)
			if err != nil {
				srv.close()
				return nil, fmt.Errorf("serve-mix warm-up: %w", err)
			}
			<-j.Done()
		}
		return srv, nil
	}
	drop := func(m *mixServer) { m.close() }
	srv, err := timeBuilds(rep, setupBefore, build, drop)
	if err != nil {
		return nil, err
	}
	if timed != nil {
		tr = newTracer(0)
		timed.reset(tr)
	}

	jobs := make([]*serve.Job, count)
	outcomes := make([]string, count)
	submitMs := make([]float64, count)
	due := make([]time.Duration, count)
	for i, s := range sched {
		due[i] = s.due
	}
	loop := openLoop{due: due, conns: mixConns, timeout: drainTimeout,
		send: func(i int) (<-chan struct{}, error) {
			t0 := time.Now()
			if timed != nil {
				timed.noteSend(sched[i].hash, i, t0)
			}
			j, out, err := srv.submit(sched[i].body)
			t1 := time.Now()
			submitMs[i] = ms(t1.Sub(t0))
			if tr != nil {
				tr.record(kSubmit, int32(i), t0, t1)
			}
			if err != nil {
				return nil, err
			}
			jobs[i], outcomes[i] = j, out.Outcome
			return j.Done(), nil
		}}
	u0 := readUsage()
	lr := loop.run()
	u1 := readUsage()
	u1.wall = lr.end
	u0.wall = lr.start
	rep.usage(u0, u1)
	rep.latMs = lr.latMs
	rep.attempted = count
	rep.lateMaxMs = lr.lateMaxMs()
	if tr != nil {
		for i, l := range lr.latMs {
			at := lr.start.Add(due[i])
			tr.record(kOp, int32(i), at, at.Add(time.Duration(l*1e6)))
		}
	}

	// Output checks. Every submission must end done, with the same bytes
	// as every other submission of its spec; a seeded sample of unique
	// specs must match a direct campaign run of the canonical spec.
	first := map[string][]byte{}
	var order []string
	for i := range jobs {
		if err := lr.errs[i]; err != nil {
			rep.fail(fmt.Sprintf("job %d: %v", i, err))
			continue
		}
		if st := jobs[i].Status(); st != serve.StatusDone {
			rep.fail(fmt.Sprintf("job %d: status %s: %s", i, st, jobs[i].Err()))
			continue
		}
		data := jobs[i].Result()
		h := sched[i].hash
		if prev, ok := first[h]; !ok {
			first[h] = data
			order = append(order, h)
		} else if !bytes.Equal(prev, data) {
			rep.fail(fmt.Sprintf("job %d: %s result differs from the first result for %s", i, outcomes[i], h))
		}
	}
	bodies := map[string][]byte{}
	for _, s := range sched {
		bodies[s.hash] = s.body
	}
	pick := rng.New(cfg.seed ^ 0xd1ec7)
	for k := 0; k < directChecks && len(order) > 0; k++ {
		h := order[pick.Intn(len(order))]
		if err := checkDirect(bodies[h], first[h]); err != nil {
			rep.fail(fmt.Sprintf("spec %s: %v", h[:12], err))
		}
	}
	h := fnv.New64a()
	for _, k := range order {
		h.Write(first[k])
	}
	rep.digest = h.Sum64()
	if tr != nil {
		rep.layer = serveLayers(timed, sched, outcomes, submitMs, rep)
		rep.tracer = tr
	}
	srv.close()
	rep.peakRSSMB = peakRSSMB()
	last, err := timeBuilds(rep, setupAfter, build, drop)
	if err != nil {
		return nil, err
	}
	last.close()
	return rep, nil
}

// checkDirect runs the spec through flood.RunContext (or the protocol
// campaign) directly and compares the outcome with the served result.
func checkDirect(body, served []byte) error {
	var got serve.Result
	if err := json.Unmarshal(served, &got); err != nil {
		return fmt.Errorf("decode served result: %w", err)
	}
	s, err := spec.Parse(body)
	if err != nil {
		return err
	}
	factory, _, err := s.NewFactory()
	if err != nil {
		return err
	}
	var want serve.Result
	ctx := context.Background()
	if s.Protocol.Name == "flooding" {
		opt, err := flood.OptionsFromSpec(s)
		if err != nil {
			return err
		}
		camp, err := flood.RunContext(ctx, factory, opt)
		if err != nil {
			return err
		}
		want.CompletedTrials, want.IncompleteTrials = len(camp.Rounds), camp.Incomplete
		for _, t := range camp.Trials {
			want.Trials = append(want.Trials, serve.TrialResult{Source: t.Result.Source, Rounds: t.Result.Rounds,
				Completed: t.Result.Completed, RoundsToHalf: t.RoundsToHalf})
		}
		want.Trajectory = camp.Trials[0].Result.Trajectory
	} else {
		opt, err := flood.ProtocolOptionsFromSpec(s)
		if err != nil {
			return err
		}
		camp, err := flood.RunProtocolContext(ctx, factory, opt)
		if err != nil {
			return err
		}
		want.CompletedTrials, want.IncompleteTrials = len(camp.Rounds), camp.Incomplete
		for _, t := range camp.Trials {
			want.Trials = append(want.Trials, serve.TrialResult{Source: t.Result.Source, Rounds: t.Result.Rounds,
				Completed: t.Result.Completed, RoundsToHalf: t.RoundsToHalf, Messages: t.Result.Messages})
		}
		want.Trajectory = camp.Trials[0].Result.Trajectory
	}
	if got.IncompleteTrials != 0 {
		return fmt.Errorf("%d trials hit the round cap", got.IncompleteTrials)
	}
	if got.CompletedTrials != want.CompletedTrials || !reflect.DeepEqual(got.Trials, want.Trials) || !reflect.DeepEqual(got.Trajectory, want.Trajectory) {
		return errors.New("served result differs from a direct campaign run")
	}
	return nil
}

// serveLayers computes the per-layer metrics of a traced serve-mix run.
func serveLayers(r *timedRunner, sched []submission, outcomes []string, submitMs []float64, rep *report) map[string]metric {
	m := layerMetrics()
	set := func(name string, v float64) {
		mm := m[name]
		mm.Value = v
		m[name] = mm
	}
	var canon []float64
	for _, s := range sched {
		t0 := time.Now()
		sp, err := spec.Parse(s.body)
		if err == nil {
			_, err = sp.Canonical()
		}
		if err == nil {
			_, err = sp.Hash()
		}
		canon = append(canon, float64(time.Since(t0))/1e3)
		if err != nil {
			rep.fail(fmt.Sprintf("spec re-parse: %v", err))
		}
	}
	set("spec.canonical_us_p50", median(canon))
	sub := summarize(submitMs)
	set("serve.submit_ms_p50", sub.p50)
	set("serve.submit_ms_tail", sub.tail)
	r.mu.Lock()
	defer r.mu.Unlock()
	q, ex := summarize(r.queueMs), summarize(r.execMs)
	set("serve.queue_wait_ms_p50", q.p50)
	set("serve.queue_wait_ms_tail", q.tail)
	set("serve.execute_ms_p50", ex.p50)
	set("serve.execute_ms_tail", ex.tail)
	var busy float64
	for _, e := range r.execMs {
		busy += e
	}
	set("serve.executor_busy_share", busy/ms(rep.window))
	dedup := 0
	for _, o := range outcomes {
		if o == string(serve.OutcomeCached) || o == string(serve.OutcomeCoalesced) {
			dedup++
		}
	}
	set("serve.dedup_share", float64(dedup)/float64(len(outcomes)))
	set("serve.executed_jobs", float64(len(r.execMs)))
	set("harness.gen_late_ms_max", rep.lateMaxMs)
	set("harness.trace_overhead_share", ms(r.overhead)/busy)
	return m
}
