package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"meg/internal/spec"
)

// JobStatus is the lifecycle state of a job.
type JobStatus string

const (
	StatusQueued   JobStatus = "queued"
	StatusRunning  JobStatus = "running"
	StatusDone     JobStatus = "done"
	StatusFailed   JobStatus = "failed"
	StatusCanceled JobStatus = "canceled"
)

// terminal reports whether the status is final.
func (s JobStatus) terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Outcome classifies what Submit did with a spec.
type Outcome string

const (
	// OutcomeQueued means a new simulation was scheduled.
	OutcomeQueued Outcome = "queued"
	// OutcomeCoalesced means an identical spec was already queued or
	// running and the caller was attached to that job (single-flight).
	OutcomeCoalesced Outcome = "coalesced"
	// OutcomeCached means the result was served from the cache without
	// any simulation.
	OutcomeCached Outcome = "cached"
)

// Progress is a job's live counters.
type Progress struct {
	// Trials is the total number of trials the spec requests.
	Trials int `json:"trials"`
	// TrialsDone counts finished trials.
	TrialsDone int `json:"trialsDone"`
	// Round/Informed are the latest per-round report from any trial.
	Round    int `json:"round,omitempty"`
	Informed int `json:"informed,omitempty"`
	// Events counts progress events recorded so far.
	Events int `json:"events"`
}

// maxEventHistory bounds each job's replayable event history; beyond
// it the oldest events are dropped (live subscribers still see
// everything they keep up with).
const maxEventHistory = 4096

// Job is one scheduled spec execution.
type Job struct {
	// ID is the scheduler-assigned job identifier.
	ID string
	// Hash is the spec's content address.
	Hash string
	// Spec is the canonical spec.
	Spec spec.Spec

	cancel context.CancelFunc
	ctx    context.Context
	done   chan struct{}

	metrics    *Metrics  // nil unless the scheduler is instrumented
	shard      int       // worker-pool shard the spec hash routes to
	enqueuedAt time.Time // set at submission
	startedAt  time.Time // set at worker pickup

	mu        sync.Mutex
	status    JobStatus
	progress  Progress
	result    []byte
	errMsg    string
	events    []Event
	dropped   int // events evicted from history
	subs      map[chan Event]struct{}
	closed    bool
	receivers []string // webhook URLs notified on completion (deduped)
}

// Status returns the job's current status.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Shard returns the worker-pool shard the job's spec hash routed to.
func (j *Job) Shard() int { return j.shard }

// addReceivers appends webhook URLs to the job's notification list,
// dropping exact duplicates — coalesced submissions each contribute
// their receivers, and every distinct one is notified once.
func (j *Job) addReceivers(urls []string) {
	if len(urls) == 0 {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, u := range urls {
		dup := false
		for _, have := range j.receivers {
			if have == u {
				dup = true
				break
			}
		}
		if !dup {
			j.receivers = append(j.receivers, u)
		}
	}
}

// receiverList snapshots the job's receiver URLs.
func (j *Job) receiverList() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]string(nil), j.receivers...)
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the marshaled result bytes (nil until done).
func (j *Job) Result() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Err returns the failure message ("" unless status is failed).
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errMsg
}

// View is the API snapshot of a job.
type View struct {
	ID       string          `json:"id"`
	Hash     string          `json:"hash"`
	Status   JobStatus       `json:"status"`
	Progress Progress        `json:"progress"`
	Error    string          `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

// View snapshots the job; the result bytes are included only when
// withResult is set (job listings stay small, job GETs carry data).
func (j *Job) View(withResult bool) View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{ID: j.ID, Hash: j.Hash, Status: j.status, Progress: j.progress, Error: j.errMsg}
	if withResult && j.result != nil {
		v.Result = json.RawMessage(j.result)
	}
	return v
}

// record folds a progress event into the job's counters, history, and
// live subscriber channels. Slow subscribers lose events rather than
// stalling the simulation.
func (j *Job) record(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	switch e.Type {
	case "round":
		j.progress.Round, j.progress.Informed = e.Round, e.Informed
	case "trial":
		j.progress.TrialsDone++
	}
	j.progress.Events++
	j.events = append(j.events, e)
	if len(j.events) > maxEventHistory {
		over := len(j.events) - maxEventHistory
		j.events = append(j.events[:0:0], j.events[over:]...)
		j.dropped += over
	}
	for ch := range j.subs {
		select {
		case ch <- e:
		default: // subscriber too slow; drop
			j.metrics.sseDroppedEvent()
		}
	}
}

// Subscribe returns the replayable event history plus a channel of
// subsequent live events. The channel is closed when the job reaches a
// terminal state; call unsubscribe to detach early.
func (j *Job) Subscribe() (replay []Event, live <-chan Event, unsubscribe func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay = append([]Event(nil), j.events...)
	ch := make(chan Event, 256)
	if j.closed {
		close(ch)
		return replay, ch, func() {}
	}
	j.subs[ch] = struct{}{}
	j.metrics.sseSubscribed()
	return replay, ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
			j.metrics.sseUnsubscribed(1)
		}
	}
}

// finish moves the job to a terminal state, publishes the terminal
// event, and closes every subscriber channel and the done channel.
func (j *Job) finish(status JobStatus, result []byte, errMsg string) {
	terminalEvent := Event{Type: string(status)}
	if status == StatusDone {
		terminalEvent.Type = "done"
	}
	if errMsg != "" {
		terminalEvent.Type = "error"
		terminalEvent.Message = errMsg
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return
	}
	j.status = status
	j.result = result
	j.errMsg = errMsg
	j.events = append(j.events, terminalEvent)
	j.closed = true
	subs := j.subs
	j.subs = map[chan Event]struct{}{}
	j.mu.Unlock()
	for ch := range subs {
		select {
		case ch <- terminalEvent:
		default:
			j.metrics.sseDroppedEvent()
		}
		close(ch)
	}
	j.metrics.sseUnsubscribed(len(subs))
	j.metrics.jobFinished(status)
	close(j.done)
}

// Scheduler owns the worker pools, the job table, and the single-flight
// index: at most one simulation per spec hash is in flight, identical
// submissions attach to it, and completed results are served from the
// content-addressed cache without simulating at all.
//
// The worker pool is horizontally sharded by spec hash: each shard has
// its own queue and its own workers, and a spec always routes to the
// same shard (shardFor is a pure function of the content hash), so the
// global single-flight index never has to coordinate across shards —
// two identical submissions land on one shard and coalesce there, and
// one hot spec can never head-of-line-block every pool at once.
type Scheduler struct {
	runner Runner
	cache  *Cache

	baseCtx  context.Context
	stop     context.CancelFunc
	queues   []chan *Job // one hash-partitioned queue per shard
	wg       sync.WaitGroup
	notifier *notifier

	metrics *Metrics // nil until Instrument; read-only afterwards

	mu       sync.Mutex
	jobs     map[string]*Job
	active   map[string]*Job // queued/running jobs by spec hash
	finished []string        // terminal job IDs, oldest first (bounded)
	nextID   int
	closed   bool
	draining bool
}

// maxFinishedJobs bounds how many terminal jobs stay addressable by ID;
// beyond it the oldest are dropped from the job table (their results
// remain reachable by content hash through the cache), keeping a
// long-running server's memory bounded under sustained traffic.
const maxFinishedJobs = 1024

// NewScheduler starts a single-shard scheduler with the given worker
// count (≤ 0 selects 2) and queue capacity (≤ 0 selects 64). Close
// releases it.
func NewScheduler(workers, queueCap int, runner Runner, cache *Cache) *Scheduler {
	return NewShardedScheduler(1, workers, queueCap, runner, cache)
}

// NewShardedScheduler starts a scheduler whose worker pool is split
// into shards independent pools (≤ 0 selects 1), each with its own
// queue of capacity queueCap (≤ 0 selects 64). workers is the total
// worker count (≤ 0 selects 2), distributed as evenly as possible with
// at least one worker per shard — so shards > workers raises the
// effective worker count to one per shard. Jobs route to shards by
// spec content hash: identical specs always share a shard, which keeps
// single-flight coalescing a per-shard property.
func NewShardedScheduler(shards, workers, queueCap int, runner Runner, cache *Cache) *Scheduler {
	if shards <= 0 {
		shards = 1
	}
	if workers <= 0 {
		workers = 2
	}
	if queueCap <= 0 {
		queueCap = 64
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		runner:   runner,
		cache:    cache,
		baseCtx:  ctx,
		stop:     cancel,
		queues:   make([]chan *Job, shards),
		notifier: newNotifier(),
		jobs:     make(map[string]*Job),
		active:   make(map[string]*Job),
	}
	per, rem := workers/shards, workers%shards
	for i := range s.queues {
		s.queues[i] = make(chan *Job, queueCap)
		n := per
		if i < rem {
			n++
		}
		if n == 0 {
			n = 1
		}
		s.wg.Add(n)
		for w := 0; w < n; w++ {
			go s.worker(s.queues[i])
		}
	}
	return s
}

// Shards returns the number of worker-pool shards.
func (s *Scheduler) Shards() int { return len(s.queues) }

// shardFor routes a spec content hash to a shard: FNV-1a over the hash
// string, reduced mod the shard count. Pure and stable — the same hash
// maps to the same shard for the life of the process, which is what
// keeps coalescing correct without cross-shard coordination.
func shardFor(hash string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(hash))
	return int(h.Sum32() % uint32(shards))
}

// Instrument attaches a metrics bundle to the scheduler and its cache.
// Call it once, before the scheduler receives traffic; nil detaches
// nothing (recording methods are nil-safe either way).
func (s *Scheduler) Instrument(m *Metrics) {
	s.metrics = m
	if s.cache != nil {
		s.cache.metrics = m
	}
	s.notifier.metrics = m
}

// Metrics returns the attached bundle (nil when uninstrumented) so the
// process can hand it to collaborators, e.g. Executor.Metrics.
func (s *Scheduler) Metrics() *Metrics { return s.metrics }

// BeginDrain marks the scheduler as draining: submissions keep working
// (in-flight HTTP requests settle normally during graceful shutdown)
// but /healthz flips to 503 so load balancers stop routing new traffic
// here. Close implies draining.
func (s *Scheduler) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Draining reports whether the scheduler is draining or closed.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining || s.closed
}

// Submit schedules a spec. The returned outcome distinguishes a fresh
// simulation (queued) from single-flight attachment (coalesced) and a
// pure cache hit (cached, job already done).
func (s *Scheduler) Submit(sp spec.Spec) (*Job, Outcome, error) {
	c, err := sp.Canonical()
	if err != nil {
		return nil, "", err
	}
	hash, err := c.Hash()
	if err != nil {
		return nil, "", err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, "", fmt.Errorf("serve: scheduler is shut down")
	}
	// Single-flight: an identical spec already in flight absorbs the
	// submission — its receivers ride along on the absorbing job.
	if j, ok := s.active[hash]; ok {
		j.addReceivers(c.Receivers)
		s.metrics.submission(OutcomeCoalesced)
		return j, OutcomeCoalesced, nil
	}
	if data, ok := s.cache.Get(hash); ok {
		j := s.newJobLocked(hash, c)
		j.cancel() // never runs; release the context immediately
		j.finish(StatusDone, data, "")
		s.retireLocked(j)
		s.metrics.submission(OutcomeCached)
		s.notifier.dispatch(j)
		return j, OutcomeCached, nil
	}
	j := s.newJobLocked(hash, c)
	select {
	case s.queues[j.shard] <- j:
	default:
		j.cancel()
		delete(s.jobs, j.ID)
		return nil, "", fmt.Errorf("serve: job queue full on shard %d (%d pending)", j.shard, cap(s.queues[j.shard]))
	}
	s.active[hash] = j
	s.metrics.submission(OutcomeQueued)
	s.metrics.jobQueued(j.shard)
	return j, OutcomeQueued, nil
}

// retire records a terminal job and evicts the oldest terminal jobs
// beyond maxFinishedJobs from the table.
func (s *Scheduler) retire(j *Job) {
	s.mu.Lock()
	s.retireLocked(j)
	s.mu.Unlock()
}

func (s *Scheduler) retireLocked(j *Job) {
	s.finished = append(s.finished, j.ID)
	for len(s.finished) > maxFinishedJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// newJobLocked allocates and registers a job; the caller holds s.mu.
func (s *Scheduler) newJobLocked(hash string, c spec.Spec) *Job {
	s.nextID++
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &Job{
		ID:         fmt.Sprintf("j%06d", s.nextID),
		Hash:       hash,
		Spec:       c,
		ctx:        ctx,
		cancel:     cancel,
		done:       make(chan struct{}),
		metrics:    s.metrics,
		shard:      shardFor(hash, len(s.queues)),
		enqueuedAt: time.Now(),
		status:     StatusQueued,
		subs:       map[chan Event]struct{}{},
		receivers:  append([]string(nil), c.Receivers...),
	}
	j.progress.Trials = c.Trials
	s.jobs[j.ID] = j
	return j
}

// Get returns a job by ID.
func (s *Scheduler) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a job. It returns false if the job
// does not exist; cancelling a finished job is a no-op that returns
// true.
func (s *Scheduler) Cancel(id string) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return false
	}
	j.cancel()
	// A queued job never reaches a worker promptly; finish it here so
	// waiters and subscribers are released immediately. Running jobs
	// are finished by their worker when the context error surfaces.
	j.mu.Lock()
	queued := j.status == StatusQueued
	j.mu.Unlock()
	if queued {
		s.detach(j)
		j.finish(StatusCanceled, nil, "")
		s.retire(j)
		s.notifier.dispatch(j)
	}
	return true
}

// detach removes a job from the single-flight index if it is still the
// active entry for its hash.
func (s *Scheduler) detach(j *Job) {
	s.mu.Lock()
	if s.active[j.Hash] == j {
		delete(s.active, j.Hash)
	}
	s.mu.Unlock()
}

// Counts returns the number of jobs per status — the health endpoint's
// payload.
func (s *Scheduler) Counts() map[JobStatus]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	counts := make(map[JobStatus]int)
	for _, j := range s.jobs {
		counts[j.Status()]++
	}
	return counts
}

// Close stops accepting submissions, cancels every in-flight job,
// waits for the workers to drain, and then for pending receiver
// notifications to settle (delivery is bounded by the retry budget, so
// the wait is too).
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, q := range s.queues {
		close(q)
	}
	s.mu.Unlock()
	s.stop()
	s.wg.Wait()
	s.notifier.wait()
}

// worker drains one shard's queue, running one job at a time.
func (s *Scheduler) worker(queue chan *Job) {
	defer s.wg.Done()
	for j := range queue {
		s.runJob(j)
	}
}

// execute runs the job's spec through the runner, converting a panic —
// a spec whose run trips a model invariant or a protocol precondition —
// into an ordinary error so one poisoned job can never take down the
// worker (and with it the whole server). The panic message lands in
// the job's event history via the failed status.
func (s *Scheduler) execute(j *Job) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("panic while executing spec: %v", p)
		}
	}()
	return s.runner.Execute(j.ctx, j.Spec, j.record)
}

// runJob executes one job end to end: run the spec, marshal the
// result, populate the cache, release the single-flight slot, finish
// the job. The slot goes first, so a resubmission made after the job
// reports done finds the cache entry instead of the finished job.
func (s *Scheduler) runJob(j *Job) {
	s.metrics.jobDequeued(j.shard)
	j.mu.Lock()
	if j.status != StatusQueued {
		// Cancelled while queued; already finished by Cancel.
		j.mu.Unlock()
		s.detach(j)
		return
	}
	j.status = StatusRunning
	j.mu.Unlock()
	j.startedAt = time.Now()
	s.metrics.jobStarted(j.startedAt.Sub(j.enqueuedAt))

	res, err := s.execute(j)
	s.metrics.jobRanFor(time.Since(j.startedAt))
	var status JobStatus
	var data []byte
	var errMsg string
	switch {
	case j.ctx.Err() != nil:
		status = StatusCanceled
	case err != nil:
		status, errMsg = StatusFailed, err.Error()
	default:
		data, err = json.Marshal(res)
		if err != nil {
			status, errMsg = StatusFailed, fmt.Sprintf("marshal result: %v", err)
		} else {
			status = StatusDone
			s.cache.Put(j.Hash, data)
		}
	}
	s.detach(j)
	j.finish(status, data, errMsg)
	j.cancel() // release the context's resources
	s.retire(j)
	s.notifier.dispatch(j)
}
