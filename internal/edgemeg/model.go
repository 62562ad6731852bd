package edgemeg

import (
	"fmt"
	"math"
	"slices"

	"meg/internal/graph"
	"meg/internal/par"
	"meg/internal/rng"
)

// InitMode selects the distribution of the initial snapshot G_0.
type InitMode int

const (
	// InitStationary samples G_0 ~ G(n, p̂), the stationary
	// distribution — the paper's stationary edge-MEG and the setting of
	// Theorems 4.3/4.4.
	InitStationary InitMode = iota
	// InitEmpty starts from the edgeless graph: the worst-case initial
	// distribution used to exhibit the stationary/worst-case gap.
	InitEmpty
	// InitComplete starts from the complete graph.
	InitComplete
	// InitGraph starts from an explicit caller-provided graph.
	InitGraph
)

// String returns a short label for the mode.
func (m InitMode) String() string {
	switch m {
	case InitStationary:
		return "stationary"
	case InitEmpty:
		return "empty"
	case InitComplete:
		return "complete"
	case InitGraph:
		return "graph"
	default:
		return fmt.Sprintf("InitMode(%d)", int(m))
	}
}

// Config parameterizes an edge-Markovian evolving graph.
type Config struct {
	// N is the number of nodes.
	N int
	// P is the birth rate: an absent edge appears at the next step with
	// probability P.
	P float64
	// Q is the death rate: a present edge disappears at the next step
	// with probability Q.
	Q float64
	// Init selects the initial distribution (default InitStationary).
	Init InitMode
	// Start is the initial snapshot when Init == InitGraph.
	Start *graph.Graph
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("edgemeg: need at least 2 nodes, got %d", c.N)
	}
	if c.P < 0 || c.P > 1 {
		return fmt.Errorf("edgemeg: birth rate p=%g outside [0,1]", c.P)
	}
	if c.Q < 0 || c.Q > 1 {
		return fmt.Errorf("edgemeg: death rate q=%g outside [0,1]", c.Q)
	}
	if c.Init == InitStationary && c.P+c.Q == 0 {
		return fmt.Errorf("edgemeg: stationary init requires p+q > 0")
	}
	if c.Init == InitGraph {
		if c.Start == nil {
			return fmt.Errorf("edgemeg: InitGraph requires a Start graph")
		}
		if c.Start.N() != c.N {
			return fmt.Errorf("edgemeg: Start graph has %d nodes, want %d", c.Start.N(), c.N)
		}
	}
	return nil
}

// PHat returns the stationary edge marginal p̂ = p/(p+q); it panics if
// p+q == 0 (no unique stationary distribution).
func (c Config) PHat() float64 {
	if c.P+c.Q == 0 {
		panic("edgemeg: p̂ undefined for p = q = 0")
	}
	return c.P / (c.P + c.Q)
}

// Model is an edge-Markovian evolving graph. It implements
// core.Dynamics. The zero value is unusable; construct with New.
//
// The Θ(n²) pair-index space is split into a fixed number of
// contiguous shards (a function of n only, never of the worker count),
// each owning an independent RNG stream split from the trial generator
// at Reset in shard order. Step resamples every shard's births and
// deaths from its own stream, so the chain's realization is identical
// for every parallelism setting — the worker pool only decides how many
// shards resample concurrently.
type Model struct {
	cfg Config
	r   *rng.RNG

	// edges holds the current edge set as packPair keys in ascending
	// (lexicographic) order. Shard key ranges are contiguous, so the
	// concatenation of per-shard outputs in shard order is sorted.
	edges []uint64

	// shards partitions the pair-index space [0, C(n,2)).
	shards []edgeShard

	// parallel is the Step/Graph worker count (core.Parallelizable);
	// realizations and snapshots are byte-identical for every value.
	parallel int

	// asm assembles the snapshot straight from edges: the ascending
	// keys grouped by u are the upper rows.
	asm   *graph.Assembler
	g     *graph.Graph
	dirty bool

	// merged is the double buffer every shard writes its next slice
	// into before it swaps with edges.
	merged []uint64
	// starts[i] is the offset of shard i's slice (len(shards)+1
	// entries): in edges while the shards sample, in merged while they
	// write.
	starts []int
	// stepFn and writeFn are Step's per-shard phases, bound in New.
	stepFn, writeFn func(shard int)
	// deltaBirths/deltaDeaths are StepDelta's concatenation buffers.
	deltaBirths []uint64
	deltaDeaths []uint64
}

// edgeShard owns the contiguous pair-index range [lo, hi) together with
// the RNG stream and scratch buffers its resampling uses.
type edgeShard struct {
	lo, hi int64  // pair-index range
	loKey  uint64 // packPair key of pair lo
	r      *rng.RNG

	// edges is the shard's time-t slice while a step is in flight, and
	// births the step's birth candidates.
	edges, births []uint64
	// birthsEff and deaths are the step's realized delta — the edges
	// that flipped absent→present and present→absent, ascending — and
	// birthAt/deathAt their positions in edges: a birth goes in front
	// of edges[birthAt[k]], a death removes edges[deathAt[k]]. StepDelta
	// concatenates the keys; write splices by the positions.
	birthsEff, deaths []uint64
	birthAt, deathAt  []int
}

// shardTargetPairs sizes the pair-space shards: big enough that the
// per-shard skip-sampling loop dominates the fork/join overhead, small
// enough that a many-core pool has work to balance.
const shardTargetPairs = 1 << 21

// maxShards bounds the shard count (and hence the per-Reset stream
// splits) for very large n.
const maxShards = 64

// shardCountFor returns the number of pair-space shards for n nodes — a
// function of n only, so the chain's realization never depends on the
// worker count.
func shardCountFor(n int) int {
	s := PairCount(n) / shardTargetPairs
	if s < 1 {
		return 1
	}
	if s > maxShards {
		return maxShards
	}
	return int(s)
}

// New returns a model for the given configuration. The model is not
// usable until Reset is called.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{cfg: cfg, asm: graph.NewAssembler(cfg.N)}
	s := shardCountFor(cfg.N)
	total := PairCount(cfg.N)
	m.shards = make([]edgeShard, s)
	m.starts = make([]int, s+1)
	for i := range m.shards {
		lo := total * int64(i) / int64(s)
		hi := total * int64(i+1) / int64(s)
		u, v := PairAt(cfg.N, lo)
		m.shards[i] = edgeShard{lo: lo, hi: hi, loKey: packPair(u, v)}
	}
	m.stepFn = func(i int) {
		m.shards[i].step(m.cfg.N, m.cfg.P, m.cfg.Q, m.edges[m.starts[i]:m.starts[i+1]])
	}
	m.writeFn = func(i int) { m.shards[i].write(m.merged[m.starts[i]:m.starts[i+1]]) }
	return m, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config) *Model {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// N implements core.Dynamics.
func (m *Model) N() int { return m.cfg.N }

// EdgeCount returns |E_t| of the current snapshot.
func (m *Model) EdgeCount() int { return len(m.edges) }

// ExpectedDegree implements core.DegreeHinter: the stationary expected
// degree (n−1)·p̂, which positions the flooding engine's push→pull
// switch. For the frozen chain (p = q = 0) the degree never changes
// from the initial snapshot, so the hint comes from that instead. The
// hint affects kernel choice (speed) only, never results.
func (m *Model) ExpectedDegree() float64 {
	if m.cfg.P+m.cfg.Q == 0 {
		switch m.cfg.Init {
		case InitComplete:
			return float64(m.cfg.N - 1)
		case InitGraph:
			return m.cfg.Start.AvgDegree()
		default:
			return 0
		}
	}
	return float64(m.cfg.N-1) * m.cfg.PHat()
}

// ExpectedChurn implements core.ChurnHinter: the stationary expected
// |births| + |deaths| of one step. At stationarity q·m̄ deaths balance
// p·(C(n,2) − m̄) births, with m̄ = C(n,2)·p̂, so the sum is
// 2q·p̂·C(n,2) = q·n·(n−1)·p̂. The frozen chain (p = q = 0) never
// churns. The hint decides the engines' snapshot path (speed) only,
// never results.
func (m *Model) ExpectedChurn() float64 {
	if m.cfg.P+m.cfg.Q == 0 {
		return 0
	}
	return m.cfg.Q * float64(m.cfg.N) * m.ExpectedDegree()
}

// SetParallelism implements core.Parallelizable: Step resamples its
// pair-space shards and Graph assembles the snapshot on up to workers
// goroutines. Because every shard draws from its own stream regardless
// of scheduling, the realization is byte-identical for every worker
// count. 0 or 1 runs serially; < 0 uses all CPUs.
func (m *Model) SetParallelism(workers int) {
	if workers == 0 {
		workers = 1
	}
	m.parallel = par.Workers(workers)
}

// Reset implements core.Dynamics: it samples a fresh G_0 according to
// the configured InitMode, and splits one RNG stream per pair-space
// shard from r (in shard order) for subsequent steps.
func (m *Model) Reset(r *rng.RNG) {
	m.r = r
	for i := range m.shards {
		m.shards[i].r = r.Split()
	}
	m.edges = m.edges[:0]
	switch m.cfg.Init {
	case InitStationary:
		// Each shard samples the G(n, p̂) restriction to its own index
		// range from its own stream — the same product of independent
		// Bernoulli(p̂) trials, partitioned; the concatenation in shard
		// order is sorted because shard key ranges are contiguous.
		pHat := m.cfg.PHat()
		workers := m.parallel
		par.Do(workers, len(m.shards), func(i int) {
			sh := &m.shards[i]
			sh.births = appendGNPKeysRange(sh.births[:0], m.cfg.N, pHat, sh.lo, sh.hi, sh.r)
		})
		total := 0
		for i := range m.shards {
			total += len(m.shards[i].births)
		}
		m.edges = slices.Grow(m.edges, total)
		for i := range m.shards {
			m.edges = append(m.edges, m.shards[i].births...)
		}
	case InitEmpty:
		// nothing
	case InitComplete:
		for u := 0; u < m.cfg.N; u++ {
			for v := u + 1; v < m.cfg.N; v++ {
				m.edges = append(m.edges, packPair(u, v))
			}
		}
	case InitGraph:
		m.cfg.Start.ForEachEdge(func(u, v int) {
			m.edges = append(m.edges, packPair(u, v))
		})
		slices.Sort(m.edges)
	default:
		panic("edgemeg: unknown init mode")
	}
	m.dirty = true
}

// Step implements core.Dynamics: every present edge dies independently
// with probability q and every absent edge is born independently with
// probability p, exactly as the per-pair transition matrix prescribes.
//
// Births are drawn by geometric skip sampling over each shard's
// pair-index range; candidates that land on currently present pairs are
// discarded, which leaves precisely an independent Bernoulli(p) trial
// on each absent pair. Deaths are drawn by skip sampling over each
// shard's slice of the current edge list, each skip landing directly on
// the next dying position. Expected cost O(p·C(n,2) + q·|E_t|) draws
// and collision searches, each draw O(1) (one logarithm, hoisted
// log(1−p), a row-walk decode), plus one bulk copy of the untouched
// runs of E_t, spread over the worker pool; every shard draws from its
// own stream, so the realization does not depend on the worker count.
func (m *Model) Step() {
	if m.r == nil {
		panic("edgemeg: Step before Reset")
	}

	// Locate each shard's slice of the (sorted) edge list. Shard i owns
	// keys in [loKey_i, loKey_{i+1}).
	s := len(m.shards)
	m.starts[0] = 0
	for i := 1; i < s; i++ {
		m.starts[i] = searchFrom(m.edges, m.starts[i-1], m.shards[i].loKey)
	}
	m.starts[s] = len(m.edges)
	par.Do(m.parallel, s, m.stepFn)

	// Each shard's next slice starts at the prefix sum of the new shard
	// lengths; shard key ranges are contiguous, so writing every slice
	// at its offset leaves merged sorted. The buffer then swaps with
	// edges, so steady state allocates nothing.
	total := 0
	for i := range m.shards {
		sh := &m.shards[i]
		m.starts[i] = total
		total += len(sh.edges) - len(sh.deaths) + len(sh.birthsEff)
	}
	m.starts[s] = total
	if cap(m.merged) < total {
		m.merged = make([]uint64, total, total+total/4)
	}
	m.merged = m.merged[:total]
	par.Do(m.parallel, s, m.writeFn)
	m.merged, m.edges = m.edges, m.merged
	m.dirty = true
}

// StepDelta implements core.DeltaDynamics: it advances the chain with
// the exact same resampling (and RNG draws) as Step and returns the
// realized edge churn. Each shard's step records its deaths and
// effective births, so the delta is just the per-shard lists
// concatenated in shard order — ascending, because shard key ranges are
// contiguous. The edge-MEG pair keys are packed in graph.PackEdge
// layout, so no re-encoding happens.
func (m *Model) StepDelta() graph.Delta {
	m.Step()
	nb, nd := 0, 0
	for i := range m.shards {
		nb += len(m.shards[i].birthsEff)
		nd += len(m.shards[i].deaths)
	}
	m.deltaBirths = slices.Grow(m.deltaBirths[:0], nb)
	m.deltaDeaths = slices.Grow(m.deltaDeaths[:0], nd)
	for i := range m.shards {
		m.deltaBirths = append(m.deltaBirths, m.shards[i].birthsEff...)
		m.deltaDeaths = append(m.deltaDeaths, m.shards[i].deaths...)
	}
	return graph.Delta{Births: m.deltaBirths, Deaths: m.deltaDeaths}
}

// step samples one shard's round against its time-t slice edges and
// records the change points; write applies them.
func (sh *edgeShard) step(n int, p, q float64, edges []uint64) {
	// Every buffer is presized to a bound its Bernoulli count exceeds
	// with negligible probability, so a fresh model grows none by append.
	nb, nd := bernoulliCap(sh.hi-sh.lo, p), bernoulliCap(int64(len(edges)), q)
	sh.edges = edges
	sh.birthsEff, sh.birthAt = slices.Grow(sh.birthsEff[:0], nb), slices.Grow(sh.birthAt[:0], nb)
	sh.deaths, sh.deathAt = slices.Grow(sh.deaths[:0], nd), slices.Grow(sh.deathAt[:0], nd)

	// Births against the state at time t (before deaths are applied): a
	// pair that dies this step was present at time t, so it takes no
	// birth trial; discarding candidate hits on present pairs is what
	// enforces that. Candidates ascend, so each collision search starts
	// from the previous one's position.
	sh.births = appendGNPKeysRange(sh.births[:0], n, p, sh.lo, sh.hi, sh.r)
	at := 0
	for _, b := range sh.births {
		if at = searchFrom(edges, at, b); at < len(edges) && edges[at] == b {
			continue // pair already present at time t: no birth trial
		}
		sh.birthsEff = append(sh.birthsEff, b)
		sh.birthAt = append(sh.birthAt, at)
	}

	// Deaths: each skip lands on the next dying position. At q = 1 the
	// skip is always 0 and draws nothing.
	if q > 0 {
		l := math.Log1p(-q)
		for i := sh.r.GeometricLog(l); i < int64(len(edges)); i += sh.r.GeometricLog(l) + 1 {
			sh.deaths = append(sh.deaths, edges[i])
			sh.deathAt = append(sh.deathAt, int(i))
		}
	}
}

// write emits the shard's time-(t+1) slice into dst, which holds
// exactly len(edges) − deaths + births keys: the time-t slice with the
// deaths cut out and the births spliced in, one copy per run of
// untouched edges between change points.
func (sh *edgeShard) write(dst []uint64) {
	old, births, birthAt, deathAt := sh.edges, sh.birthsEff, sh.birthAt, sh.deathAt
	c, o, d := 0, 0, 0 // read cursor in old, write cursor in dst, next death
	for k := 0; k <= len(births); k++ {
		end := len(old) // next birth position, or the end of the slice
		if k < len(births) {
			end = birthAt[k]
		}
		for ; d < len(deathAt) && deathAt[d] < end; d++ {
			o += copy(dst[o:], old[c:deathAt[d]])
			c = deathAt[d] + 1
		}
		o += copy(dst[o:], old[c:end])
		c = end
		if k < len(births) {
			dst[o] = births[k]
			o++
		}
	}
}

// searchFrom returns the first position i ≥ lo with keys[i] ≥ key,
// for ascending keys whose prefix keys[:lo] is below key: it gallops
// ahead from lo, then binary-searches the bracketed run, so a sweep of
// ascending probes costs O(log gap) each.
func searchFrom(keys []uint64, lo int, key uint64) int {
	hi, step := lo, 1
	for hi < len(keys) && keys[hi] < key {
		lo, hi, step = hi+1, hi+step, step*2
	}
	hi = min(hi, len(keys))
	for lo < hi { // keys[:lo] < key ≤ keys[hi:]
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// bernoulliCap returns a buffer size that the success count of trials
// Bernoulli(p) trials exceeds with negligible probability: the mean
// plus four standard deviations plus a small constant, at most trials.
func bernoulliCap(trials int64, p float64) int {
	mean := float64(trials) * p
	return int(min(mean+4*math.Sqrt(mean*(1-p))+16, float64(trials)))
}

// Graph implements core.Dynamics; it materializes the current snapshot
// as a CSR graph with graph.Assembler, which reads the edge keys in
// place as the upper rows. The snapshot is rebuilt into the same
// arrays after every Step or Reset and is byte-identical for every
// worker count.
func (m *Model) Graph() *graph.Graph {
	if !m.dirty {
		return m.g
	}
	m.g = m.asm.BuildKeys(m.parallel, m.edges)
	m.dirty = false
	return m.g
}

// HasEdge reports whether {u, v} is present in the current snapshot.
func (m *Model) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	if u > v {
		u, v = v, u
	}
	key := packPair(u, v)
	i := searchFrom(m.edges, 0, key)
	return i < len(m.edges) && m.edges[i] == key
}

// appendGNPKeys appends the packed edge keys of a G(n, p) sample in
// ascending order using geometric skip sampling: expected time
// O(1 + p·C(n,2)).
func appendGNPKeys(dst []uint64, n int, p float64, r *rng.RNG) []uint64 {
	return appendGNPKeysRange(dst, n, p, 0, PairCount(n), r)
}

// appendGNPKeysRange is appendGNPKeys restricted to the pair-index
// range [lo, hi): an independent Bernoulli(p) trial per pair in the
// range, enumerated by geometric skips (at p = 1 every skip is 0 and
// draws nothing). dst is first grown to hold the count with
// overwhelming probability. Candidates ascend, so the decode walks the
// rows: it keeps row u's ranks [base, end), and a candidate in row u
// or u+1 costs a subtraction; only a longer jump pays PairAt's square
// root, which keeps the sparse regime at one PairAt per draw.
func appendGNPKeysRange(dst []uint64, n int, p float64, lo, hi int64, r *rng.RNG) []uint64 {
	if p <= 0 || lo >= hi {
		return dst
	}
	dst = slices.Grow(dst, bernoulliCap(hi-lo, p))
	l := math.Log1p(-p)
	u, base, end := -1, int64(0), int64(0) // row u spans ranks [base, end)
	for idx := lo - 1; ; {
		idx += r.GeometricLog(l) + 1
		if idx >= hi {
			return dst
		}
		switch {
		case idx < end: // row u
		case idx < end+int64(n-u-2): // row u+1, n−u−2 pairs long
			u, base = u+1, end
			end = base + int64(n-u-1)
		default:
			u, _ = PairAt(n, idx)
			base = rowBase(n, u)
			end = base + int64(n-u-1)
		}
		dst = append(dst, packPair(u, u+1+int(idx-base)))
	}
}

// SampleGNP returns one Erdős–Rényi G(n, p) snapshot — the stationary
// distribution of the edge-MEG with marginal p̂ = p. It is used directly
// by the Theorem 4.1 expansion experiments.
func SampleGNP(n int, p float64, r *rng.RNG) *graph.Graph {
	return graph.NewAssembler(n).BuildKeys(1, appendGNPKeys(nil, n, p, r))
}
