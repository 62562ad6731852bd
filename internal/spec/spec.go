// Package spec defines the canonical, versioned JSON description of one
// simulation run — the unit of work megserve schedules, caches, and
// streams, and the value megsim builds from its flags so that the CLI
// and the service execute the exact same code path.
//
// A spec goes through three stages:
//
//  1. Parse: strict JSON decoding (unknown fields rejected);
//  2. Canonicalize: defaults filled in, fields the chosen model or
//     protocol does not consume zeroed out, the round cap materialized;
//  3. Hash: SHA-256 over the canonical form minus execution-only hints
//     (Workers, Parallelism), yielding the content address under which results are
//     cached — two specs that describe the same computation hash
//     identically no matter how sparsely they were written.
package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/url"

	"meg/internal/core"
)

// Version is the current spec schema version.
const Version = 1

// Model selects the evolving-graph substrate and its parameters. The
// geometric family (geometric, torus, waypoint, billiard, walkers,
// iiddisk) consumes Mult, RFrac, and Density; the edge family (edge)
// consumes PhatMult, Q, and Empty. Unconsumed fields are zeroed during
// canonicalization so they cannot perturb the content hash.
type Model struct {
	// Name is one of geometric|torus|edge|waypoint|billiard|walkers|iiddisk.
	Name string `json:"name"`
	// N is the number of nodes.
	N int `json:"n"`
	// Mult scales the transmission radius: R = Mult·√(log n / Density).
	// Default 2.
	Mult float64 `json:"mult,omitempty"`
	// RFrac scales the move radius: r = RFrac·R. Zero is meaningful —
	// it freezes the walk (a static snapshot) — so unlike the other
	// parameters it does NOT default from zero: an absent JSON field
	// defaults to 0.5 (applied at decode time), while an explicit 0
	// (JSON or struct literal) stays 0. The field always marshals so
	// canonical JSON is unambiguous.
	RFrac float64 `json:"rfrac"`
	// Density is the node density δ. Default 1.
	Density float64 `json:"density,omitempty"`
	// Jump is the lazy-walk activation probability of the lattice
	// models (geometric, torus): each round a node jumps with
	// probability Jump and holds otherwise. Default 1 (the paper's
	// walk); small values give the low-churn regime the incremental
	// snapshot path targets. Zeroed for every other model.
	Jump float64 `json:"jump,omitempty"`
	// PhatMult sets the edge model's stationary edge probability:
	// p̂ = PhatMult·log n / n. Default 4.
	PhatMult float64 `json:"phatmult,omitempty"`
	// Q is the edge model's death rate. Default 0.5.
	Q float64 `json:"q,omitempty"`
	// Empty starts the edge model from the empty graph (worst case)
	// instead of the stationary distribution.
	Empty bool `json:"empty,omitempty"`
}

// modelJSON mirrors Model for decoding. RFrac is a pointer so an
// absent field (→ default 0.5) is distinguishable from an explicit 0
// (→ frozen walk); everything else treats zero as unset because zero
// is invalid for those parameters anyway.
type modelJSON struct {
	Name     string   `json:"name"`
	N        int      `json:"n"`
	Mult     float64  `json:"mult,omitempty"`
	RFrac    *float64 `json:"rfrac"`
	Density  float64  `json:"density,omitempty"`
	Jump     float64  `json:"jump,omitempty"`
	PhatMult float64  `json:"phatmult,omitempty"`
	Q        float64  `json:"q,omitempty"`
	Empty    bool     `json:"empty,omitempty"`
}

// UnmarshalJSON implements json.Unmarshaler with the same strictness
// Parse applies at the top level (a custom unmarshaler would otherwise
// silently drop unknown-field rejection for the model subobject).
func (m *Model) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var j modelJSON
	if err := dec.Decode(&j); err != nil {
		return err
	}
	*m = Model{
		Name: j.Name, N: j.N,
		Mult: j.Mult, RFrac: 0.5, Density: j.Density, Jump: j.Jump,
		PhatMult: j.PhatMult, Q: j.Q, Empty: j.Empty,
	}
	if j.RFrac != nil {
		m.RFrac = *j.RFrac
	}
	return nil
}

// Protocol selects the information-spreading protocol run on every
// snapshot sequence. Beta parameterizes probabilistic flooding, Loss
// lossy flooding; both are zeroed for the other protocols.
type Protocol struct {
	// Name is one of flooding|probabilistic|push|push-pull|lossy.
	// Default flooding.
	Name string `json:"name"`
	// Beta is the forward probability of probabilistic flooding, in (0, 1].
	Beta float64 `json:"beta,omitempty"`
	// Loss is the per-message loss probability of lossy flooding, in [0, 1).
	Loss float64 `json:"loss,omitempty"`
}

// Engine tunes the flooding engine. Only the flooding protocol consumes
// it; it is zeroed for the others.
type Engine struct {
	// Kernel once pinned the flooding kernel (auto|push|pull). It is a
	// retired hint: accepted with any value so older specs still parse,
	// ignored, and canonicalized to "auto" for flooding, the value every
	// existing hash was taken with. The engine chooses its kernel
	// itself, with identical results.
	Kernel string `json:"kernel,omitempty"`
	// PullThreshold once moved the push→pull switch. Like Kernel it is
	// retired: accepted with any value, ignored, and zeroed.
	PullThreshold float64 `json:"pullThreshold,omitempty"`
	// BatchSources runs each trial's sources bit-parallel over one
	// shared realization (core.FloodMulti).
	BatchSources bool `json:"batchSources,omitempty"`
}

// SeedPolicy values.
const (
	// SeedFixed uses the spec's Seed verbatim.
	SeedFixed = "fixed"
	// SeedContent derives the seed from the spec's content hash: the
	// run stays fully deterministic and cacheable, but specs differing
	// in any field get decorrelated randomness without the author
	// picking seeds.
	SeedContent = "content"
)

// Spec is the versioned description of one run. The zero value is not
// usable; build specs via JSON (Parse) or literals and call Canonical.
type Spec struct {
	// SchemaVersion must be 1 (0 is defaulted to 1).
	SchemaVersion int `json:"version"`
	// Model selects the evolving-graph substrate.
	Model Model `json:"model"`
	// Protocol selects the spreading protocol (default flooding).
	Protocol Protocol `json:"protocol"`
	// Engine tunes the flooding engine (flooding protocol only).
	Engine Engine `json:"engine"`
	// Trials is the number of independent repetitions (default 1).
	Trials int `json:"trials"`
	// Sources is the number of sources per trial (default 1).
	Sources int `json:"sources"`
	// MaxRounds caps each run; 0 selects core.DefaultRoundCap(n) and is
	// materialized during canonicalization.
	MaxRounds int `json:"maxRounds"`
	// Seed is the campaign seed under SeedFixed (default 1).
	Seed uint64 `json:"seed"`
	// SeedPolicy is fixed|content (default fixed).
	SeedPolicy string `json:"seedPolicy"`
	// Experiment, when non-empty, makes the job run the named
	// paper-reproduction experiment (e.g. "E4") instead of a raw
	// campaign; Model/Protocol/Engine/Trials/Sources are zeroed and
	// Scale sizes the run.
	Experiment string `json:"experiment,omitempty"`
	// Scale sizes experiment jobs: quick|standard|full (default quick).
	Scale string `json:"scale,omitempty"`
	// Workers bounds worker parallelism (0 = all CPUs). An execution
	// hint: excluded from the content hash, so the same spec run with
	// different parallelism still hits the same cache entry.
	Workers int `json:"workers,omitempty"`
	// Parallelism is the intra-trial worker count of the sharded
	// flooding engine and the models' parallel snapshot builds
	// (0 or 1 = one shard, -1 = all CPUs). Like Workers it is an execution
	// hint: results are byte-identical for every value, so it is
	// excluded from the content hash and stripped from cached results.
	Parallelism int `json:"parallelism,omitempty"`
	// ProtocolEngine once selected the implementation of a
	// non-flooding protocol ("kernel" or "reference"). It is a retired
	// execution hint: accepted with any value so older specs still
	// parse, ignored, and zeroed by canonicalization. Specs always run
	// the bit-parallel kernel engine, which is byte-identical to the
	// reference.
	ProtocolEngine string `json:"protocolEngine,omitempty"`
	// Snapshot once selected the per-round snapshot path ("full" or
	// "delta"). It is a retired execution hint: accepted with any value
	// so older specs still parse, ignored, and zeroed by
	// canonicalization. The engines choose the path from the model's
	// expected churn (core.ChurnHinter), with byte-identical results.
	Snapshot string `json:"snapshot,omitempty"`
	// Receivers lists webhook URLs (http/https) that megserve notifies
	// when the job reaches a terminal state: a POST per URL carrying
	// {event, id, hash, status, error}, with bounded retry. Receivers
	// change where a result is announced, never what it contains, so
	// like Workers this is an execution hint: excluded from the content
	// hash and stripped from cached results. Coalesced submissions each
	// contribute their receivers to the one in-flight job.
	Receivers []string `json:"receivers,omitempty"`
	// ProtoAlgo and ModelAlgo appear in the hashed canonical form
	// (CanonicalJSON) to version realization semantics. They are
	// accepted on input only so canonical JSON re-parses; their values
	// are never trusted — canonicalization zeroes them and the hash
	// recomputes them from the current revisions.
	ProtoAlgo int `json:"protoAlgo,omitempty"`
	ModelAlgo int `json:"modelAlgo,omitempty"`
}

// Parse strictly decodes and canonicalizes a spec: unknown fields are
// rejected so typos fail loudly instead of silently running defaults.
func Parse(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("spec: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("spec: trailing data after spec object")
	}
	return s.Canonical()
}

// geometricFamily reports whether the model consumes the geometric
// parameters (Mult, RFrac, Density).
func geometricFamily(name string) bool {
	switch name {
	case "geometric", "torus", "waypoint", "billiard", "walkers", "iiddisk":
		return true
	}
	return false
}

// Canonical validates s and returns its canonical form: defaults
// filled, unconsumed fields zeroed, the round cap materialized. The
// input is not modified. Canonical is idempotent, and every exported
// consumer (Hash, NewFactory, executors) canonicalizes internally, so
// callers may pass sparse specs anywhere.
func (s Spec) Canonical() (Spec, error) {
	if s.SchemaVersion == 0 {
		s.SchemaVersion = Version
	}
	if s.SchemaVersion != Version {
		return Spec{}, fmt.Errorf("spec: unsupported version %d (want %d)", s.SchemaVersion, Version)
	}
	if s.SeedPolicy == "" {
		s.SeedPolicy = SeedFixed
	}
	switch s.SeedPolicy {
	case SeedFixed:
		if s.Seed == 0 {
			s.Seed = 1
		}
	case SeedContent:
		// The seed is derived from the hash; a stored value is noise.
		s.Seed = 0
	default:
		return Spec{}, fmt.Errorf("spec: unknown seedPolicy %q (want %s|%s)", s.SeedPolicy, SeedFixed, SeedContent)
	}
	if s.Workers < 0 {
		return Spec{}, fmt.Errorf("spec: workers %d must be non-negative", s.Workers)
	}
	if s.Parallelism < -1 {
		return Spec{}, fmt.Errorf("spec: parallelism %d must be -1 (all CPUs), 0/1 (serial), or a worker count", s.Parallelism)
	}
	if err := validateReceivers(s.Receivers); err != nil {
		return Spec{}, err
	}
	// Revision markers are outputs of hashing, never inputs, and the
	// retired hints are ignored.
	s.ProtoAlgo, s.ModelAlgo = 0, 0
	s.ProtocolEngine, s.Snapshot = "", ""

	if s.Experiment != "" {
		// Experiment jobs carry only (experiment, scale, seed): the
		// experiment defines its own models, protocols, and trial
		// counts internally.
		if s.Scale == "" {
			s.Scale = "quick"
		}
		switch s.Scale {
		case "quick", "standard", "full":
		default:
			return Spec{}, fmt.Errorf("spec: unknown scale %q (want quick|standard|full)", s.Scale)
		}
		s.Model = Model{}
		s.Protocol = Protocol{}
		s.Engine = Engine{}
		s.Trials, s.Sources, s.MaxRounds = 0, 0, 0
		return s, nil
	}
	s.Scale = ""

	m := &s.Model
	if m.Name == "" {
		return Spec{}, fmt.Errorf("spec: model.name is required")
	}
	if m.N < 2 {
		return Spec{}, fmt.Errorf("spec: model.n %d must be at least 2", m.N)
	}
	switch {
	case geometricFamily(m.Name):
		if m.Mult == 0 {
			m.Mult = 2
		}
		if m.Density == 0 {
			m.Density = 1
		}
		if m.Mult <= 0 || m.RFrac < 0 || m.Density <= 0 {
			return Spec{}, fmt.Errorf("spec: geometric model needs mult > 0, rfrac ≥ 0, density > 0")
		}
		// rfrac 0 freezes the walk — meaningful only on the lattice
		// models; the mobility models need a positive speed scale.
		if m.RFrac == 0 && m.Name != "geometric" && m.Name != "torus" {
			return Spec{}, fmt.Errorf("spec: model %q needs rfrac > 0 (only geometric|torus support a frozen walk)", m.Name)
		}
		// The lazy walk is a lattice-model knob; the mobility models
		// have no hold step, so the field is unconsumed there.
		if m.Name == "geometric" || m.Name == "torus" {
			if m.Jump == 0 {
				m.Jump = 1
			}
			if m.Jump < 0 || m.Jump > 1 {
				return Spec{}, fmt.Errorf("spec: jump probability %g outside (0, 1]", m.Jump)
			}
		} else {
			m.Jump = 0
		}
		m.PhatMult, m.Q, m.Empty = 0, 0, false
	case m.Name == "edge":
		if m.PhatMult == 0 {
			m.PhatMult = 4
		}
		if m.Q == 0 {
			m.Q = 0.5
		}
		if m.PhatMult <= 0 || m.Q <= 0 || m.Q > 1 {
			return Spec{}, fmt.Errorf("spec: edge model needs phatmult > 0 and q in (0, 1]")
		}
		m.Mult, m.RFrac, m.Density, m.Jump = 0, 0, 0, 0
	default:
		return Spec{}, fmt.Errorf("spec: unknown model %q (want geometric|torus|edge|waypoint|billiard|walkers|iiddisk)", m.Name)
	}

	p := &s.Protocol
	if p.Name == "" {
		p.Name = "flooding"
	}
	switch p.Name {
	case "flooding", "push", "push-pull":
		p.Beta, p.Loss = 0, 0
	case "probabilistic":
		if p.Beta <= 0 || p.Beta > 1 {
			return Spec{}, fmt.Errorf("spec: probabilistic protocol needs beta in (0, 1], got %g", p.Beta)
		}
		p.Loss = 0
	case "lossy":
		if p.Loss < 0 || p.Loss >= 1 {
			return Spec{}, fmt.Errorf("spec: lossy protocol needs loss in [0, 1), got %g", p.Loss)
		}
		p.Beta = 0
	default:
		return Spec{}, fmt.Errorf("spec: unknown protocol %q (want flooding|probabilistic|push|push-pull|lossy)", p.Name)
	}

	if p.Name == "flooding" {
		// The retired hints keep the values every hash was taken with.
		s.Engine.Kernel, s.Engine.PullThreshold = "auto", 0
	} else {
		// Only the flooding protocol runs on the optimized engine.
		s.Engine = Engine{}
	}

	if s.Trials == 0 {
		s.Trials = 1
	}
	if s.Trials < 0 {
		return Spec{}, fmt.Errorf("spec: trials %d must be positive", s.Trials)
	}
	if s.Sources == 0 {
		s.Sources = 1
	}
	if s.Sources < 0 || s.Sources > m.N {
		return Spec{}, fmt.Errorf("spec: sources %d must be in [1, n]", s.Sources)
	}
	if s.MaxRounds == 0 {
		s.MaxRounds = core.DefaultRoundCap(m.N)
	}
	if s.MaxRounds < 0 {
		return Spec{}, fmt.Errorf("spec: maxRounds %d must be positive", s.MaxRounds)
	}
	return s, nil
}

// maxReceivers bounds the webhook fan-out one spec may request.
const maxReceivers = 8

// validateReceivers checks the receiver URL list: bounded count, each
// entry an absolute http/https URL. The list is a delivery instruction,
// so validation is purely structural — reachability is the notifier's
// retry loop's problem, not the spec's.
func validateReceivers(urls []string) error {
	if len(urls) > maxReceivers {
		return fmt.Errorf("spec: %d receivers exceeds the maximum of %d", len(urls), maxReceivers)
	}
	for _, raw := range urls {
		u, err := url.Parse(raw)
		if err != nil {
			return fmt.Errorf("spec: receiver %q: %w", raw, err)
		}
		if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("spec: receiver %q must be an absolute http(s) URL", raw)
		}
	}
	return nil
}

// protoAlgoRevision versions the realization semantics of the
// non-flooding protocols. The content hash promises "same hash, same
// bytes", so any change that makes the same (spec, seed) legitimately
// produce different results — such as the move to (node, round)-keyed
// decision streams that enabled the sharded gossip engine — must bump
// this revision, or a pre-existing on-disk cache would serve stale
// bytes for the new algorithm. It is folded into the hash for protocol
// campaigns AND for experiment specs (experiments like E16 run the
// protocol family internally); only flooding campaigns — whose
// realizations did not change — keep their original hashes.
const protoAlgoRevision = 2

// modelAlgoRevision versions the realization semantics of the
// geometric-family models, exactly as protoAlgoRevision does for the
// protocols: the move to counter-based per-node walk streams (which
// enabled the sharded Step) and the canonical sorted adjacency rows
// (which enabled the incremental snapshot path) legitimately changed
// the realizations every geometric-family (spec, seed) produces, so
// the revision is folded into their hashes — and into experiment
// hashes, since experiments run these models internally — to keep
// pre-existing caches from serving stale bytes. Edge-MEG campaigns are
// untouched: their resampling, draws, and row order did not change.
const modelAlgoRevision = 2

// hashView is the hashed subset of a canonical spec: everything except
// execution-only hints (Workers, Parallelism, Receivers) and the
// retired ones (ProtocolEngine, Snapshot). Field order is fixed by this
// struct, so the marshaled form is canonical.
type hashView struct {
	SchemaVersion int      `json:"version"`
	Model         Model    `json:"model"`
	Protocol      Protocol `json:"protocol"`
	// ProtoAlgo carries protoAlgoRevision for non-flooding protocol
	// campaigns and experiment specs (0, omitted, for flooding).
	ProtoAlgo int `json:"protoAlgo,omitempty"`
	// ModelAlgo carries modelAlgoRevision for geometric-family model
	// campaigns and experiment specs (0, omitted, for the edge model).
	ModelAlgo  int    `json:"modelAlgo,omitempty"`
	Engine     Engine `json:"engine"`
	Trials     int    `json:"trials"`
	Sources    int    `json:"sources"`
	MaxRounds  int    `json:"maxRounds"`
	Seed       uint64 `json:"seed"`
	SeedPolicy string `json:"seedPolicy"`
	Experiment string `json:"experiment,omitempty"`
	Scale      string `json:"scale,omitempty"`
}

// CanonicalJSON returns the canonical spec's hashed form as JSON — the
// exact bytes the content hash covers.
func (s Spec) CanonicalJSON() ([]byte, error) {
	c, err := s.Canonical()
	if err != nil {
		return nil, err
	}
	v := hashView{
		SchemaVersion: c.SchemaVersion,
		Model:         c.Model,
		Protocol:      c.Protocol,
		Engine:        c.Engine,
		Trials:        c.Trials,
		Sources:       c.Sources,
		MaxRounds:     c.MaxRounds,
		Seed:          c.Seed,
		SeedPolicy:    c.SeedPolicy,
		Experiment:    c.Experiment,
		Scale:         c.Scale,
	}
	if c.Experiment != "" || c.Protocol.Name != "flooding" {
		v.ProtoAlgo = protoAlgoRevision
	}
	if c.Experiment != "" || geometricFamily(c.Model.Name) {
		v.ModelAlgo = modelAlgoRevision
	}
	return json.Marshal(v)
}

// Hash returns the spec's content address: the hex SHA-256 of its
// canonical JSON. Specs that canonicalize identically hash identically.
func (s Spec) Hash() (string, error) {
	b, err := s.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// EffectiveSeed resolves the seed the run actually uses: the spec's
// Seed under SeedFixed, the first 8 bytes of the content hash under
// SeedContent.
func (s Spec) EffectiveSeed() (uint64, error) {
	c, err := s.Canonical()
	if err != nil {
		return 0, err
	}
	if c.SeedPolicy != SeedContent {
		return c.Seed, nil
	}
	h, err := c.Hash()
	if err != nil {
		return 0, err
	}
	raw, err := hex.DecodeString(h[:16])
	if err != nil {
		return 0, err
	}
	var seed uint64
	for _, b := range raw {
		seed = seed<<8 | uint64(b)
	}
	if seed == 0 {
		seed = 1
	}
	return seed, nil
}
