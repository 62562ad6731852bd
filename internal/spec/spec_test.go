package spec

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"meg/internal/core"
)

func TestParseDefaultsAndCanonical(t *testing.T) {
	s, err := Parse([]byte(`{"model":{"name":"geometric","n":256}}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.SchemaVersion != Version {
		t.Errorf("version not defaulted: %d", s.SchemaVersion)
	}
	if s.Model.Mult != 2 || s.Model.RFrac != 0.5 || s.Model.Density != 1 {
		t.Errorf("geometric defaults wrong: %+v", s.Model)
	}
	if s.Protocol.Name != "flooding" || s.Engine.Kernel != "auto" {
		t.Errorf("protocol/engine defaults wrong: %+v %+v", s.Protocol, s.Engine)
	}
	if s.Trials != 1 || s.Sources != 1 || s.Seed != 1 || s.SeedPolicy != SeedFixed {
		t.Errorf("campaign defaults wrong: %+v", s)
	}
	if s.MaxRounds != core.DefaultRoundCap(256) {
		t.Errorf("round cap not materialized: %d", s.MaxRounds)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"model":{"name":"geometric","n":256},"trails":7}`))
	if err == nil || !strings.Contains(err.Error(), "trails") {
		t.Fatalf("typo'd field not rejected: %v", err)
	}
}

func TestParseRejectsInvalid(t *testing.T) {
	cases := []string{
		`{"model":{"name":"geometric","n":1}}`,                                      // n too small
		`{"model":{"name":"nosuch","n":64}}`,                                        // unknown model
		`{"model":{"name":"geometric","n":64},"protocol":{"name":"x"}}`,             // unknown protocol
		`{"model":{"name":"geometric","n":64},"seedPolicy":"rolled"}`,               // unknown policy
		`{"version":9,"model":{"name":"geometric","n":64}}`,                         // unknown version
		`{"model":{"name":"geometric","n":64},"sources":65}`,                        // sources > n
		`{"model":{"name":"edge","n":64,"q":1.5}}`,                                  // q out of range
		`{"experiment":"E1","scale":"gigantic"}`,                                    // unknown scale
		`{"model":{"name":"geometric","n":64},"protocol":{"name":"probabilistic"}}`, // missing beta
		`{"model":{"name":"waypoint","n":64,"rfrac":0}}`,                            // frozen walk needs lattice
	}
	for _, c := range cases {
		if _, err := Parse([]byte(c)); err == nil {
			t.Errorf("invalid spec accepted: %s", c)
		}
	}
}

func TestHashStableAcrossSpellings(t *testing.T) {
	sparse, err := Parse([]byte(`{"model":{"name":"geometric","n":256}}`))
	if err != nil {
		t.Fatalf("Parse sparse: %v", err)
	}
	explicit, err := Parse([]byte(`{
		"version": 1,
		"model": {"name":"geometric","n":256,"mult":2,"rfrac":0.5,"density":1},
		"protocol": {"name":"flooding"},
		"engine": {"kernel":"auto"},
		"trials": 1, "sources": 1, "maxRounds": 512,
		"seed": 1, "seedPolicy": "fixed"
	}`))
	if err != nil {
		t.Fatalf("Parse explicit: %v", err)
	}
	h1, err := sparse.Hash()
	if err != nil {
		t.Fatalf("Hash: %v", err)
	}
	h2, err := explicit.Hash()
	if err != nil {
		t.Fatalf("Hash: %v", err)
	}
	if h1 != h2 {
		t.Errorf("sparse and explicit spellings hash differently:\n%s\n%s", h1, h2)
	}
	if len(h1) != 64 {
		t.Errorf("hash is not hex sha256: %q", h1)
	}
}

func TestHashIgnoresWorkers(t *testing.T) {
	a, _ := Parse([]byte(`{"model":{"name":"edge","n":128}}`))
	b, _ := Parse([]byte(`{"model":{"name":"edge","n":128},"workers":8}`))
	ha, _ := a.Hash()
	hb, _ := b.Hash()
	if ha != hb {
		t.Errorf("workers (an execution hint) perturbed the hash")
	}
}

func TestHashSensitiveToContent(t *testing.T) {
	base, _ := Parse([]byte(`{"model":{"name":"edge","n":128}}`))
	hBase, _ := base.Hash()
	for _, variant := range []string{
		`{"model":{"name":"edge","n":128},"trials":2}`,
		`{"model":{"name":"edge","n":128},"seed":2}`,
		`{"model":{"name":"edge","n":128,"q":0.25}}`,
		`{"model":{"name":"edge","n":256}}`,
		`{"model":{"name":"edge","n":128},"protocol":{"name":"push"}}`,
	} {
		v, err := Parse([]byte(variant))
		if err != nil {
			t.Fatalf("Parse %s: %v", variant, err)
		}
		hv, _ := v.Hash()
		if hv == hBase {
			t.Errorf("variant did not change the hash: %s", variant)
		}
	}
}

func TestUnconsumedFieldsZeroed(t *testing.T) {
	// A geometric spec with stray edge-model parameters hashes the same
	// as one without them: canonicalization zeroes unconsumed fields.
	a, err := Parse([]byte(`{"model":{"name":"geometric","n":256,"phatmult":9,"q":0.9}}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	b, _ := Parse([]byte(`{"model":{"name":"geometric","n":256}}`))
	ha, _ := a.Hash()
	hb, _ := b.Hash()
	if ha != hb {
		t.Errorf("stray edge params perturbed a geometric spec's hash")
	}
	if a.Model.PhatMult != 0 || a.Model.Q != 0 {
		t.Errorf("unconsumed fields not zeroed: %+v", a.Model)
	}
}

func TestCanonicalJSONRoundTrip(t *testing.T) {
	s, _ := Parse([]byte(`{"model":{"name":"torus","n":128},"trials":3,"sources":2}`))
	cj, err := s.CanonicalJSON()
	if err != nil {
		t.Fatalf("CanonicalJSON: %v", err)
	}
	re, err := Parse(cj)
	if err != nil {
		t.Fatalf("canonical JSON does not re-parse: %v\n%s", err, cj)
	}
	h1, _ := s.Hash()
	h2, _ := re.Hash()
	if h1 != h2 {
		t.Errorf("canonical JSON round trip changed the hash")
	}
}

func TestSeedPolicyContent(t *testing.T) {
	a, err := Parse([]byte(`{"model":{"name":"edge","n":128},"seedPolicy":"content","seed":77}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if a.Seed != 0 {
		t.Errorf("content policy should zero the stored seed, got %d", a.Seed)
	}
	sa, err := a.EffectiveSeed()
	if err != nil {
		t.Fatalf("EffectiveSeed: %v", err)
	}
	if sa == 0 {
		t.Errorf("derived seed is zero")
	}
	// Same content → same derived seed; different content → different.
	b, _ := Parse([]byte(`{"model":{"name":"edge","n":128},"seedPolicy":"content"}`))
	sb, _ := b.EffectiveSeed()
	if sa != sb {
		t.Errorf("identical content derived different seeds")
	}
	c, _ := Parse([]byte(`{"model":{"name":"edge","n":256},"seedPolicy":"content"}`))
	sc, _ := c.EffectiveSeed()
	if sc == sa {
		t.Errorf("different content derived identical seeds")
	}
}

func TestExperimentSpecCanonical(t *testing.T) {
	s, err := Parse([]byte(`{"experiment":"E4","model":{"name":"geometric","n":4096},"trials":9}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Scale != "quick" {
		t.Errorf("scale not defaulted: %q", s.Scale)
	}
	if s.Model.Name != "" || s.Trials != 0 {
		t.Errorf("experiment spec should drop campaign fields: %+v", s)
	}
	if _, _, err := s.NewFactory(); err == nil {
		t.Errorf("experiment spec should have no model factory")
	}
}

func TestNewFactoryAllModels(t *testing.T) {
	for _, name := range []string{"geometric", "torus", "edge", "waypoint", "billiard", "walkers", "iiddisk"} {
		s := Spec{Model: Model{Name: name, N: 64, RFrac: 0.5}}
		factory, desc, err := s.NewFactory()
		if err != nil {
			t.Fatalf("NewFactory(%s): %v", name, err)
		}
		if desc == "" {
			t.Errorf("NewFactory(%s): empty description", name)
		}
		d := factory()
		if d.N() != 64 {
			t.Errorf("NewFactory(%s): wrong n %d", name, d.N())
		}
	}
}

func TestSpecJSONStructRoundTrip(t *testing.T) {
	s, _ := Parse([]byte(`{"model":{"name":"edge","n":128},"workers":4}`))
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out Spec
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(out, s) {
		t.Errorf("struct round trip changed the spec:\n in=%+v\nout=%+v", s, out)
	}
}

func TestRFracZeroIsFrozenWalkNotDefault(t *testing.T) {
	// Explicit rfrac 0 is a meaningful configuration (frozen walk /
	// static snapshot) and must not be silently replaced by the 0.5
	// default — only an absent field defaults.
	frozen, err := Parse([]byte(`{"model":{"name":"geometric","n":256,"rfrac":0}}`))
	if err != nil {
		t.Fatalf("Parse frozen: %v", err)
	}
	if frozen.Model.RFrac != 0 {
		t.Fatalf("explicit rfrac 0 rewritten to %g", frozen.Model.RFrac)
	}
	absent, _ := Parse([]byte(`{"model":{"name":"geometric","n":256}}`))
	if absent.Model.RFrac != 0.5 {
		t.Fatalf("absent rfrac defaulted to %g, want 0.5", absent.Model.RFrac)
	}
	hf, _ := frozen.Hash()
	ha, _ := absent.Hash()
	if hf == ha {
		t.Fatalf("frozen and default specs hash identically")
	}
	// The frozen spec's canonical JSON must round-trip to the same
	// hash (rfrac always marshals, so 0 is not re-defaulted).
	cj, _ := frozen.CanonicalJSON()
	re, err := Parse(cj)
	if err != nil {
		t.Fatalf("re-parse canonical frozen spec: %v", err)
	}
	hr, _ := re.Hash()
	if hr != hf {
		t.Fatalf("frozen spec hash changed across canonical JSON round trip")
	}
	if _, _, err := frozen.NewFactory(); err != nil {
		t.Fatalf("frozen-walk factory: %v", err)
	}
}

// TestProtocolEngineIsExecutionHint pins the retired hint: a spec that
// still names an engine hashes as the spec without it, and
// canonicalization drops the value.
func TestProtocolEngineIsExecutionHint(t *testing.T) {
	base := Spec{
		Model:    Model{Name: "edge", N: 256},
		Protocol: Protocol{Name: "push"},
	}
	ref := base
	ref.ProtocolEngine = "reference"
	h1, err := base.Hash()
	if err != nil {
		t.Fatalf("Hash: %v", err)
	}
	h2, err := ref.Hash()
	if err != nil {
		t.Fatalf("Hash: %v", err)
	}
	if h1 != h2 {
		t.Fatalf("protocolEngine perturbed the content hash: %s vs %s", h1, h2)
	}
	c, err := ref.Canonical()
	if err != nil {
		t.Fatalf("Canonical: %v", err)
	}
	if c.ProtocolEngine != "" {
		t.Fatalf("canonicalization kept the retired protocolEngine: %q", c.ProtocolEngine)
	}
}

// TestProtocolEngineValidation pins that the retired hint is no longer
// validated: any value parses, so no older spec stops parsing.
func TestProtocolEngineValidation(t *testing.T) {
	for _, v := range []string{"kernel", "reference", "warp"} {
		if _, err := Parse([]byte(`{"model":{"name":"edge","n":256},"protocol":{"name":"push"},"protocolEngine":"` + v + `"}`)); err != nil {
			t.Errorf("protocolEngine %q rejected: %v", v, err)
		}
	}
}

// TestProtocolEngineZeroedWhereMeaningless pins that canonicalization
// drops the retired hint on every kind of spec: flooding, gossip and
// experiment.
func TestProtocolEngineZeroedWhereMeaningless(t *testing.T) {
	for _, s := range []Spec{
		{Model: Model{Name: "edge", N: 256}, ProtocolEngine: "reference"},
		{Model: Model{Name: "edge", N: 256}, Protocol: Protocol{Name: "push"}, ProtocolEngine: "reference"},
		{Experiment: "E16", ProtocolEngine: "reference"},
	} {
		c, err := s.Canonical()
		if err != nil {
			t.Fatalf("Canonical: %v", err)
		}
		if c.ProtocolEngine != "" {
			t.Errorf("spec %+v kept protocolEngine %q", s, c.ProtocolEngine)
		}
	}
}

func TestProtocolHashCarriesAlgoRevision(t *testing.T) {
	// Non-flooding protocol realizations are versioned into the hash so
	// algorithm changes can invalidate stale cached results; only
	// flooding campaign hashes stay on the bare spec.
	push := Spec{Model: Model{Name: "edge", N: 256}, Protocol: Protocol{Name: "push"}}
	b, err := push.CanonicalJSON()
	if err != nil {
		t.Fatalf("CanonicalJSON: %v", err)
	}
	if !strings.Contains(string(b), `"protoAlgo":`) {
		t.Fatalf("protocol hash view lacks protoAlgo: %s", b)
	}
	flood := Spec{Model: Model{Name: "edge", N: 256}}
	b, err = flood.CanonicalJSON()
	if err != nil {
		t.Fatalf("CanonicalJSON: %v", err)
	}
	if strings.Contains(string(b), `"protoAlgo":`) {
		t.Fatalf("flooding hash view carries protoAlgo: %s", b)
	}
	// Experiments run the protocol family internally (E16), so their
	// hashes carry the revision too.
	exp := Spec{Experiment: "E16"}
	b, err = exp.CanonicalJSON()
	if err != nil {
		t.Fatalf("CanonicalJSON: %v", err)
	}
	if !strings.Contains(string(b), `"protoAlgo":`) {
		t.Fatalf("experiment hash view lacks protoAlgo: %s", b)
	}
}

func TestHashIgnoresReceivers(t *testing.T) {
	a, _ := Parse([]byte(`{"model":{"name":"edge","n":128}}`))
	b, _ := Parse([]byte(`{"model":{"name":"edge","n":128},"receivers":["http://hooks.example/jobs"]}`))
	ha, _ := a.Hash()
	hb, _ := b.Hash()
	if ha != hb {
		t.Errorf("receivers (an execution hint) perturbed the hash")
	}
}

func TestReceiversValidation(t *testing.T) {
	ok := `{"model":{"name":"edge","n":128},"receivers":["http://a.example/h","https://b.example:9090/h?x=1"]}`
	if _, err := Parse([]byte(ok)); err != nil {
		t.Fatalf("valid receivers rejected: %v", err)
	}
	for _, bad := range []string{
		`{"model":{"name":"edge","n":128},"receivers":["ftp://a.example/h"]}`,
		`{"model":{"name":"edge","n":128},"receivers":["not a url"]}`,
		`{"model":{"name":"edge","n":128},"receivers":["/relative/path"]}`,
	} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("bad receiver accepted: %s", bad)
		}
	}
	many := make([]string, maxReceivers+1)
	for i := range many {
		many[i] = "http://hooks.example/h"
	}
	s := Spec{Model: Model{Name: "edge", N: 128}, Receivers: many}
	if _, err := s.Canonical(); err == nil {
		t.Errorf("%d receivers accepted, want the %d cap enforced", len(many), maxReceivers)
	}
}
