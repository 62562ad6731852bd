package spec

import (
	"strings"
	"testing"
)

// TestSnapshotHintValidatedAndExcludedFromHash pins the retired hint:
// any value still parses (older specs keep working), canonicalization
// drops it, and it never reaches the content hash.
func TestSnapshotHintValidatedAndExcludedFromHash(t *testing.T) {
	a, err := Parse([]byte(`{"model":{"name":"edge","n":128}}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ha, _ := a.Hash()
	for _, v := range []string{"full", "delta", "sideways"} {
		b, err := Parse([]byte(`{"model":{"name":"edge","n":128},"snapshot":"` + v + `"}`))
		if err != nil {
			t.Fatalf("snapshot %q rejected: %v", v, err)
		}
		if hb, _ := b.Hash(); ha != hb {
			t.Fatalf("snapshot %q perturbed the content hash", v)
		}
		if b.Snapshot != "" {
			t.Fatalf("canonicalization kept the retired snapshot hint: %q", b.Snapshot)
		}
		cj, err := b.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(cj), "snapshot") {
			t.Fatalf("hash view leaks the snapshot hint: %s", cj)
		}
	}
}

func TestJumpIsHashedForLatticeModels(t *testing.T) {
	base, err := Parse([]byte(`{"model":{"name":"geometric","n":256}}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if base.Model.Jump != 1 {
		t.Fatalf("geometric jump default = %g, want 1", base.Model.Jump)
	}
	lazy, err := Parse([]byte(`{"model":{"name":"geometric","n":256,"jump":0.05}}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	hb, _ := base.Hash()
	hl, _ := lazy.Hash()
	if hb == hl {
		t.Fatal("jump is a model parameter and must perturb the hash")
	}
	if _, err := Parse([]byte(`{"model":{"name":"geometric","n":256,"jump":1.5}}`)); err == nil {
		t.Fatal("jump > 1 accepted")
	}
}

func TestJumpZeroedForNonLatticeModels(t *testing.T) {
	s, err := Parse([]byte(`{"model":{"name":"waypoint","n":256,"jump":0.1}}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Model.Jump != 0 {
		t.Fatalf("mobility model kept jump=%g; unconsumed fields must zero", s.Model.Jump)
	}
	e, err := Parse([]byte(`{"model":{"name":"edge","n":256,"jump":0.1}}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if e.Model.Jump != 0 {
		t.Fatalf("edge model kept jump=%g", e.Model.Jump)
	}
}

// TestModelAlgoRevisionInHash pins which hashes carry the model
// realization revision: geometric-family campaigns and experiments —
// whose walks moved to counter-based streams and sorted rows — but
// never edge-only campaigns, whose realizations did not change.
func TestModelAlgoRevisionInHash(t *testing.T) {
	hashViewOf := func(src string) string {
		s, err := Parse([]byte(src))
		if err != nil {
			t.Fatalf("Parse(%s): %v", src, err)
		}
		b, err := s.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, src := range []string{
		`{"model":{"name":"geometric","n":128}}`,
		`{"model":{"name":"torus","n":128}}`,
		`{"model":{"name":"walkers","n":128}}`,
		`{"experiment":"E4"}`,
	} {
		if !strings.Contains(hashViewOf(src), `"modelAlgo":`) {
			t.Errorf("hash view of %s lacks modelAlgo", src)
		}
	}
	if strings.Contains(hashViewOf(`{"model":{"name":"edge","n":128}}`), `"modelAlgo":`) {
		t.Error("edge-only campaign hash carries modelAlgo; edge realizations did not change")
	}
}

// TestAlgoRevisionFieldsAreInert pins that user-supplied revision
// markers are ignored: they exist on Spec only so canonical JSON
// re-parses.
func TestAlgoRevisionFieldsAreInert(t *testing.T) {
	a, err := Parse([]byte(`{"model":{"name":"geometric","n":128}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse([]byte(`{"model":{"name":"geometric","n":128},"modelAlgo":7,"protoAlgo":9}`))
	if err != nil {
		t.Fatalf("canonical-form fields rejected on input: %v", err)
	}
	ha, _ := a.Hash()
	hb, _ := b.Hash()
	if ha != hb {
		t.Fatal("supplied algo revisions perturbed the hash")
	}
	if b.ModelAlgo != 0 || b.ProtoAlgo != 0 {
		t.Fatalf("canonicalization kept supplied revisions: %d/%d", b.ModelAlgo, b.ProtoAlgo)
	}
}

// TestKernelHintsIgnored pins the retired engine.kernel and
// engine.pullThreshold hints: any value parses, canonicalization writes
// "auto" and 0 (the values every existing flooding hash was taken
// with), and the hash equals that of the same spec without the hints.
func TestKernelHintsIgnored(t *testing.T) {
	for _, tc := range []struct{ plain, hinted string }{
		{`{"model":{"name":"edge","n":128}}`,
			`{"model":{"name":"edge","n":128},"engine":{"kernel":"push"}}`},
		{`{"model":{"name":"edge","n":128}}`,
			`{"model":{"name":"edge","n":128},"engine":{"kernel":"pull","pullThreshold":0.3}}`},
		{`{"model":{"name":"geometric","n":128}}`,
			`{"model":{"name":"geometric","n":128},"engine":{"kernel":"sideways","pullThreshold":-2}}`},
		{`{"model":{"name":"edge","n":128},"engine":{"batchSources":true}}`,
			`{"model":{"name":"edge","n":128},"engine":{"batchSources":true,"kernel":"pull","pullThreshold":0.3}}`},
		{`{"model":{"name":"edge","n":128},"protocol":{"name":"push"}}`,
			`{"model":{"name":"edge","n":128},"protocol":{"name":"push"},"engine":{"kernel":"push"}}`},
	} {
		want, err := Parse([]byte(tc.plain))
		if err != nil {
			t.Fatalf("%s: %v", tc.plain, err)
		}
		got, err := Parse([]byte(tc.hinted))
		if err != nil {
			t.Fatalf("%s rejected: %v", tc.hinted, err)
		}
		if got.Engine.Kernel != want.Engine.Kernel || got.Engine.PullThreshold != 0 {
			t.Errorf("%s canonicalized to %+v, want %+v", tc.hinted, got.Engine, want.Engine)
		}
		hw, _ := want.Hash()
		if hg, _ := got.Hash(); hg != hw {
			t.Errorf("%s moved the hash", tc.hinted)
		}
	}
	cj, err := Spec{Model: Model{Name: "edge", N: 128}}.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(cj), `"engine":{"kernel":"auto"}`) {
		t.Fatalf("hash view lost the engine bytes existing hashes cover: %s", cj)
	}
}
