package spec

import (
	"bytes"
	"testing"
)

// FuzzSpec feeds arbitrary bytes to Parse and checks three properties
// of every spec that parses:
//
//   - Parse never panics, whatever the input;
//   - canonical JSON is a fixed point: Parse(CanonicalJSON(s)) succeeds
//     and yields the same canonical JSON and hash;
//   - the execution hints — workers, parallelism, receivers, and the
//     retired snapshot, protocolEngine, engine.kernel and
//     engine.pullThreshold — never move the hash: the spec with the
//     fuzzed hint values hashes as the spec without them.
//
// The seeds are the spec strings perfbench runs and specs in the older
// styles that still carry the retired hints.
func FuzzSpec(f *testing.F) {
	for _, s := range []string{
		`{"model":{"name":"geometric","n":4096},"trials":1,"sources":1,"workers":1,"parallelism":1,"snapshot":"full"}`,
		`{"model":{"name":"edge","n":8192,"phatmult":0.5,"q":0.002},"trials":1,"sources":1,"maxRounds":4096,"workers":1,"parallelism":1,"snapshot":"delta"}`,
		`{"model":{"name":"geometric","n":512},"trials":4,"seed":3,"workers":1,"parallelism":1}`,
		`{"model":{"name":"edge","n":1024},"trials":4,"seed":3,"workers":1,"parallelism":1}`,
		`{"model":{"name":"torus","n":512,"jump":0.2},"trials":2,"seed":3,"workers":1,"parallelism":1,"snapshot":"delta"}`,
		`{"model":{"name":"geometric","n":256},"protocol":{"name":"push-pull"},"trials":4,"seed":3,"workers":1,"parallelism":1}`,
		`{"model":{"name":"edge","n":256,"q":0.05},"protocol":{"name":"lossy","loss":0.2},"protocolEngine":"reference","snapshot":"delta","seedPolicy":"content"}`,
		`{"experiment":"E16","scale":"quick","protocolEngine":"reference","snapshot":"full"}`,
		`{"model":{"name":"edge","n":1024},"engine":{"kernel":"push"},"trials":4,"seed":3}`,
		`{"model":{"name":"geometric","n":512},"engine":{"kernel":"pull","pullThreshold":0.3},"trials":4,"seed":3}`,
		`{"model":{"name":"edge","n":1024,"q":0.002},"engine":{"kernel":"push","pullThreshold":0.3,"batchSources":true},"sources":8}`,
		`{"model":{"name":"torus","n":512},"engine":{"kernel":"pull","batchSources":true},"sources":4,"snapshot":"delta"}`,
	} {
		f.Add([]byte(s), uint8(3), int8(-1), "delta", 0.3, uint8(2))
	}
	f.Fuzz(func(t *testing.T, data []byte, workers uint8, par int8, hint string, thresh float64, receivers uint8) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		cj, err := s.CanonicalJSON()
		if err != nil {
			t.Fatalf("parsed spec has no canonical JSON: %v", err)
		}
		re, err := Parse(cj)
		if err != nil {
			t.Fatalf("canonical JSON does not re-parse: %v\n%s", err, cj)
		}
		cj2, err := re.CanonicalJSON()
		if err != nil {
			t.Fatalf("re-parsed spec has no canonical JSON: %v", err)
		}
		if !bytes.Equal(cj, cj2) {
			t.Fatalf("canonical JSON is not a fixed point:\n%s\n%s", cj, cj2)
		}
		h, err := s.Hash()
		if err != nil {
			t.Fatalf("Hash: %v", err)
		}
		if h2, _ := re.Hash(); h2 != h {
			t.Fatalf("re-parse moved the hash: %s vs %s", h, h2)
		}

		hinted := s
		hinted.Workers = int(workers)
		hinted.Parallelism = max(int(par), -1)
		hinted.Snapshot = hint
		hinted.ProtocolEngine = hint
		hinted.Engine.Kernel = hint
		hinted.Engine.PullThreshold = thresh
		hinted.Receivers = nil
		for i := 0; i < int(receivers)%(maxReceivers+1); i++ {
			hinted.Receivers = append(hinted.Receivers, "http://hooks.example/job")
		}
		hh, err := hinted.Hash()
		if err != nil {
			t.Fatalf("valid hints rejected: %v", err)
		}
		if hh != h {
			t.Fatalf("execution hints moved the hash: %s vs %s", h, hh)
		}
	})
}
