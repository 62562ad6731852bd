package flood

import (
	"testing"

	"meg/internal/core"
	"meg/internal/spec"
)

// allModelSpecs builds one small spec per evolving-graph model — the
// complete set the spec factory knows.
func allModelSpecs(t *testing.T) []spec.Spec {
	t.Helper()
	names := []string{"geometric", "torus", "edge", "waypoint", "billiard", "walkers", "iiddisk"}
	specs := make([]spec.Spec, 0, len(names))
	for _, name := range names {
		s := spec.Spec{
			Model:   spec.Model{Name: name, N: 600, RFrac: 0.5},
			Trials:  2,
			Sources: 3,
			Seed:    11,
		}
		if _, err := s.Canonical(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		specs = append(specs, s)
	}
	return specs
}

// runWithParallelism executes a spec's campaign with the given
// intra-trial parallelism.
func runWithParallelism(t *testing.T, s spec.Spec, parallelism int, batch bool) Campaign {
	t.Helper()
	return runWithSnapshot(t, s, "", parallelism, batch)
}

// runWithSnapshot is runWithParallelism with the snapshot path pinned
// as in withSnapshotPath ("" leaves the engines' choice in place).
func runWithSnapshot(t *testing.T, s spec.Spec, path string, parallelism int, batch bool) Campaign {
	t.Helper()
	s.Parallelism = parallelism
	s.Engine.BatchSources = batch
	factory, _, err := s.NewFactory()
	if err != nil {
		t.Fatalf("NewFactory: %v", err)
	}
	opt, err := OptionsFromSpec(s)
	if err != nil {
		t.Fatalf("OptionsFromSpec: %v", err)
	}
	return Run(withSnapshotPath(factory, path), opt)
}

// campaignsEqual compares two campaigns trial by trial, arrival arrays
// included — the byte-identity contract of the Parallelism knob.
func campaignsEqual(t *testing.T, label string, a, b Campaign) {
	t.Helper()
	if len(a.Trials) != len(b.Trials) {
		t.Fatalf("%s: trial counts %d vs %d", label, len(a.Trials), len(b.Trials))
	}
	if a.Incomplete != b.Incomplete {
		t.Fatalf("%s: incomplete %d vs %d", label, a.Incomplete, b.Incomplete)
	}
	for i := range a.Trials {
		ra, rb := a.Trials[i].Result, b.Trials[i].Result
		if ra.Source != rb.Source || ra.Rounds != rb.Rounds || ra.Completed != rb.Completed {
			t.Fatalf("%s: trial %d headers differ: {src %d rounds %d %v} vs {src %d rounds %d %v}",
				label, i, ra.Source, ra.Rounds, ra.Completed, rb.Source, rb.Rounds, rb.Completed)
		}
		if len(ra.Trajectory) != len(rb.Trajectory) {
			t.Fatalf("%s: trial %d trajectory lengths differ", label, i)
		}
		for j := range ra.Trajectory {
			if ra.Trajectory[j] != rb.Trajectory[j] {
				t.Fatalf("%s: trial %d trajectory[%d] = %d vs %d", label, i, j, ra.Trajectory[j], rb.Trajectory[j])
			}
		}
		if len(ra.Arrival) != len(rb.Arrival) {
			t.Fatalf("%s: trial %d arrival lengths differ", label, i)
		}
		for v := range ra.Arrival {
			if ra.Arrival[v] != rb.Arrival[v] {
				t.Fatalf("%s: trial %d arrival[%d] = %d vs %d", label, i, v, ra.Arrival[v], rb.Arrival[v])
			}
		}
	}
}

// TestParallelismIdenticalAcrossAllModels is the determinism gate for
// the sharded engine: on every one of the seven models, Parallelism 1
// and Parallelism 8 must produce identical campaigns — same trials,
// rounds, trajectories and per-node arrival times — because the worker
// pool is an execution hint, never a semantic.
func TestParallelismIdenticalAcrossAllModels(t *testing.T) {
	for _, s := range allModelSpecs(t) {
		name := s.Model.Name
		serial := runWithParallelism(t, s, 1, false)
		sharded := runWithParallelism(t, s, 8, false)
		campaignsEqual(t, name, serial, sharded)
		if serial.Incomplete > 0 {
			t.Errorf("%s: determinism case never completed (vacuous comparison)", name)
		}
	}
}

// TestParallelismIdenticalBatchedMulti covers the FloodMulti path: the
// batched bit-parallel estimator must also be worker-count independent.
func TestParallelismIdenticalBatchedMulti(t *testing.T) {
	for _, s := range allModelSpecs(t) {
		s.Sources = 70 // spans two 64-wide groups
		serial := runWithParallelism(t, s, 1, true)
		sharded := runWithParallelism(t, s, 8, true)
		campaignsEqual(t, s.Model.Name+"/batched", serial, sharded)
	}
}

// TestParallelismZeroMeansSerial pins the compatibility contract: the
// zero value runs the engine as one shard and matches Parallelism 1
// exactly.
func TestParallelismZeroMeansSerial(t *testing.T) {
	s := allModelSpecs(t)[0]
	zero := runWithParallelism(t, s, 0, false)
	one := runWithParallelism(t, s, 1, false)
	campaignsEqual(t, "zero-vs-one", zero, one)
}

// TestParallelismAcrossKernels pins kernel × parallelism: the pinned
// push and pull kernels must agree with each other under sharding, and
// with the geometric model's own cell-grid spread, which hiding its
// optional interfaces turns off.
func TestParallelismAcrossKernels(t *testing.T) {
	s := allModelSpecs(t)[0]
	s.Parallelism = 4
	factory, _, err := s.NewFactory()
	if err != nil {
		t.Fatalf("NewFactory: %v", err)
	}
	opt, err := OptionsFromSpec(s)
	if err != nil {
		t.Fatalf("OptionsFromSpec: %v", err)
	}
	base := Run(factory, opt)
	csr := func() core.Dynamics { return struct{ core.Dynamics }{factory()} }
	for _, kernel := range []string{"push", "pull"} {
		c := func() Campaign {
			defer core.SetKernelForTest(kernel)()
			return Run(csr, opt)
		}()
		campaignsEqual(t, kernel+"-vs-spread/sharded", base, c)
	}
}
