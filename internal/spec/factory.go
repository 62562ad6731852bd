package spec

import (
	"fmt"
	"math"

	"meg/internal/core"
	"meg/internal/edgemeg"
	"meg/internal/geommeg"
	"meg/internal/mobility"
)

// NewFactory builds the trial factory for the spec's model together
// with a human-readable description of the instantiated parameters.
// This is the single model-construction path shared by megsim and
// megserve. It fails on experiment specs, which do not name a model.
//
// When the spec carries a Parallelism hint the factory hands it to
// every constructed dynamics (core.Parallelizable), so snapshot builds
// use the worker pool no matter which engine — flooding, protocol, or
// experiment — drives the model. Snapshots are byte-identical for every
// worker count, which is what lets an execution hint stay outside the
// content hash.
func (s Spec) NewFactory() (func() core.Dynamics, string, error) {
	c, err := s.Canonical()
	if err != nil {
		return nil, "", err
	}
	if c.Experiment != "" {
		return nil, "", fmt.Errorf("spec: experiment spec %q has no model factory", c.Experiment)
	}
	wrap := func(mk func() core.Dynamics, desc string, err error) (func() core.Dynamics, string, error) {
		if p := c.Parallelism; p != 0 && err == nil {
			inner := mk
			mk = func() core.Dynamics {
				d := inner()
				if pz, ok := d.(core.Parallelizable); ok {
					pz.SetParallelism(p)
				}
				return d
			}
		}
		return mk, desc, err
	}
	m := c.Model
	n := m.N
	radius := m.Mult * math.Sqrt(math.Log(float64(n))/m.Density)
	side := math.Sqrt(float64(n))
	moveR := m.RFrac * radius

	switch m.Name {
	case "geometric":
		cfg := geommeg.Config{N: n, R: radius, MoveRadius: moveR, Density: m.Density, Jump: m.Jump}
		if err := cfg.Validate(); err != nil {
			return nil, "", err
		}
		return wrap(func() core.Dynamics { return geommeg.MustNew(cfg) },
			fmt.Sprintf("geometric-MEG n=%d R=%.2f r=%.2f δ=%.2f", n, radius, moveR, m.Density), nil)
	case "torus":
		cfg := geommeg.Config{N: n, R: radius, MoveRadius: moveR, Density: m.Density, Jump: m.Jump, Torus: true}
		if err := cfg.Validate(); err != nil {
			return nil, "", err
		}
		return wrap(func() core.Dynamics { return geommeg.MustNew(cfg) },
			fmt.Sprintf("walkers on toroidal grid n=%d R=%.2f r=%.2f", n, radius, moveR), nil)
	case "edge":
		pHat := m.PhatMult * math.Log(float64(n)) / float64(n)
		if pHat >= 1 {
			return nil, "", fmt.Errorf("spec: edge model p̂=%.3g ≥ 1 (phatmult too large for n=%d)", pHat, n)
		}
		p := m.Q * pHat / (1 - pHat)
		init := edgemeg.InitStationary
		if m.Empty {
			init = edgemeg.InitEmpty
		}
		cfg := edgemeg.Config{N: n, P: p, Q: m.Q, Init: init}
		if err := cfg.Validate(); err != nil {
			return nil, "", err
		}
		return wrap(func() core.Dynamics { return edgemeg.MustNew(cfg) },
			fmt.Sprintf("edge-MEG n=%d p=%.3g q=%.3g p̂=%.3g init=%s", n, p, m.Q, pHat, init), nil)
	case "waypoint":
		return wrap(func() core.Dynamics {
			return mobility.NewDynamics(mobility.NewWaypointTorus(n, side, moveR/2, moveR), radius)
		},
			fmt.Sprintf("random waypoint torus n=%d R=%.2f v∈[%.2f,%.2f]", n, radius, moveR/2, moveR), nil)
	case "billiard":
		return wrap(func() core.Dynamics {
			return mobility.NewDynamics(mobility.NewBilliard(n, side, moveR, 0.1), radius)
		},
			fmt.Sprintf("billiard n=%d R=%.2f speed=%.2f", n, radius, moveR), nil)
	case "walkers":
		return wrap(func() core.Dynamics {
			return mobility.NewDynamics(mobility.NewWalkersTorus(n, side, moveR), radius)
		},
			fmt.Sprintf("continuous walkers torus n=%d R=%.2f r=%.2f", n, radius, moveR), nil)
	case "iiddisk":
		return wrap(func() core.Dynamics {
			return mobility.NewDynamics(mobility.NewRestrictedDisk(n, side, 2*radius), radius)
		},
			fmt.Sprintf("restricted i.i.d. disk n=%d R=%.2f roam=%.2f", n, radius, 2*radius), nil)
	}
	return nil, "", fmt.Errorf("spec: unknown model %q", m.Name)
}
