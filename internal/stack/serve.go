package stack

import (
	"fmt"

	"github.com/nowproject/now/internal/controlplane"
	"github.com/nowproject/now/internal/glunix"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/xfs"
)

// ServeConfig shapes a servable NOW: a GLUnix workstation cluster, an
// optional xFS installation, the control plane over both, and a
// (disabled-until-told) remediator. `nowsim serve` builds one of these;
// so do the end-to-end tests.
type ServeConfig struct {
	Seed         int64
	Workstations int
	// XFSNodes > 0 adds a storage fleet with Spares hot spares and
	// Managers metadata managers.
	XFSNodes int
	Spares   int
	Managers int
	// JobEvery > 0 trickles background parallel jobs into the cluster
	// (JobNodes wide, JobWork each) so a served simulation has pulse.
	JobEvery sim.Duration
	JobNodes int
	JobWork  sim.Duration
	// Policy tunes the remediator; zero value = defaults.
	Policy controlplane.RemediationPolicy
	// RemediateOn arms self-healing from t=0.
	RemediateOn bool
}

// NewServed builds the servable stack on a fresh engine and schedules
// its job trickle. Nothing has run yet: drive with Engine.RunUntil
// directly (tests) or wrap CP in a controlplane.Server (`nowsim
// serve`). Close the Engine when done.
func NewServed(cfg ServeConfig) (*Stack, error) {
	if cfg.Workstations < 2 {
		return nil, fmt.Errorf("stack: need ≥2 workstations, have %d", cfg.Workstations)
	}
	e := sim.NewEngine(cfg.Seed)
	reg := obs.NewRegistry()
	e.Observe(reg)

	gcfg := glunix.DefaultConfig(cfg.Workstations)
	gcfg.Seed = cfg.Seed
	spec := Spec{GLUnix: &gcfg, Remediation: &cfg.Policy}
	if cfg.XFSNodes > 0 {
		xcfg := xfs.DefaultConfig(cfg.XFSNodes)
		xcfg.SpareNodes = cfg.Spares
		if cfg.Managers > 0 {
			xcfg.Managers = cfg.Managers
		}
		spec.XFS = &xcfg
	}
	st, err := Build(e, reg, spec)
	if err != nil {
		e.Close()
		return nil, err
	}
	st.Remediator.SetEnabled(cfg.RemediateOn)

	if cfg.JobEvery > 0 {
		nodes, work := cfg.JobNodes, cfg.JobWork
		if nodes <= 0 {
			nodes = 2
		}
		if work <= 0 {
			work = 20 * sim.Second
		}
		c := st.Cluster
		e.Spawn("stack/job-trickle", func(p *sim.Proc) {
			for id := 0; ; id++ {
				c.Master.Submit(glunix.NewJob(id, nodes, work, 0))
				p.Sleep(cfg.JobEvery)
			}
		})
	}
	return st, nil
}
