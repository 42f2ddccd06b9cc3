// Package stack builds one building's NOW — an xFS installation, a
// GLUnix cluster and, when asked, the fault pipeline and the control
// plane over both — in one fixed order, and returns it without running
// it. Every classic and federated runner builds through here: scenario
// runs, the AV availability studies, each member of a federation and
// `nowsim serve`, so the stack an operator serves is the stack the
// scenarios test.
//
// The build order is part of the contract, because construction order
// is event order on a deterministic engine:
//
//  1. xFS, instrumented. Its fabric claims the net.* metric names only
//     when there is no cluster.
//  2. GLUnix, instrumented on the caller's registry.
//  3. When the spec has a fault plan or a remediation policy: an
//     injector over the combined cluster+storage target (its plan
//     scheduled), and, with a policy, the control plane and its started
//     (but disabled) remediator. Both draw hot spares from the xFS
//     system itself, so nothing else is shared.
//
// Callers schedule their workload after Build returns and register
// checkpoints last, so a checkpoint sees every same-instant event.
package stack

import (
	"errors"

	"github.com/nowproject/now/internal/controlplane"
	"github.com/nowproject/now/internal/faults"
	"github.com/nowproject/now/internal/glunix"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/xfs"
)

// Spec says what to build. Every part is optional; nil leaves it out.
type Spec struct {
	// GLUnix installs the workstation cluster. Its Obs field is
	// overridden with the registry passed to Build.
	GLUnix *glunix.Config
	// XFS installs the storage fleet.
	XFS *xfs.Config
	// Faults builds the injector over the combined cluster+storage
	// target and schedules this plan.
	Faults *faults.Plan
	// Remediation builds the control plane (which needs GLUnix) and a
	// remediator under this policy, started but disabled until the
	// caller calls SetEnabled. It implies an injector.
	Remediation *controlplane.RemediationPolicy
	// StorageRegistry, when non-nil, receives the xFS metrics instead
	// of the registry passed to Build.
	StorageRegistry *obs.Registry
}

// Stack is one built NOW. Parts the spec left out are nil.
type Stack struct {
	Engine     *sim.Engine
	Registry   *obs.Registry
	Cluster    *glunix.Cluster
	XFS        *xfs.System
	Injector   *faults.Injector
	CP         *controlplane.ControlPlane
	Remediator *controlplane.Remediator
}

// Build assembles spec on e, instrumenting into reg, in the order the
// package comment gives. Nothing runs until the caller drives e.
func Build(e *sim.Engine, reg *obs.Registry, spec Spec) (*Stack, error) {
	if spec.Remediation != nil && spec.GLUnix == nil {
		return nil, errors.New("stack: a control plane needs a GLUnix cluster")
	}
	st := &Stack{Engine: e, Registry: reg}
	if spec.XFS != nil {
		sys, err := xfs.New(e, *spec.XFS)
		if err != nil {
			return nil, err
		}
		sreg := reg
		if spec.StorageRegistry != nil {
			sreg = spec.StorageRegistry
		}
		sys.Instrument(sreg)
		if spec.GLUnix == nil {
			sys.Fabric().Instrument(sreg)
		}
		st.XFS = sys
	}
	if spec.GLUnix != nil {
		gcfg := *spec.GLUnix
		gcfg.Obs = reg
		c, err := glunix.New(e, gcfg)
		if err != nil {
			return nil, err
		}
		st.Cluster = c
	}
	if spec.Faults == nil && spec.Remediation == nil {
		return st, nil
	}

	var tgts []faults.Target
	if st.Cluster != nil {
		tgts = append(tgts, faults.ClusterTarget{C: st.Cluster})
	}
	if st.XFS != nil {
		tgts = append(tgts, faults.NewXFSTarget(st.XFS))
	}
	var plan faults.Plan
	if spec.Faults != nil {
		plan = *spec.Faults
	}
	st.Injector = faults.NewInjector(e, faults.Combine(tgts...), plan, reg)
	st.Injector.Schedule()
	if spec.Remediation == nil {
		return st, nil
	}

	cp, err := controlplane.New(controlplane.Config{
		Engine:   e,
		Cluster:  st.Cluster,
		XFS:      st.XFS,
		Injector: st.Injector,
		Registry: reg,
	})
	if err != nil {
		return nil, err
	}
	st.CP = cp
	st.Remediator = controlplane.NewRemediator(cp, *spec.Remediation)
	st.Remediator.Start()
	return st, nil
}
