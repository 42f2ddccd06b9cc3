package faults

import (
	"github.com/nowproject/now/internal/glunix"
	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/xfs"
)

// Target is the seam between the injector and the live stack. Each
// method applies one fault class and reports whether this target
// handled it (false lets a Combine sibling try, and counts as skipped
// if nobody does). Methods must be cheap and non-blocking except where
// a *sim.Proc is passed — those may block the transient proc the
// injector spawned for them.
type Target interface {
	// CrashNode fail-stops workstation n.
	CrashNode(n int) bool
	// RecoverNode reboots workstation n.
	RecoverNode(n int) bool
	// PartitionNodes cuts set off from the rest of the fabric.
	PartitionNodes(set []int) bool
	// Heal removes the partition.
	Heal() bool
	// LinkFault degrades the a↔b link.
	LinkFault(a, b int, loss float64, delay sim.Duration) bool
	// LinkClear restores the a↔b link.
	LinkClear(a, b int) bool
	// FailDisk fail-stops storage node n.
	FailDisk(n int) bool
	// RebuildDisk reconstructs failed onto replacement (-1 = pick a
	// spare). The error (when handled) surfaces rebuild refusals such
	// as swraid.ErrNotDegraded.
	RebuildDisk(p *sim.Proc, failed, replacement int) (bool, error)
	// KillManager crashes the host of manager idx, forcing failover.
	KillManager(p *sim.Proc, idx int) bool
}

// BaseTarget implements Target entirely as "not handled". Embed it in
// adapters that cover a subset of fault classes.
type BaseTarget struct{}

func (BaseTarget) CrashNode(int) bool                             { return false }
func (BaseTarget) RecoverNode(int) bool                           { return false }
func (BaseTarget) PartitionNodes([]int) bool                      { return false }
func (BaseTarget) Heal() bool                                     { return false }
func (BaseTarget) LinkFault(int, int, float64, sim.Duration) bool { return false }
func (BaseTarget) LinkClear(int, int) bool                        { return false }
func (BaseTarget) FailDisk(int) bool                              { return false }
func (BaseTarget) RebuildDisk(*sim.Proc, int, int) (bool, error)  { return false, nil }
func (BaseTarget) KillManager(*sim.Proc, int) bool                { return false }

// ClusterTarget wires node and network faults to a GLUnix cluster and
// its fabric. Node ids are fabric NodeIDs; node 0 hosts the master and
// is refused (crashing the resource manager is outside the paper's
// fail-over story — and outside this PR).
type ClusterTarget struct {
	BaseTarget
	C *glunix.Cluster
}

func (t ClusterTarget) nodes() int { return len(t.C.EPs) }

func (t ClusterTarget) CrashNode(n int) bool {
	if n <= 0 || n >= t.nodes() {
		return false
	}
	t.C.Crash(n)
	return true
}

func (t ClusterTarget) RecoverNode(n int) bool {
	if n <= 0 || n >= t.nodes() {
		return false
	}
	t.C.Recover(n)
	return true
}

func (t ClusterTarget) PartitionNodes(set []int) bool {
	ids := make([]netsim.NodeID, 0, len(set))
	for _, n := range set {
		if n < 0 || n >= t.nodes() {
			return false
		}
		ids = append(ids, netsim.NodeID(n))
	}
	if len(ids) == 0 {
		return false
	}
	t.C.Fab.Partition(ids)
	return true
}

func (t ClusterTarget) Heal() bool {
	t.C.Fab.Heal()
	return true
}

func (t ClusterTarget) LinkFault(a, b int, loss float64, delay sim.Duration) bool {
	if a < 0 || a >= t.nodes() || b < 0 || b >= t.nodes() || a == b {
		return false
	}
	t.C.Fab.SetLinkFault(netsim.NodeID(a), netsim.NodeID(b), loss, delay)
	return true
}

func (t ClusterTarget) LinkClear(a, b int) bool {
	if a < 0 || a >= t.nodes() || b < 0 || b >= t.nodes() || a == b {
		return false
	}
	t.C.Fab.ClearLinkFault(netsim.NodeID(a), netsim.NodeID(b))
	return true
}

// XFSTarget wires storage faults to an xFS installation: disk
// fail-stop, rebuild onto hot spares, manager kill/failover. The xFS
// system owns the hot-spare list, so a rebuild with replacement -1 takes
// the same next spare however many targets wrap the system.
type XFSTarget struct {
	BaseTarget
	S *xfs.System
}

// NewXFSTarget builds the adapter.
func NewXFSTarget(s *xfs.System) *XFSTarget { return &XFSTarget{S: s} }

func (t *XFSTarget) FailDisk(n int) bool {
	if n < 0 || n >= t.S.Nodes() {
		return false
	}
	t.S.CrashStorage(n)
	return true
}

func (t *XFSTarget) RebuildDisk(p *sim.Proc, failed, replacement int) (bool, error) {
	if failed < 0 || failed >= t.S.Nodes() {
		return false, nil
	}
	return true, t.S.RecoverStorage(p, failed, replacement)
}

func (t *XFSTarget) KillManager(p *sim.Proc, idx int) bool {
	if idx < 0 || idx >= t.S.Managers() {
		return false
	}
	t.S.FailManager(p, idx)
	return true
}

// Combine layers targets: each fault goes to the first target that
// handles it, so a cluster adapter and a storage adapter compose into
// one stack-wide target.
func Combine(targets ...Target) Target { return combined(targets) }

type combined []Target

func (c combined) CrashNode(n int) bool {
	for _, t := range c {
		if t.CrashNode(n) {
			return true
		}
	}
	return false
}

func (c combined) RecoverNode(n int) bool {
	for _, t := range c {
		if t.RecoverNode(n) {
			return true
		}
	}
	return false
}

func (c combined) PartitionNodes(set []int) bool {
	for _, t := range c {
		if t.PartitionNodes(set) {
			return true
		}
	}
	return false
}

func (c combined) Heal() bool {
	for _, t := range c {
		if t.Heal() {
			return true
		}
	}
	return false
}

func (c combined) LinkFault(a, b int, loss float64, delay sim.Duration) bool {
	for _, t := range c {
		if t.LinkFault(a, b, loss, delay) {
			return true
		}
	}
	return false
}

func (c combined) LinkClear(a, b int) bool {
	for _, t := range c {
		if t.LinkClear(a, b) {
			return true
		}
	}
	return false
}

func (c combined) FailDisk(n int) bool {
	for _, t := range c {
		if t.FailDisk(n) {
			return true
		}
	}
	return false
}

func (c combined) RebuildDisk(p *sim.Proc, failed, replacement int) (bool, error) {
	for _, t := range c {
		if ok, err := t.RebuildDisk(p, failed, replacement); ok {
			return true, err
		}
	}
	return false, nil
}

func (c combined) KillManager(p *sim.Proc, idx int) bool {
	for _, t := range c {
		if t.KillManager(p, idx) {
			return true
		}
	}
	return false
}
