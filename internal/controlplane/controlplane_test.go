package controlplane_test

import (
	"slices"
	"testing"

	"github.com/nowproject/now/internal/controlplane"
	"github.com/nowproject/now/internal/faults"
	"github.com/nowproject/now/internal/glunix"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/stack"
	"github.com/nowproject/now/internal/xfs"
)

// buildStack is the shared test fixture: a small NOW with storage and
// a background job trickle, remediation armed per test.
func buildStack(t *testing.T, remediate bool) *stack.Stack {
	t.Helper()
	st, err := stack.NewServed(stack.ServeConfig{
		Seed:         1,
		Workstations: 12,
		XFSNodes:     8,
		Spares:       2,
		Managers:     2,
		JobEvery:     30 * sim.Second,
		JobNodes:     3,
		JobWork:      40 * sim.Second,
		RemediateOn:  remediate,
	})
	if err != nil {
		t.Fatalf("NewServed: %v", err)
	}
	t.Cleanup(st.Engine.Close)
	return st
}

func runTo(t *testing.T, st *stack.Stack, at sim.Time) {
	t.Helper()
	if err := st.Engine.RunUntil(at); err != nil {
		t.Fatalf("RunUntil(%s): %v", at, err)
	}
}

// counter reads one metric's value from the registry snapshot.
func counter(t *testing.T, st *stack.Stack, name string) int64 {
	t.Helper()
	for _, m := range st.Registry.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %s not registered", name)
	return 0
}

// TestDrainOrdering: a drain cordons first, then migrates — the node
// is never schedulable mid-evacuation, and ends drained with no guest.
func TestDrainOrdering(t *testing.T) {
	st := buildStack(t, false)
	// Let jobs land.
	runTo(t, st, 2*sim.Minute)

	// Pick a workstation hosting a job rank so the drain has work.
	target := -1
	for _, ws := range st.Cluster.Master.Census() {
		if ws.JobID >= 0 {
			target = ws.ID
			break
		}
	}
	if target < 0 {
		t.Fatal("no workstation hosting a job rank at 2m")
	}

	st.Engine.Spawn("test/drain", func(p *sim.Proc) {
		if err := st.CP.Drain(p, target); err != nil {
			t.Errorf("Drain(%d): %v", target, err)
		}
		// Ordering: by the time Drain returns the node must already be
		// cordoned (it was cordoned before the migration started).
		if !st.Cluster.Master.Cordoned(target) {
			t.Errorf("ws %d not cordoned after drain", target)
		}
	})
	runTo(t, st, 10*sim.Minute)

	ws, _ := st.Cluster.Master.WSInfo(target)
	if !ws.Drained {
		t.Fatalf("ws %d not drained", target)
	}
	if ws.JobID >= 0 {
		t.Fatalf("ws %d still hosts job %d rank %d after drain", target, ws.JobID, ws.Rank)
	}
	if got := counter(t, st, "cp.drains"); got != 1 {
		t.Fatalf("cp.drains = %d, want 1", got)
	}
}

// TestNoDoubleDrain: draining an already-cordoned node works once;
// draining again — or draining a drained node — is a no-op that never
// re-migrates or double-counts.
func TestNoDoubleDrain(t *testing.T) {
	st := buildStack(t, false)
	runTo(t, st, 2*sim.Minute)

	const target = 3
	if err := st.CP.Cordon(target); err != nil {
		t.Fatalf("Cordon: %v", err)
	}
	st.Engine.Spawn("test/drains", func(p *sim.Proc) {
		if err := st.CP.Drain(p, target); err != nil {
			t.Errorf("first Drain: %v", err)
		}
		if err := st.CP.Drain(p, target); err != nil {
			t.Errorf("second Drain: %v", err)
		}
	})
	runTo(t, st, 6*sim.Minute)

	if got := counter(t, st, "cp.drains"); got != 1 {
		t.Fatalf("cp.drains = %d, want 1 (second drain must be a no-op)", got)
	}
	if got := counter(t, st, "cp.cordons"); got != 1 {
		t.Fatalf("cp.cordons = %d, want 1 (drain must not re-cordon)", got)
	}
	// A second cordon of the same node is an error, not a re-cordon.
	if err := st.CP.Cordon(target); err == nil {
		t.Fatal("Cordon of an already-cordoned node did not error")
	}
	if got := counter(t, st, "cp.cordons"); got != 1 {
		t.Fatalf("cp.cordons = %d after rejected cordon, want 1", got)
	}
}

// TestRemediatorCordonUncordon: the AV1-style crash window. A crashed
// workstation is cordoned after the down grace and uncordoned only
// after it has rejoined and stayed stable.
func TestRemediatorCordonUncordon(t *testing.T) {
	st := buildStack(t, true)

	// AV1's crash line, relocated: crash ws 5 at 2m for 5m.
	if err := st.CP.InjectLine("2m crash 5 for 5m"); err != nil {
		t.Fatalf("InjectLine: %v", err)
	}

	// Heartbeat census (5s × 3) plus 30s grace plus a 15s sweep: well
	// cordoned by 4m, still down.
	runTo(t, st, 4*sim.Minute)
	if !st.Cluster.Master.Cordoned(5) {
		t.Fatal("crashed ws 5 not cordoned by remediator")
	}
	if got := counter(t, st, "remediate.cordons"); got != 1 {
		t.Fatalf("remediate.cordons = %d, want 1", got)
	}

	// Recovery at 7m, rejoin on heartbeat, 60s stability, sweep: clear
	// by 10m.
	runTo(t, st, 10*sim.Minute)
	if st.Cluster.Master.Cordoned(5) {
		t.Fatal("recovered ws 5 still cordoned after stability window")
	}
	if got := counter(t, st, "remediate.uncordons"); got != 1 {
		t.Fatalf("remediate.uncordons = %d, want 1", got)
	}
}

// TestRemediatorRespectsOperatorCordon: the remediator never lifts a
// cordon it did not place.
func TestRemediatorRespectsOperatorCordon(t *testing.T) {
	st := buildStack(t, true)
	runTo(t, st, 1*sim.Minute)
	if err := st.CP.Cordon(7); err != nil {
		t.Fatalf("Cordon: %v", err)
	}
	// ws 7 is up and stable for far longer than StableFor.
	runTo(t, st, 10*sim.Minute)
	if !st.Cluster.Master.Cordoned(7) {
		t.Fatal("remediator lifted an operator cordon")
	}
}

// TestRemediatorRebuildBeforeRejoin: a failed stripe member triggers an
// automatic rebuild onto a spare — manager roles move off the dead node
// first, and the stripe is whole again (the rebuilt spare has joined)
// before anything else happens to the layout.
func TestRemediatorRebuildBeforeRejoin(t *testing.T) {
	st := buildStack(t, true)

	// AV1's disk failure: node 1 is both a stripe member and a manager
	// host, so remediation must order handoff before rebuild.
	if err := st.CP.InjectLine("2m diskfail 1"); err != nil {
		t.Fatalf("InjectLine: %v", err)
	}
	// The 2m sweep coincides with the fault; the rebuild may complete
	// within the same instant on a young stripe, so assert final state.
	runTo(t, st, 20*sim.Minute)
	if got := st.XFS.FailedStores(); len(got) != 0 {
		t.Fatalf("stripe still degraded after remediation: failed %v", got)
	}
	if got := counter(t, st, "remediate.rebuilds"); got != 1 {
		t.Fatalf("remediate.rebuilds = %d, want 1", got)
	}
	if mgrs := st.XFS.ManagersOn(1); len(mgrs) != 0 {
		t.Fatalf("managers %v still on dead node 1", mgrs)
	}
	if st.XFS.Stats().Handoffs == 0 {
		t.Fatal("no graceful manager handoff recorded (crash failover instead?)")
	}
	// The spare adopted the dead member's slot: node 1 is out of the
	// stripe, a former spare is in.
	inStripe := false
	for _, m := range st.XFS.StripeMembers() {
		if m == 1 {
			inStripe = true
		}
	}
	if inStripe {
		t.Fatal("dead node 1 still named in the stripe layout")
	}
	if got := st.CP.Status().SparesLeft; got != 1 {
		t.Fatalf("spare pool = %d, want 1 (one consumed by the rebuild)", got)
	}
}

// TestRemediatorDisabledTakesNoAction: the same fault timeline with
// remediation off leaves the cordon and the degraded stripe alone.
func TestRemediatorDisabledTakesNoAction(t *testing.T) {
	st := buildStack(t, false)
	if err := st.CP.InjectLine("2m crash 5 for 5m"); err != nil {
		t.Fatalf("InjectLine: %v", err)
	}
	if err := st.CP.InjectLine("2m diskfail 1"); err != nil {
		t.Fatalf("InjectLine: %v", err)
	}
	runTo(t, st, 20*sim.Minute)
	if st.Cluster.Master.Cordoned(5) {
		t.Fatal("disabled remediator cordoned a node")
	}
	if got := st.XFS.FailedStores(); len(got) != 1 {
		t.Fatalf("disabled remediator changed the stripe: failed %v", got)
	}
	if got := counter(t, st, "remediate.actions"); got != 0 {
		t.Fatalf("remediate.actions = %d with remediation off", got)
	}
}

// TestStorageDrain: the operator form — hand off, remove, rebuild.
func TestStorageDrain(t *testing.T) {
	st := buildStack(t, false)
	runTo(t, st, 1*sim.Minute)

	before := st.XFS.Stats().Handoffs
	st.Engine.Spawn("test/drain-storage", func(p *sim.Proc) {
		if err := st.CP.DrainStorage(p, 0); err != nil {
			t.Errorf("DrainStorage(0): %v", err)
		}
	})
	runTo(t, st, 30*sim.Minute)

	if !st.XFS.NodeDown(0) {
		t.Fatal("xfs node 0 still up after storage drain")
	}
	if got := st.XFS.FailedStores(); len(got) != 0 {
		t.Fatalf("stripe degraded after storage drain: failed %v", got)
	}
	if mgrs := st.XFS.ManagersOn(0); len(mgrs) != 0 {
		t.Fatalf("managers %v still on drained node 0", mgrs)
	}
	if st.XFS.Stats().Handoffs == before {
		t.Fatal("storage drain did not hand off the manager")
	}
	if st.XFS.Stats().Failovers != 0 {
		t.Fatalf("storage drain caused %d crash failovers, want 0", st.XFS.Stats().Failovers)
	}
	if got := counter(t, st, "cp.drains.storage"); got != 1 {
		t.Fatalf("cp.drains.storage = %d, want 1", got)
	}
}

// TestInjectLineGrammar: the live seam accepts both the full plan
// grammar and the at-less immediate form, and rejects garbage.
func TestInjectLineGrammar(t *testing.T) {
	st := buildStack(t, false)
	runTo(t, st, 30*sim.Second)

	if err := st.CP.InjectLine("crash 5 for 30s"); err != nil {
		t.Fatalf("at-less line: %v", err)
	}
	if err := st.CP.InjectLine("10s crash 6 for 30s"); err != nil {
		t.Fatalf("timed line: %v", err)
	}
	if err := st.CP.InjectLine("frobnicate 5"); err == nil {
		t.Fatal("nonsense line accepted")
	}
	if err := st.CP.InjectLine(""); err == nil {
		t.Fatal("empty line accepted")
	}

	runTo(t, st, 45*sim.Second)
	if st.Cluster.Up(5) {
		t.Fatal("immediate crash 5 did not land")
	}
	if st.Cluster.Up(6) == false && st.Engine.Now() < 40*sim.Second {
		t.Fatal("timed crash 6 landed early")
	}
	if got := counter(t, st, "cp.faults.live"); got != 2 {
		t.Fatalf("cp.faults.live = %d, want 2", got)
	}
}

// TestPlanAndDrainRebuildsTakeDistinctSpares: a plan rebuild through
// the caller's injector and a later storage drain through a control
// plane built by hand (no stack) draw from one hot-spare pool, so the
// drain never rebuilds onto the spare the plan already used.
func TestPlanAndDrainRebuildsTakeDistinctSpares(t *testing.T) {
	e := sim.NewEngine(1)
	t.Cleanup(e.Close)
	reg := obs.NewRegistry()
	xcfg := xfs.DefaultConfig(8)
	xcfg.SpareNodes = 2
	sys, err := xfs.New(e, xcfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := glunix.DefaultConfig(4)
	gcfg.Obs = reg
	c, err := glunix.New(e, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.Scripted("t",
		faults.Fault{At: sim.Time(sim.Second), Kind: faults.DiskFail, Node: 2},
		faults.Fault{At: sim.Time(2 * sim.Second), Kind: faults.Rebuild, Node: 2, Peer: -1},
	)
	inj := faults.NewInjector(e, faults.Combine(faults.ClusterTarget{C: c}, faults.NewXFSTarget(sys)), plan, reg)
	inj.Schedule()
	cp, err := controlplane.New(controlplane.Config{Engine: e, Cluster: c, XFS: sys, Injector: inj, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	spares := []int{cp.Status().SparesLeft}

	if err := e.RunUntil(sim.Time(10 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	spares = append(spares, cp.Status().SparesLeft)
	planSpare := sys.StripeMembers()[2]
	e.Spawn("test/drain-storage", func(p *sim.Proc) {
		if err := cp.DrainStorage(p, 3); err != nil {
			t.Errorf("DrainStorage(3): %v", err)
		}
	})
	if err := e.RunUntil(sim.Time(20 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	spares = append(spares, cp.Status().SparesLeft)

	stripe := sys.StripeMembers()
	if drainSpare := stripe[3]; drainSpare == planSpare {
		t.Errorf("plan rebuild and drain both used spare %d", planSpare)
	}
	seen := make(map[int]bool)
	for _, n := range stripe {
		if seen[n] {
			t.Errorf("stripe %v names node %d twice", stripe, n)
		}
		seen[n] = true
	}
	if want := []int{2, 1, 0}; !slices.Equal(spares, want) {
		t.Errorf("SparesLeft went %v, want %v", spares, want)
	}
}
