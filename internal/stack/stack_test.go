package stack

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	"github.com/nowproject/now/internal/controlplane"
	"github.com/nowproject/now/internal/faults"
	"github.com/nowproject/now/internal/glunix"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/xfs"
)

func build(t *testing.T, spec Spec) (*Stack, *obs.Registry) {
	t.Helper()
	e := sim.NewEngine(1)
	t.Cleanup(e.Close)
	reg := obs.NewRegistry()
	e.Observe(reg)
	st, err := Build(e, reg, spec)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return st, reg
}

func registered(reg *obs.Registry, name string) bool {
	for _, n := range reg.MetricNames() {
		if n == name {
			return true
		}
	}
	return false
}

// TestBuildNetNamesConvention: the storage fabric claims the net.*
// names only when no cluster fabric will.
func TestBuildNetNamesConvention(t *testing.T) {
	xcfg := xfs.DefaultConfig(4)
	gcfg := glunix.DefaultConfig(4)

	st, reg := build(t, Spec{XFS: &xcfg})
	if !registered(reg, "net.delivered") || !registered(reg, "xfs.reads") {
		t.Fatalf("storage-only stack lacks net.* or xfs.* metrics: %v", reg.MetricNames())
	}
	if st.Cluster != nil || st.Injector != nil || st.CP != nil {
		t.Fatal("storage-only spec built more than storage")
	}

	st, reg = build(t, Spec{XFS: &xcfg, GLUnix: &gcfg})
	if st.Cluster == nil || st.XFS == nil {
		t.Fatal("both fleets not built")
	}
	st.Engine.Spawn("test/read", func(p *sim.Proc) {
		st.XFS.Client(0).Read(p, 1, 0) //nolint:errcheck
	})
	if err := st.Engine.RunUntil(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	// Only cluster traffic is on the named fabric counters.
	if got, want := mustCounter(t, reg, "net.delivered"), st.Cluster.Fab.Stats().Delivered; got != want {
		t.Fatalf("net.delivered = %d, want the cluster fabric's %d", got, want)
	}
}

// TestBuildStorageRegistry: a separate storage registry takes the xFS
// metrics; the engine registry keeps the rest.
func TestBuildStorageRegistry(t *testing.T) {
	xcfg := xfs.DefaultConfig(4)
	gcfg := glunix.DefaultConfig(4)
	sreg := obs.NewRegistry()
	_, reg := build(t, Spec{XFS: &xcfg, GLUnix: &gcfg, StorageRegistry: sreg})
	if registered(reg, "xfs.reads") {
		t.Fatal("xfs.* landed in the engine registry")
	}
	if !registered(sreg, "xfs.reads") {
		t.Fatal("xfs.* missing from the storage registry")
	}
	if !registered(reg, "glunix.jobs.completed") {
		t.Fatalf("glunix metrics missing: %v", reg.MetricNames())
	}
}

// TestBuildFaultsAndControl: a plan gets an injector over both fleets;
// a remediation policy adds a control plane that shares it, with the
// remediator started but disabled.
func TestBuildFaultsAndControl(t *testing.T) {
	xcfg := xfs.DefaultConfig(6)
	xcfg.SpareNodes = 1
	gcfg := glunix.DefaultConfig(4)
	plan := faults.Scripted("t",
		faults.Fault{At: sim.Time(sim.Second), Kind: faults.Crash, Node: 2},
		faults.Fault{At: sim.Time(sim.Second), Kind: faults.DiskFail, Node: 1},
	)

	st, reg := build(t, Spec{XFS: &xcfg, GLUnix: &gcfg, Faults: &plan})
	if st.Injector == nil || st.CP != nil || registered(reg, "cp.cordons") {
		t.Fatal("a plan alone must build the injector and no control plane")
	}
	if err := st.Engine.RunUntil(sim.Time(2 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if got := st.Injector.Applied(); got != 2 {
		t.Fatalf("applied %d faults, want 2 (one per fleet)", got)
	}

	pol := controlplane.DefaultRemediationPolicy()
	st, reg = build(t, Spec{XFS: &xcfg, GLUnix: &gcfg, Remediation: &pol})
	if st.CP == nil || st.Remediator == nil || st.Injector == nil {
		t.Fatal("a policy must build injector, control plane and remediator")
	}
	if st.Remediator.Enabled() {
		t.Fatal("remediator built enabled")
	}
	if err := st.CP.InjectLine("crash 3"); err != nil {
		t.Fatal(err)
	}
	if err := st.Engine.RunUntil(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if got := st.Injector.Applied(); got != 1 {
		t.Fatalf("live fault not applied through the shared injector: %d", got)
	}
	if got := st.CP.Status().SparesLeft; got != 1 {
		t.Fatalf("control plane sees %d spares, want 1", got)
	}
	if mustCounter(t, reg, "remediate.checks") != 0 {
		t.Fatal("disabled remediator swept")
	}
}

// TestBuildRejects: a control plane needs a cluster; a served stack
// needs two workstations.
func TestBuildRejects(t *testing.T) {
	xcfg := xfs.DefaultConfig(4)
	pol := controlplane.DefaultRemediationPolicy()
	e := sim.NewEngine(1)
	defer e.Close()
	if _, err := Build(e, obs.NewRegistry(), Spec{XFS: &xcfg, Remediation: &pol}); err == nil {
		t.Fatal("control plane without a cluster accepted")
	}
	if _, err := NewServed(ServeConfig{Workstations: 1}); err == nil {
		t.Fatal("one-workstation served stack accepted")
	}
}

// TestServedDeterministic: two served stacks with the same config run
// to byte-identical metrics and traces.
func TestServedDeterministic(t *testing.T) {
	run := func() ([]byte, []byte) {
		st, err := NewServed(ServeConfig{
			Seed: 1, Workstations: 8, XFSNodes: 6, Spares: 1, Managers: 2,
			JobEvery: 20 * sim.Second, JobNodes: 3, JobWork: 30 * sim.Second,
			RemediateOn: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Engine.Close()
		if err := st.CP.InjectLine("1m crash 4 for 2m"); err != nil {
			t.Fatal(err)
		}
		if err := st.Engine.RunUntil(sim.Time(6 * sim.Minute)); err != nil {
			t.Fatal(err)
		}
		var m, s bytes.Buffer
		if err := st.Registry.WriteMetricsJSON(&m); err != nil {
			t.Fatal(err)
		}
		if err := st.Registry.WriteTraceJSON(&s); err != nil {
			t.Fatal(err)
		}
		return m.Bytes(), s.Bytes()
	}
	m1, s1 := run()
	m2, s2 := run()
	if !bytes.Equal(m1, m2) || !bytes.Equal(s1, s2) {
		t.Fatal("served stack not deterministic")
	}
	if !bytes.Contains(m1, []byte(`"remediate.cordons"`)) {
		t.Fatal("served stack missing the remediator's metrics")
	}
}

// TestMetricCatalogueDocumented: every metric a full stack registers
// has a row in docs/OBSERVABILITY.md. The catalogue writes a vector
// either as name{label} or as the bare name; both count.
func TestMetricCatalogueDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := make(map[string]bool)
	tick := regexp.MustCompile("`([^`]+)`")
	for _, line := range strings.Split(string(doc), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || cells[0] != "" {
			continue
		}
		for _, m := range tick.FindAllStringSubmatch(cells[1], -1) {
			documented[bareMetric(m[1])] = true
		}
	}

	xcfg := xfs.DefaultConfig(8)
	xcfg.SpareNodes = 2
	gcfg := glunix.DefaultConfig(8)
	plan := faults.Scripted("t",
		faults.Fault{At: sim.Time(sim.Second), Kind: faults.DiskFail, Node: 2},
		faults.Fault{At: sim.Time(2 * sim.Second), Kind: faults.Rebuild, Node: 2, Peer: -1},
	)
	pol := controlplane.DefaultRemediationPolicy()
	_, reg := build(t, Spec{GLUnix: &gcfg, XFS: &xcfg, Faults: &plan, Remediation: &pol})
	names := reg.MetricNames()
	if len(names) == 0 {
		t.Fatal("full stack registered no metrics")
	}
	for _, n := range names {
		if !documented[bareMetric(n)] {
			t.Errorf("metric %s has no row in docs/OBSERVABILITY.md", n)
		}
	}
}

// bareMetric strips a {label} suffix from a metric name.
func bareMetric(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

func mustCounter(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	v, ok := reg.CounterValue(name)
	if !ok {
		t.Fatalf("counter %s not registered", name)
	}
	return v
}
