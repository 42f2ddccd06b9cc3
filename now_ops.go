// Operating the cluster: the GLUnix global layer, fault injection,
// declarative scenarios, observability, the control plane, and the
// paper's workload studies (traces, multigrid, GATOR).
package now

import (
	"github.com/nowproject/now/internal/controlplane"
	"github.com/nowproject/now/internal/faults"
	"github.com/nowproject/now/internal/gator"
	"github.com/nowproject/now/internal/glunix"
	"github.com/nowproject/now/internal/netram"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/scenario"
	"github.com/nowproject/now/internal/stack"
	"github.com/nowproject/now/internal/trace"
)

// ---- the global layer ----

// GLUnix aliases.
type (
	GLUnixConfig  = glunix.Config
	GLUnix        = glunix.Cluster
	Job           = glunix.Job
	RecruitPolicy = glunix.RecruitPolicy
	Coscheduler   = glunix.Coscheduler
)

// Recruit policies.
const (
	MigrateOnReturn = glunix.MigrateOnReturn
	RestartOnReturn = glunix.RestartOnReturn
	IgnoreUser      = glunix.IgnoreUser
)

// DefaultGLUnixConfig sizes a building-scale installation.
var DefaultGLUnixConfig = glunix.DefaultConfig

// NewGLUnix builds the global layer over a fresh cluster of
// workstations.
func NewGLUnix(e *Engine, cfg GLUnixConfig) (*GLUnix, error) { return glunix.New(e, cfg) }

// NewJob describes a gang-scheduled parallel program.
var NewJob = glunix.NewJob

// ---- fault injection ----

// Fault aliases: a FaultPlan schedules Faults, a FaultInjector applies
// them to a FaultTarget (adapters onto live subsystems).
type (
	Fault              = faults.Fault
	FaultKind          = faults.Kind
	FaultPlan          = faults.Plan
	FaultInjector      = faults.Injector
	FaultTarget        = faults.Target
	BaseFaultTarget    = faults.BaseTarget
	ClusterFaultTarget = faults.ClusterTarget
	XFSFaultTarget     = faults.XFSTarget
)

// Fault kinds.
const (
	FaultCrash     = faults.Crash
	FaultRecover   = faults.Recover
	FaultPartition = faults.Partition
	FaultHeal      = faults.Heal
	FaultLink      = faults.Link
	FaultLinkClear = faults.LinkClear
	FaultDiskFail  = faults.DiskFail
	FaultRebuild   = faults.Rebuild
	FaultMgrKill   = faults.MgrKill
)

// Fault-injection constructors. ScriptedFaultPlan builds a plan in
// code; ParseFaultPlan reads the plan syntax of docs/FAULTS.md from a
// reader; ParseFaultSpec resolves a CLI spec ("seed:<n>[,k=v...]" or a
// plan-file path).
var (
	NewInjector         = faults.NewInjector
	ScriptedFaultPlan   = faults.Scripted
	ParseFaultPlan      = faults.Parse
	ParseFaultSpec      = faults.ParseSpec
	GenerateFaultPlan   = faults.Generate
	NewXFSFaultTarget   = faults.NewXFSTarget
	CombineFaultTargets = faults.Combine
)

// ---- declarative scenarios ----

// Scenario aliases: a Scenario is one parsed .scn file (fleet + event
// script + assertions — docs/SCENARIOS.md); ScenarioResult is one run's
// checks, summaries and metrics registry; ScenarioOptions holds
// execution-only knobs (never part of a deterministic output).
type (
	Scenario        = scenario.Scenario
	ScenarioResult  = scenario.Result
	ScenarioCheck   = scenario.Check
	ScenarioOptions = scenario.Options
	ScenarioProblem = scenario.Problem
)

// Scenario constructors. ParseScenario reads the DSL from a reader;
// ParseScenarioFile also anchors fault-plan references to the file's
// directory; ParseScenarioFileAll collects EVERY parse/validation
// problem instead of stopping at the first (the `nowsim check` form);
// RunScenario executes one and evaluates its assertions (assertion
// failures are data — ScenarioResult.Ok — not errors).
var (
	ParseScenario        = scenario.Parse
	ParseScenarioFile    = scenario.ParseFile
	ParseScenarioFileAll = scenario.ParseFileAll
	RunScenario          = scenario.Run
)

// ---- observability ----

// MetricsRegistry collects counters, gauges, and spans from
// instrumented subsystems; Metric is one exported sample.
type (
	MetricsRegistry = obs.Registry
	Metric          = obs.Metric
)

// NewRegistry creates an empty metrics registry; attach it to an
// engine with Engine.Observe and to subsystems with InstrumentAll.
var NewRegistry = obs.NewRegistry

// Instrumentable is anything that can mirror its internals into a
// metrics registry. Every NOW subsystem satisfies it: the Engine,
// Fabric, GLUnix, Coscheduler, NetRAMPager, CoopCache, RAIDArray, XFS,
// and Comm all carry an Instrument method.
type Instrumentable interface {
	Instrument(r *MetricsRegistry)
}

// InstrumentAll attaches every subsystem to one registry — the
// one-call way to wire a whole assembled system for metrics export.
// Nil subsystems are skipped, so optional pieces compose freely.
func InstrumentAll(r *MetricsRegistry, subsystems ...Instrumentable) {
	for _, s := range subsystems {
		if s != nil {
			s.Instrument(r)
		}
	}
}

// ---- traces and mixed workloads ----

// Trace aliases: recorded user activity and parallel-job logs drive
// the mixed-workload studies.
type (
	ActivityTrace = trace.ActivityTrace
	ParallelJob   = trace.ParallelJob
)

// GLUnixMixedResult reports a mixed interactive-plus-parallel run.
type GLUnixMixedResult = glunix.MixedResult

// RunGLUnixMixed overlays a parallel-job log on a cluster receiving an
// interactive activity trace. The wire hook (when non-nil) runs on the
// built cluster before the simulation starts — the place to attach a
// fault injector or extra workloads.
var RunGLUnixMixed = glunix.RunMixedWith

// ---- control plane (operate the cluster) ----

// Control-plane aliases: a ControlPlane is the in-process operator API
// over a live cluster (census, cordon/uncordon, drain, live fault
// injection, metric/span streaming); a Remediator closes the
// self-healing loop; a ControlPlaneServer maps virtual time onto the
// wall clock and serves the HTTP/JSON operator API; a
// ControlPlaneClient is its typed client (what nowctl speaks); a
// ControlPlaneStack is a servable NOW, built by the same stack builder
// the scenario runner uses. See docs/CONTROLPLANE.md.
type (
	ControlPlane             = controlplane.ControlPlane
	ControlPlaneConfig       = controlplane.Config
	ControlPlaneServer       = controlplane.Server
	ControlPlaneServerConfig = controlplane.ServerConfig
	ControlPlaneClient       = controlplane.Client
	ControlPlaneStack        = stack.Stack
	ControlPlaneStackConfig  = stack.ServeConfig
	Remediator               = controlplane.Remediator
	RemediationPolicy        = controlplane.RemediationPolicy
	WorkstationStatus        = controlplane.NodeStatus
	StoreStatus              = controlplane.StoreStatus
	NOWClusterStatus         = controlplane.ClusterStatus
)

// Control-plane constructors.
var (
	NewControlPlane          = controlplane.New
	NewControlPlaneServer    = controlplane.NewServer
	NewControlPlaneStack     = stack.NewServed
	NewRemediator            = controlplane.NewRemediator
	DefaultRemediationPolicy = controlplane.DefaultRemediationPolicy
)

// ---- network RAM multigrid workload ----

// Multigrid aliases: the paper's out-of-core scientific workload
// paging to remote memory.
type (
	MultigridConfig = netram.MultigridConfig
	MultigridResult = netram.MultigridResult
)

// Multigrid constructors.
var (
	DefaultMultigridConfig = netram.DefaultMultigridConfig
	RunMultigrid           = netram.RunMultigrid
)

// ---- GATOR (global-atmosphere model) ----

// GATOR aliases: the paper's end-to-end application study.
type (
	GatorMiniConfig = gator.MiniConfig
	GatorMiniResult = gator.MiniResult
	GatorPhaseTimes = gator.PhaseTimes
)

// GATOR constructors and the paper's Table 4 reference times.
var (
	DefaultGatorMiniConfig = gator.DefaultMiniConfig
	RunGatorMini           = gator.RunMini
	GatorTable4            = gator.Table4
)
