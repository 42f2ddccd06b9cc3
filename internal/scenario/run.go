package scenario

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strings"

	"github.com/nowproject/now/internal/controlplane"
	"github.com/nowproject/now/internal/experiments"
	"github.com/nowproject/now/internal/faults"
	"github.com/nowproject/now/internal/federation"
	"github.com/nowproject/now/internal/glunix"
	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/stack"
	"github.com/nowproject/now/internal/trace"
	"github.com/nowproject/now/internal/xfs"
)

// Options are execution knobs that are not part of a scenario's
// identity: nothing here may change a deterministic output.
type Options struct {
	// Workers is the sharded-engine worker count (sharded fleets only;
	// 0 = one worker per core). Reports exclude it by construction.
	Workers int
}

// Outcome classifies one checked assertion.
type Outcome int

const (
	// Pass: the metric existed and the comparison held.
	Pass Outcome = iota + 1
	// Fail: the metric existed and the comparison did not hold.
	Fail
	// Unknown: the assertion could not be evaluated — no such metric,
	// or a quantile asked of something that is not a populated
	// histogram. Unknown is a gate failure too: a typo'd metric name
	// must not pass silently.
	Unknown
)

// String names the outcome as printed in reports.
func (o Outcome) String() string {
	switch o {
	case Pass:
		return "PASS"
	case Fail:
		return "FAIL"
	case Unknown:
		return "UNKNOWN"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Check is one evaluated assertion.
type Check struct {
	Expect  Expect
	Outcome Outcome
	// Got is the observed value (Pass/Fail only).
	Got int64
	// Detail explains an Unknown outcome.
	Detail string
}

// Result is one scenario run's outcome: every evaluated check plus the
// workload summaries the report prints. Registry holds the run's full
// metric set for export; for sharded fleets it is the merged
// per-partition view.
type Result struct {
	S *Scenario
	// Checks in report order: timed checkpoints first, then end.
	Checks              []Check
	Pass, Fail, Unknown int
	Registry            *obs.Registry

	// Classic-fleet summaries (zero when absent).
	JobsCompleted, JobsTotal int
	MeanResponse             sim.Duration
	Ops, MetaOps, DataOps    int64
	OpErrors                 int64
	FaultsApplied, FaultsTot int
	ClusterNet, XFSNet       *netsim.Stats

	// Sharded-fleet summary (nil for classic fleets). Wall-clock fields
	// are never reported.
	Sharded *experiments.ShardedTrafficResult

	// Federated summary (nil unless the fleet declares clusters).
	Federated *FedSummary
}

// FedSummary reports a federated run: per-member job tallies plus the
// WAN and spill-over totals from the merged registry.
type FedSummary struct {
	Clusters []FedClusterSummary
	Spilled  int64 // jobs shipped across the WAN (fed.spill.jobs)
	WANSent  int64 // WAN messages sent (wan.sent)
	WANDrops int64 // WAN messages lost (wan.drops)
	LeaseOps int64 // federated lease grants (fed.lease.grants)
}

// FedClusterSummary is one member cluster's share of a federated run.
type FedClusterSummary struct {
	Name          string
	JobsCompleted int64
	SpillReceived int64
}

// Ok reports whether the run is green: every assertion passed. Unknown
// counts as failure (see Outcome).
func (r *Result) Ok() bool { return r.Fail == 0 && r.Unknown == 0 }

// Run executes the scenario and evaluates its assertions. The returned
// error covers build/run problems only; assertion failures are data
// (Result.Ok), so a caller can still export metrics and print the
// report.
func Run(s *Scenario, opts Options) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Fleet.Shards != nil {
		return runSharded(s, opts)
	}
	if len(s.Fleet.Clusters) > 0 {
		return runFederated(s, opts)
	}
	return runClassic(s)
}

// runFederated executes a 'fleet cluster' scenario: build the
// federation (one partition per member), pre-schedule every script
// event on its target cluster's engine, run to the horizon, and
// evaluate the end checkpoint on the merged registry. Worker count is
// an Options knob; the report is byte-identical at any value.
func runFederated(s *Scenario, opts Options) (*Result, error) {
	members := make([]federation.ClusterConfig, len(s.Fleet.Clusters))
	index := map[string]int{}
	for i, c := range s.Fleet.Clusters {
		members[i] = federation.ClusterConfig{Name: c.Name, Workstations: c.WS, XFSNodes: c.XFS}
		index[c.Name] = i
	}
	f, err := federation.New(federation.Config{
		Clusters: members,
		WAN: federation.WANConfig{
			Latency:       s.Fleet.WAN.Latency,
			BandwidthMbps: s.Fleet.WAN.BandwidthMbps,
		},
		// The placer is always cost-aware; 'spill on'/'spill off' events
		// arm and disarm it (disarmed at t=0 unless the script says).
		Spill:   federation.SpillConfig{Policy: federation.SpillCostAware},
		Seed:    s.Seed,
		Workers: opts.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	defer f.Close()

	// Pre-schedule the script. Job IDs follow script order, like the
	// classic runner's expandJobs; every event runs on the engine of the
	// cluster it addresses, so no partition reads another's state.
	jobID := 0
	for _, ev := range s.Events {
		ev := ev
		switch ev.Kind {
		case EvJobs:
			target := index[ev.Cluster]
			grain := ev.Grain
			if grain <= 0 {
				grain = 5 * sim.Second
			}
			for i := 0; i < ev.Count; i++ {
				arrive := ev.At + sim.Time(i)*sim.Time(ev.Every)
				if arrive > sim.Time(s.Horizon) {
					break
				}
				spec := federation.JobSpec{ID: jobID, NProcs: ev.Nodes, Work: ev.Work, Grain: grain}
				jobID++
				f.Cluster(target).Engine().At(arrive, func() { f.Submit(target, spec) })
			}
		case EvSpill:
			for i := 0; i < f.Clusters(); i++ {
				i := i
				f.Cluster(i).Engine().At(ev.At, func() { f.SetSpill(i, ev.On) })
			}
		}
	}
	jobsTotal := jobID

	if err := f.Run(sim.Time(s.Horizon)); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}

	reg := f.Merged()
	res := &Result{S: s, Registry: reg, JobsTotal: jobsTotal}
	fs := &FedSummary{}
	for i, c := range s.Fleet.Clusters {
		cs := FedClusterSummary{Name: c.Name}
		if gl := f.Cluster(i).GL; gl != nil {
			cs.JobsCompleted = gl.Master.Stats().JobsCompleted
			res.JobsCompleted += int(cs.JobsCompleted)
			cs.SpillReceived, _ = f.Registry(i).CounterValue("fed.spill.received")
		}
		fs.Clusters = append(fs.Clusters, cs)
	}
	fs.Spilled, _ = reg.CounterValue("fed.spill.jobs")
	fs.WANSent, _ = reg.CounterValue("wan.sent")
	fs.WANDrops, _ = reg.CounterValue("wan.drops")
	fs.LeaseOps, _ = reg.CounterValue("fed.lease.grants")
	res.Federated = fs

	sm := newScenarioMetrics(reg)
	for range s.Events {
		sm.events.Inc()
	}
	evalEndChecks(s, reg, sm, res)
	sortChecks(res)
	return res, nil
}

// runClassic executes a ws/xfs scenario on one engine: build the stack,
// schedule the event script, schedule the checkpoints last (so
// same-instant events — faults and operator verbs included — are
// visible to them), run to the horizon, then evaluate the end
// checkpoint.
func runClassic(s *Scenario) (*Result, error) {
	e := sim.NewEngine(s.Seed)
	defer e.Close()
	reg := obs.NewRegistry()
	e.Observe(reg)
	res := &Result{S: s, Registry: reg}
	sm := newScenarioMetrics(reg)
	horizon := sim.Time(s.Horizon)

	plan, err := s.faultPlan()
	if err != nil {
		return nil, err
	}
	res.FaultsTot = len(plan.Faults)
	spec := stack.Spec{GLUnix: s.glunixConfig(), XFS: s.xfsConfig()}
	if len(plan.Faults) > 0 {
		spec.Faults = &plan
	}
	// Control verbs route through the control plane; it (and its
	// remediator) is built only when the script uses one, so
	// operator-free scenarios register no cp.* metrics.
	for _, ev := range s.Events {
		switch ev.Kind {
		case EvCordon, EvUncordon, EvDrain, EvRemediate:
			pol := controlplane.DefaultRemediationPolicy()
			spec.Remediation = &pol
		}
	}
	st, err := stack.Build(e, reg, spec)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}

	blockBytes := 0
	if spec.XFS != nil {
		blockBytes = spec.XFS.BlockBytes
	}
	mix := newOpMix(s, e, st.XFS, blockBytes, sm)
	c := st.Cluster
	for _, ev := range s.Events {
		ev := ev
		var fn func()
		switch ev.Kind {
		case EvOpMix:
			fn = func() { mix.start(ev) }
		case EvLoad:
			fn = func() { mix.setLoad(ev.Load) }
		case EvFlashCrowd:
			fn = func() { flashCrowd(c, ev) }
		case EvDiurnal:
			fn = func() {}
		case EvCordon:
			fn = func() { st.CP.Cordon(ev.Node) } //nolint:errcheck // validated against the fleet
		case EvUncordon:
			fn = func() { st.CP.Uncordon(ev.Node) } //nolint:errcheck
		case EvDrain:
			fn = func() { st.CP.DrainAsync(ev.Node) } //nolint:errcheck
		case EvRemediate:
			fn = func() { st.Remediator.SetEnabled(ev.On) }
		default:
			continue
		}
		e.At(ev.At, func() { sm.events.Inc(); fn() })
		if ev.Kind == EvDiurnal {
			scheduleDiurnal(s, e, c, ev, horizon)
		}
	}
	var mixed *glunix.MixedRun
	if c != nil {
		mixed = glunix.ScheduleMixed(c, nil, expandJobs(s, horizon))
	}
	scheduleChecks(s, e, reg, sm, res)
	if err := e.RunUntil(horizon); err != nil && !errors.Is(err, sim.ErrStopped) {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}

	if mixed != nil {
		mres := mixed.Result()
		res.JobsCompleted = mres.JobsCompleted
		res.JobsTotal = mres.JobsTotal
		res.MeanResponse = mres.MeanResponse
		ns := c.Fab.Stats()
		res.ClusterNet = &ns
	}
	if st.Injector != nil {
		res.FaultsApplied = st.Injector.Applied()
	}
	res.Ops, res.MetaOps, res.DataOps, res.OpErrors = mix.tallies()
	if st.XFS != nil {
		ns := st.XFS.Fabric().Stats()
		res.XFSNet = &ns
	}
	evalEndChecks(s, reg, sm, res)
	sortChecks(res)
	return res, nil
}

// faultPlan assembles the scenario's full fault plan: explicit fault
// events plus referenced plan files, offset to their event time.
func (s *Scenario) faultPlan() (faults.Plan, error) {
	var faultList []faults.Fault
	for _, ev := range s.Events {
		switch ev.Kind {
		case EvFault:
			faultList = append(faultList, ev.Fault)
		case EvFaultPlan:
			path := ev.Path
			if !filepath.IsAbs(path) && s.Dir != "" {
				path = filepath.Join(s.Dir, path)
			}
			p, err := faults.ParseFile(path)
			if err != nil {
				return faults.Plan{}, fmt.Errorf("scenario %s: %s: %w", s.Name, at(ev), err)
			}
			for _, f := range p.Faults {
				f.At += ev.At
				faultList = append(faultList, f)
			}
		}
	}
	return faults.Scripted(s.Name, faultList...), nil
}

// xfsConfig is the storage fleet's configuration (nil without one).
func (s *Scenario) xfsConfig() *xfs.Config {
	x := s.Fleet.XFS
	if x == nil {
		return nil
	}
	xcfg := xfs.DefaultConfig(x.Nodes)
	if x.Pipelined {
		xcfg = xfs.PipelinedConfig(x.Nodes)
	}
	xcfg.SpareNodes = x.Spares
	if x.Managers > 0 {
		xcfg.Managers = x.Managers
	}
	if x.CacheBlocks > 0 {
		xcfg.ClientCacheBlocks = x.CacheBlocks
	}
	if x.BlockBytes > 0 {
		xcfg.BlockBytes = x.BlockBytes
	}
	return &xcfg
}

// glunixConfig is the workstation fleet's configuration (nil without
// one).
func (s *Scenario) glunixConfig() *glunix.Config {
	if s.Fleet.WS == 0 {
		return nil
	}
	gcfg := glunix.DefaultConfig(s.Fleet.WS)
	gcfg.Seed = s.Seed
	switch s.Fleet.Policy {
	case "restart":
		gcfg.Policy = glunix.RestartOnReturn
	case "ignore":
		gcfg.Policy = glunix.IgnoreUser
	}
	if s.Fleet.Heartbeat > 0 {
		gcfg.HeartbeatInterval = s.Fleet.Heartbeat
	}
	switch s.Fleet.FabricName {
	case "ethernet10":
		gcfg.Fabric = netsim.Ethernet10
	case "fddi100":
		gcfg.Fabric = netsim.FDDI100
	case "myrinet":
		gcfg.Fabric = netsim.Myrinet
	}
	if topoName := s.Fleet.Topo; topoName != "" {
		// Problems() already validated the name and ruled out shared
		// presets; "crossbar" resolves to a nil Topology, leaving the
		// config bit-identical to the flat default.
		base := gcfg.Fabric
		gcfg.Fabric = func(nodes int) netsim.Config {
			c := base(nodes)
			c.Topo, _ = netsim.TopoByName(topoName, nodes)
			return c
		}
	}
	return &gcfg
}

// runSharded executes a sharded fleet through the partitioned cluster
// workload and evaluates the end checkpoint on the merged registry.
func runSharded(s *Scenario, opts Options) (*Result, error) {
	sh := s.Fleet.Shards
	tc := experiments.DefaultShardedTrafficConfig(s.Fleet.WS, opts.Workers, s.Seed)
	tc.Parts = sh.Parts
	if sh.Rounds > 0 {
		tc.Rounds = sh.Rounds
	}
	if sh.Barriers > 0 {
		tc.Barriers = sh.Barriers
	}
	tres, reg, err := experiments.ShardedTraffic(tc)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	res := &Result{S: s, Registry: reg, Sharded: &tres}
	sm := newScenarioMetrics(reg)
	evalEndChecks(s, reg, sm, res)
	sortChecks(res)
	return res, nil
}

// scenarioMetrics are the runner's own scenario.* instruments
// (docs/OBSERVABILITY.md).
type scenarioMetrics struct {
	events      *obs.Counter
	checkpoints *obs.Counter
	pass        *obs.Counter
	fail        *obs.Counter
	unknown     *obs.Counter
	loadPPM     *obs.Gauge
	reg         *obs.Registry
}

func newScenarioMetrics(r *obs.Registry) *scenarioMetrics {
	return &scenarioMetrics{
		events:      r.Counter("scenario.events"),
		checkpoints: r.Counter("scenario.checkpoints"),
		pass:        r.Counter("scenario.asserts.pass"),
		fail:        r.Counter("scenario.asserts.fail"),
		unknown:     r.Counter("scenario.asserts.unknown"),
		loadPPM:     r.Gauge("scenario.load.ppm"),
		reg:         r,
	}
}

// expandJobs turns EvJobs events into the trace the mixed harness
// submits. IDs are assigned in script order; arrivals past the horizon
// are dropped (they could never run).
func expandJobs(s *Scenario, horizon sim.Time) []trace.ParallelJob {
	var jobs []trace.ParallelJob
	id := 0
	for _, ev := range s.Events {
		if ev.Kind != EvJobs {
			continue
		}
		grain := ev.Grain
		if grain <= 0 {
			grain = 5 * sim.Second
		}
		for i := 0; i < ev.Count; i++ {
			arrive := ev.At + sim.Time(i)*sim.Time(ev.Every)
			if arrive > horizon {
				break
			}
			jobs = append(jobs, trace.ParallelJob{
				ID: id, Arrive: arrive, Nodes: ev.Nodes, Work: ev.Work, CommGrain: grain,
			})
			id++
		}
	}
	return jobs
}

// flashCrowd turns users 1..n active immediately and, for a windowed
// crowd, idle again at the window's end.
func flashCrowd(c *glunix.Cluster, ev Event) {
	n := ev.Users
	if n > len(c.Daemons)-1 {
		n = len(c.Daemons) - 1
	}
	for ws := 1; ws <= n; ws++ {
		c.Daemons[ws].SetUserActive(true)
	}
	if ev.For > 0 {
		c.Eng.At(sim.Time(ev.For)+c.Eng.Now(), func() {
			for ws := 1; ws <= n; ws++ {
				c.Daemons[ws].SetUserActive(false)
			}
		})
	}
}

// scheduleDiurnal generates the interactive-activity trace and feeds it
// to the daemons, offset to the event's start time.
func scheduleDiurnal(s *Scenario, e *sim.Engine, c *glunix.Cluster, ev Event, horizon sim.Time) {
	days := ev.Days
	if days <= 0 {
		days = int((horizon-ev.At)/sim.Time(24*sim.Hour)) + 1
	}
	acfg := trace.DefaultActivityConfig(s.Fleet.WS, days)
	acfg.Seed = s.Seed
	tr := trace.GenerateActivity(acfg)
	for _, aev := range tr.Events {
		aev := aev
		t := ev.At + aev.T
		if t > horizon || aev.WS+1 >= len(c.Daemons) {
			continue
		}
		e.At(t, func() { c.Daemons[aev.WS+1].SetUserActive(aev.Active) })
	}
}

// scheduleChecks registers the timed checkpoints. Called after every
// event is scheduled, so a checkpoint sees the effects of same-instant
// events (engine events at one instant run in registration order).
func scheduleChecks(s *Scenario, e *sim.Engine, reg *obs.Registry, sm *scenarioMetrics, res *Result) {
	byTime := map[sim.Time][]Expect{}
	var times []sim.Time
	for _, ex := range s.Expects {
		if ex.AtEnd {
			continue
		}
		if _, seen := byTime[ex.At]; !seen {
			times = append(times, ex.At)
		}
		byTime[ex.At] = append(byTime[ex.At], ex)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	for _, t := range times {
		t := t
		e.At(t, func() {
			sm.checkpoints.Inc()
			sp := reg.StartSpan("scenario.checkpoint", -1)
			snap := snapshotMap(reg)
			spans := reg.Spans()
			for _, ex := range byTime[t] {
				record(res, sm, evalExpect(snap, spans, ex))
			}
			reg.EndSpan(sp)
		})
	}
}

// evalEndChecks evaluates the "at end" checkpoint on the final
// registry state.
func evalEndChecks(s *Scenario, reg *obs.Registry, sm *scenarioMetrics, res *Result) {
	var end []Expect
	for _, ex := range s.Expects {
		if ex.AtEnd {
			end = append(end, ex)
		}
	}
	if len(end) == 0 {
		return
	}
	sm.checkpoints.Inc()
	snap := snapshotMap(reg)
	spans := reg.Spans()
	for _, ex := range end {
		record(res, sm, evalExpect(snap, spans, ex))
	}
}

// record files one check under the result and the assert counters.
func record(res *Result, sm *scenarioMetrics, c Check) {
	res.Checks = append(res.Checks, c)
	switch c.Outcome {
	case Pass:
		res.Pass++
		sm.pass.Inc()
	case Fail:
		res.Fail++
		sm.fail.Inc()
	case Unknown:
		res.Unknown++
		sm.unknown.Inc()
	}
}

// snapshotMap indexes a registry snapshot by metric name.
func snapshotMap(reg *obs.Registry) map[string]obs.Metric {
	snap := reg.Snapshot()
	m := make(map[string]obs.Metric, len(snap))
	for _, mt := range snap {
		m[mt.Name] = mt
	}
	return m
}

// evalExpect evaluates one assertion against a snapshot (and, for the
// span form, the span trace as of the checkpoint). A quantile of a
// metric that is not a populated histogram, or any assertion on a
// metric the run never registered, is Unknown.
func evalExpect(snap map[string]obs.Metric, spans []obs.Span, ex Expect) Check {
	if ex.Span {
		return evalSpanExpect(spans, ex)
	}
	c := Check{Expect: ex}
	m, ok := snap[ex.Metric]
	if !ok {
		c.Outcome, c.Detail = Unknown, "no such metric"
		return c
	}
	got := m.Value
	if ex.Quantile > 0 {
		q, ok := m.Quantile(ex.Quantile)
		if !ok {
			c.Outcome = Unknown
			if m.Type != "histogram" {
				c.Detail = fmt.Sprintf("p%s of a %s", formatFrac(ex.Quantile), m.Type)
			} else {
				c.Detail = "histogram has no observations"
			}
			return c
		}
		got = q
	}
	c.Got = got
	if ex.Op.Eval(got, ex.Value) {
		c.Outcome = Pass
	} else {
		c.Outcome = Fail
	}
	return c
}

// evalSpanExpect evaluates one span-trace assertion. The count form is
// always evaluable — a span that never started is a genuine count of
// zero, so `expect span x count == 0` passes on a quiet run. The
// quantile form ranks the closed spans' durations (ceil-rank, like the
// histogram quantiles); no closed spans means Unknown, the same way an
// empty histogram does.
func evalSpanExpect(spans []obs.Span, ex Expect) Check {
	c := Check{Expect: ex}
	var count int64
	var durs []int64
	for _, sp := range spans {
		if sp.Name != ex.Metric {
			continue
		}
		count++
		if sp.End > 0 {
			durs = append(durs, int64(sp.End-sp.Start))
		}
	}
	if ex.Quantile == 0 {
		c.Got = count
		if ex.Op.Eval(count, ex.Value) {
			c.Outcome = Pass
		} else {
			c.Outcome = Fail
		}
		return c
	}
	if len(durs) == 0 {
		c.Outcome = Unknown
		if count == 0 {
			c.Detail = "no spans with this name"
		} else {
			c.Detail = "no closed spans"
		}
		return c
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	rank := int(math.Ceil(ex.Quantile / 100 * float64(len(durs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(durs) {
		rank = len(durs)
	}
	c.Got = durs[rank-1]
	if ex.Op.Eval(c.Got, ex.Value) {
		c.Outcome = Pass
	} else {
		c.Outcome = Fail
	}
	return c
}

// sortChecks puts the result's checks in report order: timed
// checkpoints by time, then end, matching Scenario normalization.
func sortChecks(res *Result) {
	sort.SliceStable(res.Checks, func(i, j int) bool {
		a, b := res.Checks[i].Expect, res.Checks[j].Expect
		if a.AtEnd != b.AtEnd {
			return !a.AtEnd
		}
		return a.At < b.At
	})
}

// Report renders the run for humans and for the golden gate: every
// line is a pure function of the scenario, so the bytes are identical
// run to run and (sharded) across worker counts. No wall-clock figure
// appears anywhere.
func (r *Result) Report() string {
	var b strings.Builder
	s := r.S
	fmt.Fprintf(&b, "scenario %s (seed %d", s.Name, s.Seed)
	if s.Horizon > 0 {
		fmt.Fprintf(&b, ", horizon %s", s.Horizon)
	}
	b.WriteString(")\n")
	if s.Fleet.WS > 0 && s.Fleet.Shards == nil {
		policy := s.Fleet.Policy
		if policy == "" {
			policy = "migrate"
		}
		fabric := s.Fleet.FabricName
		if fabric == "" {
			fabric = "atm155"
		}
		fmt.Fprintf(&b, "fleet: %d workstations, policy %s, fabric %s\n", s.Fleet.WS, policy, fabric)
	}
	if x := s.Fleet.XFS; x != nil {
		fmt.Fprintf(&b, "fleet: xfs %d nodes (%d spares, %d managers)", x.Nodes, x.Spares, x.Managers)
		if x.Pipelined {
			b.WriteString(", pipelined")
		}
		b.WriteByte('\n')
	}
	if sh := s.Fleet.Shards; sh != nil {
		fmt.Fprintf(&b, "fleet: %d nodes sharded into %d partitions\n", s.Fleet.WS, sh.Parts)
	}
	if fs := r.Federated; fs != nil {
		w := s.Fleet.WAN
		fmt.Fprintf(&b, "fleet: federation of %d clusters, wan lat %s bw %s Mb/s\n",
			len(fs.Clusters), w.Latency, formatFrac(w.BandwidthMbps))
		for i, cs := range fs.Clusters {
			cf := s.Fleet.Clusters[i]
			fmt.Fprintf(&b, "  cluster %s:", cs.Name)
			if cf.WS > 0 {
				fmt.Fprintf(&b, " %d ws,", cf.WS)
			}
			if cf.XFS > 0 {
				fmt.Fprintf(&b, " %d xfs,", cf.XFS)
			}
			fmt.Fprintf(&b, " jobs %d (%d spilled in)\n", cs.JobsCompleted, cs.SpillReceived)
		}
	}
	if len(s.Events) > 0 {
		fmt.Fprintf(&b, "events: %d scheduled\n", len(s.Events))
	}
	if r.FaultsTot > 0 {
		fmt.Fprintf(&b, "faults: %d/%d applied\n", r.FaultsApplied, r.FaultsTot)
	}
	if r.JobsTotal > 0 && r.Federated == nil {
		fmt.Fprintf(&b, "jobs: %d/%d completed, mean response %s\n",
			r.JobsCompleted, r.JobsTotal, r.MeanResponse)
	} else if r.JobsTotal > 0 {
		fmt.Fprintf(&b, "jobs: %d/%d completed\n", r.JobsCompleted, r.JobsTotal)
	}
	if r.Ops > 0 {
		fmt.Fprintf(&b, "opmix: %d ops (%d metadata, %d data, %d errors)\n",
			r.Ops, r.MetaOps, r.DataOps, r.OpErrors)
	}
	netLine := func(label string, st *netsim.Stats) {
		fmt.Fprintf(&b, "net %s: offered %d, delivered %d, drops %d (%d injected)\n",
			label, st.Offered, st.Delivered, st.Drops, st.InjectedDrops)
	}
	if r.ClusterNet != nil && r.XFSNet != nil {
		netLine("cluster", r.ClusterNet)
		netLine("xfs", r.XFSNet)
	} else if r.ClusterNet != nil {
		netLine("cluster", r.ClusterNet)
	} else if r.XFSNet != nil {
		netLine("xfs", r.XFSNet)
	}
	if sh := r.Sharded; sh != nil {
		fmt.Fprintf(&b, "sharded: makespan %.1fus, barrier %.1fus, %d events, %d cross packets, %d overflows, %d drops\n",
			sh.MakespanUs, sh.BarrierUs, sh.Events, sh.CrossSent, sh.Overflows, sh.Drops)
	}
	if fs := r.Federated; fs != nil {
		fmt.Fprintf(&b, "federation: %d jobs spilled, %d lease grants, wan sent %d, drops %d\n",
			fs.Spilled, fs.LeaseOps, fs.WANSent, fs.WANDrops)
	}
	if len(r.Checks) > 0 {
		b.WriteString("checks:\n")
		for _, c := range r.Checks {
			fmt.Fprintf(&b, "  %-7s %s", c.Outcome, c.Expect.String())
			switch c.Outcome {
			case Unknown:
				fmt.Fprintf(&b, " [%s]", c.Detail)
			default:
				fmt.Fprintf(&b, " [got %s]", formatGot(c))
			}
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "asserts: %d passed, %d failed, %d unknown\n", r.Pass, r.Fail, r.Unknown)
	if r.Ok() {
		b.WriteString("result: PASS\n")
	} else {
		b.WriteString("result: FAIL\n")
	}
	return b.String()
}

// formatGot prints an observed value in the expectation's unit.
func formatGot(c Check) string {
	if c.Got == math.MaxInt64 {
		return "+Inf"
	}
	if c.Expect.IsDur {
		return sim.Duration(c.Got).String()
	}
	return fmt.Sprint(c.Got)
}
