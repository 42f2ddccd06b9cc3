package experiments

import (
	"errors"
	"fmt"

	"github.com/nowproject/now/internal/controlplane"
	"github.com/nowproject/now/internal/faults"
	"github.com/nowproject/now/internal/glunix"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/stack"
	"github.com/nowproject/now/internal/stats"
	"github.com/nowproject/now/internal/trace"
	"github.com/nowproject/now/internal/xfs"
)

// FaultStudyConfig shapes the AV1 availability study.
type FaultStudyConfig struct {
	// Workstations in the GLUnix cluster (the mixed workload side).
	Workstations int
	// XFSNodes and XFSSpares shape the storage side: XFSNodes total,
	// of which the last XFSSpares are hot spares outside the stripe.
	XFSNodes  int
	XFSSpares int
	// Horizon is the faulted portion of the run; the simulation gets
	// extra slack after it so restarted jobs can finish.
	Horizon sim.Duration
	// ReadStreams is how many parallel clients keep the stores busy.
	// It must be enough to make the array throughput-bound, or the
	// degraded window shows no penalty (see runAV). Zero means 4.
	ReadStreams int
	// Seed drives the engine, the traces and the fault plan.
	Seed int64
}

// DefaultFaultStudyConfig returns the AV1 scale: a small NOW where a
// single crash is a visible fraction of capacity.
func DefaultFaultStudyConfig() FaultStudyConfig {
	return FaultStudyConfig{
		Workstations: 16,
		XFSNodes:     10,
		XFSSpares:    2,
		Horizon:      sim.Hour,
		ReadStreams:  4,
		Seed:         1,
	}
}

// FaultStudyRow is one AV1 scenario measurement.
type FaultStudyRow struct {
	Scenario      string
	JobsCompleted int
	JobsTotal     int
	MeanResponse  sim.Duration
	UserDelayP95  float64 // seconds
	HealthyMBps   float64 // xFS read bandwidth, all stores up
	DegradedMBps  float64 // between disk failure and rebuild
	RebuiltMBps   float64 // after rebuild onto the spare
	FaultsApplied int
	Rejoins       int64
	Failovers     int64
	DegradedReads int64
}

// faultStudyPlan is the scripted AV1 fault schedule, exercising every
// class the injector knows: a partition window, a workstation crash
// with recovery and census rejoin, a storage-node failure with a later
// rebuild onto a hot spare, and an xFS manager kill forcing failover.
// Workstation ids address the GLUnix fabric; storage and manager ids
// address the xFS installation (see docs/FAULTS.md on routing).
func faultStudyPlan() faults.Plan {
	return faults.Scripted("av1",
		faults.Fault{At: 600 * sim.Second, Kind: faults.Partition, Set: []int{3, 4}, For: 120 * sim.Second},
		faults.Fault{At: 1200 * sim.Second, Kind: faults.Crash, Node: 5, For: 300 * sim.Second},
		faults.Fault{At: 1500 * sim.Second, Kind: faults.DiskFail, Node: 2},
		faults.Fault{At: 2100 * sim.Second, Kind: faults.Rebuild, Node: 2, Peer: -1},
		faults.Fault{At: 2700 * sim.Second, Kind: faults.MgrKill, Node: 0},
	)
}

// FaultStudy runs the availability study: the same mixed workload
// (interactive users + parallel jobs under GLUnix, an xFS read stream
// on the side) with and without the fault plan, and reports what the
// faults cost — jobs still complete (restarting from checkpoints),
// reads continue degraded through parity, and the interactive users'
// delays stay modest. This is the paper's availability argument run
// end-to-end: "if one workstation in the NOW crashes, any other can
// take its place".
func FaultStudy(cfg FaultStudyConfig) (Report, []FaultStudyRow, error) {
	rows := make([]FaultStudyRow, 0, 2)
	reg := map[string]*obs.Registry{}
	for _, sc := range []struct {
		name string
		plan *faults.Plan
	}{
		{"baseline", nil},
		{"faulted", planPtr(faultStudyPlan())},
	} {
		arm, err := runAV(cfg, sc.plan, nil)
		if err != nil {
			return Report{}, nil, fmt.Errorf("fault study %s: %w", sc.name, err)
		}
		rows = append(rows, arm.faultStudyRow(sc.name))
		for k, r := range arm.regs {
			reg[sc.name+"/"+k] = r
		}
	}

	tbl := stats.NewTable("AV1 — availability under an injected fault plan",
		"Scenario", "Jobs done", "Mean response", "User p95 (s)",
		"xFS healthy (MB/s)", "degraded (MB/s)", "rebuilt (MB/s)", "Faults")
	for _, r := range rows {
		tbl.AddRow(r.Scenario,
			fmt.Sprintf("%d/%d", r.JobsCompleted, r.JobsTotal),
			r.MeanResponse.String(),
			fmt.Sprintf("%.2f", r.UserDelayP95),
			stats.FormatFloat(r.HealthyMBps),
			stats.FormatFloat(r.DegradedMBps),
			stats.FormatFloat(r.RebuiltMBps),
			fmt.Sprintf("%d", r.FaultsApplied))
	}
	return Report{
		ID:    "AV1",
		Title: "Jobs, storage and users ride through injected faults",
		Table: tbl,
		Notes: "scripted plan: partition 120s, ws crash+rejoin, disk fail → spare rebuild, xFS manager kill",
		Obs:   reg,
	}, rows, nil
}

func planPtr(p faults.Plan) *faults.Plan { return &p }

// avArm is one run of the AV workload, measured.
type avArm struct {
	mixed glunix.MixedResult
	st    *stack.Stack
	// buckets holds the xFS read stream's delivered bytes per minute.
	buckets []int64
	regs    map[string]*obs.Registry
}

// avBucket is the width of the read stream's bandwidth buckets.
const avBucket = 60 * sim.Second

// runAV executes one arm of the AV studies on a single engine: the
// GLUnix mixed workload and an xFS read stream share virtual time. A
// non-nil plan drives both through one injector over the combined
// target; a non-nil remediate adds the control plane and its
// remediator, armed or not. Storage metrics go to their own registry.
func runAV(cfg FaultStudyConfig, plan *faults.Plan, remediate *bool) (avArm, error) {
	e := sim.NewEngine(cfg.Seed)
	defer e.Close()
	regCluster := obs.NewRegistry()
	e.Observe(regCluster)
	regXFS := obs.NewRegistry()
	regXFS.SetClock(func() obs.Time { return int64(e.Now()) })

	// Storage side: an xFS installation with hot spares on its own
	// fabric (storage ids in the plan address this system).
	xcfg := xfs.DefaultConfig(cfg.XFSNodes)
	xcfg.SpareNodes = cfg.XFSSpares
	xcfg.Managers = 2
	xcfg.ClientCacheBlocks = 16 // small cache: reads exercise the RAID
	gcfg := glunix.DefaultConfig(cfg.Workstations)
	gcfg.Seed = cfg.Seed
	spec := stack.Spec{GLUnix: &gcfg, XFS: &xcfg, Faults: plan, StorageRegistry: regXFS}
	if remediate != nil {
		pol := controlplane.DefaultRemediationPolicy()
		spec.Remediation = &pol
	}
	st, err := stack.Build(e, regCluster, spec)
	if err != nil {
		return avArm{}, err
	}
	if remediate != nil {
		st.Remediator.SetEnabled(*remediate)
	}
	arm := avArm{st: st, regs: map[string]*obs.Registry{"cluster": regCluster, "xfs": regXFS}}

	// The read load: each client cycles through its own file, larger
	// than the client cache so steady-state reads hit storage. Several
	// parallel streams keep the stores throughput-bound — a single
	// latency-bound stream would actually speed up degraded (parallel
	// reconstruct overlaps the survivors), hiding the cost the studies
	// are after. Completions are bucketed by minute for the phase
	// numbers.
	const fileBlocks = 128
	readStreams := cfg.ReadStreams
	if readStreams <= 0 {
		readStreams = 4
	}
	arm.buckets = make([]int64, int(cfg.Horizon/avBucket)+1)
	for r := 0; r < readStreams; r++ {
		client := st.XFS.Client(3 + r)
		file := xfs.FileID(1 + r)
		e.Spawn(fmt.Sprintf("av/xfsload%d", r), func(p *sim.Proc) {
			buf := make([]byte, xcfg.BlockBytes)
			for blk := uint32(0); blk < fileBlocks; blk++ {
				if err := client.Write(p, file, blk, buf); err != nil {
					p.Fail(err)
				}
			}
			if err := client.Sync(p); err != nil {
				p.Fail(err)
			}
			for blk := uint32(0); ; blk = (blk + 1) % fileBlocks {
				if p.Now() >= sim.Time(cfg.Horizon) {
					return
				}
				data, err := client.Read(p, file, blk)
				if err != nil {
					// Reads during the degraded window may race the crash
					// itself; skip rather than abort the stream.
					continue
				}
				if b := int(p.Now() / avBucket); b < len(arm.buckets) {
					arm.buckets[b] += int64(len(data))
				}
			}
		})
	}

	// Cluster side: interactive users plus the parallel job log.
	acfg := trace.DefaultActivityConfig(cfg.Workstations, 1)
	acfg.Seed = cfg.Seed
	jcfg := trace.DefaultJobTraceConfig(cfg.Horizon)
	jcfg.Seed = cfg.Seed
	jcfg.MachineNodes = cfg.Workstations / 2 // every job fits the NOW
	jcfg.MeanInterarrival = 10 * sim.Minute
	jcfg.MeanDevWork = 3 * sim.Minute
	jcfg.MeanProdWork = 10 * sim.Minute
	jobs := trace.GenerateJobs(jcfg)
	for i := range jobs {
		if jobs[i].CommGrain < 5*sim.Second {
			jobs[i].CommGrain = 5 * sim.Second
		}
	}
	mixed := glunix.ScheduleMixed(st.Cluster, trace.GenerateActivity(acfg), jobs)
	// Slack after the horizon lets restarted jobs finish.
	if err := e.RunUntil(sim.Time(cfg.Horizon + 2*sim.Hour)); err != nil && !errors.Is(err, sim.ErrStopped) {
		return avArm{}, err
	}
	arm.mixed = mixed.Result()
	return arm, nil
}

// faultStudyRow reads one AV1 scenario's row off its run.
func (arm avArm) faultStudyRow(name string) FaultStudyRow {
	res := arm.mixed
	row := FaultStudyRow{
		Scenario:      name,
		JobsCompleted: res.JobsCompleted,
		JobsTotal:     res.JobsTotal,
		MeanResponse:  res.MeanResponse,
		Rejoins:       res.Master.Rejoins,
		Failovers:     arm.st.XFS.Stats().Failovers,
	}
	_, _, row.DegradedReads = arm.st.XFS.Client(3).Array().Stats()
	if res.Master.UserDelays.N() > 0 {
		row.UserDelayP95 = res.Master.UserDelays.Percentile(95)
	}
	if arm.st.Injector != nil {
		row.FaultsApplied = arm.st.Injector.Applied()
	}

	// Phase bandwidths from the minute buckets, avoiding the buckets
	// that contain a transition. Phases follow faultStudyPlan times;
	// the baseline reports the same windows for comparability.
	window := func(from, to sim.Time) float64 {
		lo, hi := int(from/avBucket)+1, int(to/avBucket)
		if hi > len(arm.buckets) {
			hi = len(arm.buckets)
		}
		var sum int64
		n := 0
		for i := lo; i < hi; i++ {
			sum += arm.buckets[i]
			n++
		}
		if n == 0 {
			return 0
		}
		return float64(sum) / float64(sim.Duration(n)*avBucket/sim.Second) / 1e6
	}
	row.HealthyMBps = window(0, 1500*sim.Second)
	row.DegradedMBps = window(1500*sim.Second, 2100*sim.Second)
	// The rebuilt window ends before the manager kill at 2700s, so it
	// shows the pure post-rebuild recovery.
	row.RebuiltMBps = window(2400*sim.Second, 2700*sim.Second)
	return row
}
