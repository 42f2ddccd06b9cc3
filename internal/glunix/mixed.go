package glunix

import (
	"errors"
	"fmt"

	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/stats"
	"github.com/nowproject/now/internal/trace"
)

// MixedResult reports a mixed-workload run (Figure 3): a parallel job
// log overlaid on workstations serving interactive users.
type MixedResult struct {
	Workstations  int
	JobsCompleted int
	JobsTotal     int
	// MeanResponse across completed jobs.
	MeanResponse sim.Duration
	// Responses per completed job id.
	Responses map[int]sim.Duration
	Master    MasterStats
}

// RunMixed overlays the parallel job log on a GLUnix cluster whose
// workstations receive the interactive activity trace, simulating until
// horizon (which must cover the trace). Jobs larger than the cluster are
// skipped (counted in JobsTotal but never completed).
func RunMixed(e *sim.Engine, cfg Config, activity *trace.ActivityTrace,
	jobs []trace.ParallelJob, horizon sim.Time) (MixedResult, error) {
	return RunMixedWith(e, cfg, activity, jobs, horizon, nil)
}

// RunMixedWith is RunMixed with a wiring hook: wire (when non-nil) runs
// after the cluster is built but before the simulation starts, so a
// caller can attach extra machinery — a fault injector, additional
// workloads on the same engine — to the live cluster.
func RunMixedWith(e *sim.Engine, cfg Config, activity *trace.ActivityTrace,
	jobs []trace.ParallelJob, horizon sim.Time, wire func(*Cluster)) (MixedResult, error) {

	c, err := New(e, cfg)
	if err != nil {
		return MixedResult{}, err
	}
	if wire != nil {
		wire(c)
	}
	m := ScheduleMixed(c, activity, jobs)
	if err := e.RunUntil(horizon); err != nil && !errors.Is(err, sim.ErrStopped) {
		return MixedResult{}, fmt.Errorf("glunix: mixed run: %w", err)
	}
	return m.Result(), nil
}

// MixedRun is a mixed workload scheduled on an already-built cluster.
type MixedRun struct {
	c         *Cluster
	submitted []*Job
}

// ScheduleMixed feeds the interactive activity trace (may be nil) to
// c's daemons and schedules the job log's arrivals, without running
// the engine. Jobs larger than the cluster are skipped. Read the
// outcome with Result once the caller has run the engine.
func ScheduleMixed(c *Cluster, activity *trace.ActivityTrace, jobs []trace.ParallelJob) *MixedRun {
	e := c.Eng
	if activity != nil {
		for _, ev := range activity.Events {
			ev := ev
			if ev.WS+1 >= len(c.Daemons) {
				continue // trace wider than cluster
			}
			e.At(ev.T, func() { c.Daemons[ev.WS+1].SetUserActive(ev.Active) })
		}
	}
	m := &MixedRun{c: c, submitted: make([]*Job, 0, len(jobs))}
	for _, tj := range jobs {
		if tj.Nodes > c.Cfg.Workstations {
			continue
		}
		j := NewJob(tj.ID, tj.Nodes, tj.Work, tj.CommGrain)
		m.submitted = append(m.submitted, j)
		e.At(tj.Arrive, func() { c.Master.Submit(j) })
	}
	return m
}

// Result summarizes the run so far: completions, response times and
// the master's statistics.
func (m *MixedRun) Result() MixedResult {
	res := MixedResult{
		Workstations: m.c.Cfg.Workstations,
		JobsTotal:    len(m.submitted),
		Responses:    make(map[int]sim.Duration),
		Master:       m.c.Master.Stats(),
	}
	var sum stats.Summary
	for _, j := range m.submitted {
		if j.Done() {
			res.JobsCompleted++
			res.Responses[j.ID] = j.Response()
			sum.Add(j.Response().Seconds())
		}
	}
	if res.JobsCompleted > 0 {
		res.MeanResponse = sim.Duration(sum.Mean() * float64(sim.Second))
	}
	return res
}

// Slowdown compares a NOW run against a dedicated-machine baseline: the
// mean, over jobs completed in both runs, of response(now)/response
// (dedicated) — Figure 3's y-axis.
func Slowdown(now, dedicated MixedResult) float64 {
	var s stats.Summary
	for id, rNow := range now.Responses {
		if rDed, ok := dedicated.Responses[id]; ok && rDed > 0 {
			s.Add(float64(rNow) / float64(rDed))
		}
	}
	return s.Mean()
}
