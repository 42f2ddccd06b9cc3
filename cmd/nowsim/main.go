// Command nowsim builds a NOW from flags and runs a mixed workload on
// it: interactive users (from the diurnal activity model) plus a
// parallel job log (from the LANL-style generator), under the GLUnix
// global layer. It reports job responses, migrations, evictions and
// user delays — a scriptable version of the paper's Figure 3 scenario.
//
// Usage:
//
//	nowsim -ws 64 -hours 12 -policy migrate
//	nowsim -ws 32 -hours 6 -policy restart -seed 7
//	nowsim -ws 64 -hours 12 -metrics run.json -trace spans.json
//	nowsim -ws 32 -hours 6 -faults seed:7 -metrics faulted.json
//	nowsim -ws 32 -hours 6 -faults plan.txt
//
// The -metrics, -metrics-csv and -trace flags attach the observability
// layer and export it after the run. All values are
// keyed to virtual time, so two runs with the same flags produce
// byte-identical files.
//
// The -faults flag injects a fault plan into the
// run: workstation crashes with later recovery and census rejoin,
// fabric partitions, degraded-link windows. A plan is a file (see
// docs/FAULTS.md for the grammar) or "seed:<n>[,key=val...]" for a
// generated plan; either way the plan is deterministic, so faulted
// runs replay exactly.
//
// The -shards flag switches to the sharded multicore engine (DESIGN.md
// §10) and runs the partitioned cluster workload with that many worker
// goroutines:
//
//	nowsim -ws 256 -shards 4 -seed 1 -metrics sharded.json
//
// The worker count bounds parallelism only — every output except the
// final wall-clock line (prefixed "workers:") is byte-identical for any
// -shards value at a given -ws and -seed.
//
// The run and check subcommands execute declarative scenario files
// (docs/SCENARIOS.md) instead of flag-built workloads:
//
//	nowsim run examples/scenarios/nfs-opmix-day.scn
//	nowsim run -metrics day.json story.scn
//	nowsim run -shards 4 sharded.scn
//	nowsim run -cpuprofile cpu.pprof -memprofile mem.pprof story.scn
//	nowsim check examples/scenarios/*.scn
//
// run prints the scenario's deterministic report and exits 0 when every
// assertion passed, 2 when any failed or could not be evaluated, 1 on
// parse or run errors. check parses and validates without running.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	now "github.com/nowproject/now"
	"github.com/nowproject/now/internal/experiments"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/trace"
)

// errAssertFailed marks a completed scenario whose assertions did not
// all pass: exit 2, distinct from build/usage errors (exit 1), so CI
// can tell "the story broke" from "the tool broke".
var errAssertFailed = errors.New("scenario assertions failed")

func main() {
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, errAssertFailed) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "nowsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return runScenario(args[1:])
		case "check":
			return checkScenarios(args[1:])
		case "serve":
			return serveCluster(args[1:])
		}
	}
	fs := flag.NewFlagSet("nowsim", flag.ContinueOnError)
	ws := fs.Int("ws", 64, "workstations in the NOW")
	hours := fs.Int("hours", 12, "virtual hours to simulate")
	seed := fs.Int64("seed", 1, "random seed (runs are deterministic per seed)")
	policyName := fs.String("policy", "migrate", "user-return policy: migrate, restart, ignore")
	interarrival := fs.Duration("interarrival", 0, "mean parallel job interarrival (0 = trace default)")
	metricsPath := fs.String("metrics", "", "write metrics JSON (deterministic, byte-stable) to this file")
	metricsCSV := fs.String("metrics-csv", "", "write metrics CSV to this file")
	tracePath := fs.String("trace", "", "write span trace JSON to this file")
	faultSpec := fs.String("faults", "", "fault plan: a plan file path, or seed:<n>[,key=val...] (docs/FAULTS.md)")
	shards := fs.Int("shards", 0, "run the sharded-engine cluster workload with this many workers (0 = classic mixed-workload run)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards > 0 {
		return runSharded(*ws, *shards, *seed, *metricsPath, *metricsCSV, *tracePath)
	}
	var policy now.RecruitPolicy
	switch *policyName {
	case "migrate":
		policy = now.MigrateOnReturn
	case "restart":
		policy = now.RestartOnReturn
	case "ignore":
		policy = now.IgnoreUser
	default:
		return fmt.Errorf("unknown policy %q", *policyName)
	}

	length := now.Duration(*hours) * now.Hour
	days := (*hours + 23) / 24
	acfg := trace.DefaultActivityConfig(*ws, days)
	acfg.Seed = *seed
	activity := trace.GenerateActivity(acfg)

	jcfg := trace.DefaultJobTraceConfig(length)
	jcfg.Seed = *seed
	if *interarrival > 0 {
		jcfg.MeanInterarrival = now.Duration(interarrival.Nanoseconds())
	}
	jobs := trace.GenerateJobs(jcfg)
	for i := range jobs {
		if jobs[i].CommGrain < 5*now.Second {
			jobs[i].CommGrain = 5 * now.Second
		}
	}

	cfg := now.DefaultGLUnixConfig(*ws)
	cfg.Policy = policy
	cfg.HeartbeatInterval = 5 * now.Minute
	cfg.Seed = *seed

	var reg *obs.Registry
	if *metricsPath != "" || *metricsCSV != "" || *tracePath != "" {
		reg = obs.NewRegistry()
		cfg.Obs = reg
	}

	var plan now.FaultPlan
	if *faultSpec != "" {
		var err error
		plan, err = now.ParseFaultSpec(*faultSpec, *ws+1, length)
		if err != nil {
			return err
		}
	}

	fmt.Printf("NOW: %d workstations, %d virtual hours, policy %v, %d parallel jobs\n",
		*ws, *hours, policy, len(jobs))
	e := now.NewEngine(*seed)
	e.Observe(reg)
	var inj *now.FaultInjector
	var cluster *now.GLUnix
	wire := func(c *now.GLUnix) {
		cluster = c
		if *faultSpec == "" {
			return
		}
		inj = now.NewInjector(e, now.ClusterFaultTarget{C: c}, plan, reg)
		inj.Schedule()
		fmt.Printf("fault plan %q: %d faults scheduled\n", plan.Name, len(plan.Faults))
	}
	res, err := now.RunGLUnixMixed(e, cfg, activity, jobs, length+12*now.Hour, wire)
	e.Close()
	if err != nil && !errors.Is(err, now.ErrStopped) {
		return err
	}
	if err := exportObs(reg, *metricsPath, *metricsCSV, *tracePath); err != nil {
		return err
	}

	fmt.Printf("\njobs completed: %d/%d   mean response: %v\n",
		res.JobsCompleted, res.JobsTotal, res.MeanResponse)
	m := res.Master
	fmt.Printf("migrations: %d   evictions: %d   restarts: %d   image saves/restores: %d/%d\n",
		m.Migrations, m.Evictions, m.Restarts, m.ImageSaves, m.ImageRestores)
	if cluster != nil {
		fst := cluster.Fab.Stats()
		fmt.Printf("fabric: offered %d pkts / %d B   delivered %d pkts / %d B   drops %d (%d injected)\n",
			fst.Offered, fst.OfferedBytes, fst.Delivered, fst.DeliveredBytes, fst.Drops, fst.InjectedDrops)
	}
	if inj != nil {
		fmt.Printf("faults applied: %d/%d   nodes declared down: %d   rejoins: %d\n",
			inj.Applied(), len(plan.Faults), m.NodesDown, m.Rejoins)
	}
	if m.UserDelays.N() > 0 {
		fmt.Printf("user delay on return: median %.2fs, p95 %.2fs, max %.2fs (n=%d)\n",
			m.UserDelays.Median(), m.UserDelays.Percentile(95), m.UserDelays.Percentile(100),
			m.UserDelays.N())
	}

	// Per-job response distribution.
	ids := make([]int, 0, len(res.Responses))
	for id := range res.Responses {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	fmt.Println("\nper-job responses:")
	for _, id := range ids {
		fmt.Printf("  job %-4d %v\n", id, res.Responses[id])
	}
	return nil
}

// runSharded executes the partitioned cluster workload on the sharded
// multicore engine. Everything printed before the "workers:" line — and
// every exported metrics/trace file — is deterministic in (ws, seed)
// alone; the worker count only bounds parallelism.
func runSharded(ws, workers int, seed int64, metricsPath, csvPath, tracePath string) error {
	cfg := experiments.DefaultShardedTrafficConfig(ws, workers, seed)
	res, reg, err := experiments.ShardedTraffic(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("NOW sharded: %d workstations in %d partitions, seed %d\n",
		res.Nodes, res.Parts, seed)
	fmt.Printf("barrier mean: %.1f µs   makespan: %.1f µs\n", res.BarrierUs, res.MakespanUs)
	fmt.Printf("events: %d   cross-partition pkts: %d   overflows: %d   drops: %d\n",
		res.Events, res.CrossSent, res.Overflows, res.Drops)
	// The one machine-dependent line; determinism gates strip it.
	fmt.Printf("workers: %d   events/sec: %.0f   wall: %v\n",
		res.Workers, res.EventsPerSec, res.Wall.Round(time.Millisecond))
	return exportObs(reg, metricsPath, csvPath, tracePath)
}

// runScenario executes one scenario file: parse, run, print the
// deterministic report, export metrics if asked. Assertion failures
// come back as errAssertFailed after the report and exports are out.
func runScenario(args []string) (err error) {
	fs := flag.NewFlagSet("nowsim run", flag.ContinueOnError)
	shards := fs.Int("shards", 0, "sharded-fleet worker count (execution only, never observable; 0 = one per core)")
	metricsPath := fs.String("metrics", "", "write metrics JSON (deterministic, byte-stable) to this file")
	metricsCSV := fs.String("metrics-csv", "", "write metrics CSV to this file")
	tracePath := fs.String("trace", "", "write span trace JSON to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a host CPU profile (pprof) of the run to this file")
	memProfile := fs.String("memprofile", "", "write a host heap profile (pprof) to this file at the end of the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: nowsim run [flags] <file.scn>")
	}
	stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); err == nil {
			err = perr
		}
	}()
	s, err := now.ParseScenarioFile(fs.Arg(0))
	if err != nil {
		return err
	}
	res, err := now.RunScenario(s, now.ScenarioOptions{Workers: *shards})
	if err != nil {
		return err
	}
	fmt.Print(res.Report())
	if err := exportObs(res.Registry, *metricsPath, *metricsCSV, *tracePath); err != nil {
		return err
	}
	if !res.Ok() {
		return errAssertFailed
	}
	return nil
}

// checkScenarios parses and validates scenario files without running
// them — the cheap CI gate over examples/scenarios/. Every problem in
// every file is reported (with its source line) before the nonzero
// exit, so one check run surfaces everything wrong at once.
func checkScenarios(paths []string) error {
	if len(paths) == 0 {
		return fmt.Errorf("usage: nowsim check <file.scn...>")
	}
	bad := 0
	for _, path := range paths {
		s, probs := now.ParseScenarioFileAll(path)
		if len(probs) > 0 {
			bad++
			for _, p := range probs {
				fmt.Fprintf(os.Stderr, "%s: %v\n", path, p.Err)
			}
			continue
		}
		fmt.Printf("%s: ok (%s: %d events, %d expects)\n",
			path, s.Name, len(s.Events), len(s.Expects))
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d scenario file(s) have problems", bad, len(paths))
	}
	return nil
}

// exportObs writes the requested observability files. A nil registry
// (no export flags) writes nothing.
func exportObs(reg *obs.Registry, metricsPath, csvPath, tracePath string) error {
	if reg == nil {
		return nil
	}
	write := func(path string, fn func(f *os.File) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(metricsPath, func(f *os.File) error { return reg.WriteMetricsJSON(f) }); err != nil {
		return err
	}
	if err := write(csvPath, func(f *os.File) error { return reg.WriteMetricsCSV(f) }); err != nil {
		return err
	}
	return write(tracePath, func(f *os.File) error { return reg.WriteTraceJSON(f) })
}
