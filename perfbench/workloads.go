package main

import (
	"fmt"
	"math/rand"
	"strings"

	now "github.com/nowproject/now"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	wDrill = "storage-drill"
	wFleet = "fleet-4096"
	wWAN   = "wan-federation"
)

var workloadNames = []string{wDrill, wFleet, wWAN}

// size scales every workload. The benchmark runs at defaultSize; the
// tests run at smokeSize, which keeps each workload's shape (every
// layer still runs) at a fraction of the host cost.
type size struct {
	// DrillHorizon is the storage drill's virtual length in seconds,
	// and DrillStreams the op-mix client count.
	DrillHorizon, DrillStreams int
	// FleetWS, FleetRounds and FleetBarriers shape the sharded fleet.
	FleetWS, FleetRounds, FleetBarriers int
	// WANHorizon is the federation's virtual length in seconds, and
	// WANProcs the reader/writer procs per member cluster.
	WANHorizon, WANProcs int
}

var (
	defaultSize = size{
		DrillHorizon: 300, DrillStreams: 24,
		FleetWS: 4096, FleetRounds: 8, FleetBarriers: 4,
		WANHorizon: 200, WANProcs: 12,
	}
	smokeSize = size{
		DrillHorizon: 150, DrillStreams: 6,
		FleetWS: 256, FleetRounds: 2, FleetBarriers: 2,
		WANHorizon: 40, WANProcs: 2,
	}
)

// input is one generated workload: the only thing the program under
// test receives. Scenario workloads carry .scn text; the federation
// workload carries its configuration and seeded client plan.
type input struct {
	Name string
	Seed int64
	// Scn is the generated scenario source (scenario workloads).
	Scn string
	// Fed is the generated federation (wan-federation).
	Fed *fedPlan
}

// generate builds the named workload's input from seed.
func generate(name string, seed int64, sz size) (input, error) {
	switch name {
	case wDrill:
		return input{Name: name, Seed: seed, Scn: genDrill(seed, sz)}, nil
	case wFleet:
		return input{Name: name, Seed: seed, Scn: genFleet(seed, sz)}, nil
	case wWAN:
		return input{Name: name, Seed: seed, Fed: genFed(seed, sz)}, nil
	}
	return input{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// Storage-drill fleet shape: 16 GLUnix workstations beside a 12-node
// xFS with 2 hot spares and 3 managers.
const (
	drillWS       = 16
	drillXFS      = 12
	drillSpares   = 2
	drillManagers = 3
)

// genDrill writes the classic storage drill: diurnal users, a gang-job
// stream, a low-think op mix, and one fault of every class the
// remediator and the xFS manager failover must absorb. The seed picks
// the faulted nodes, the fault times within fixed windows, and every
// RNG stream of the run; the amount of work per run stays the same, so
// host cost compares across seeds.
func genDrill(seed int64, sz size) string {
	r := rand.New(rand.NewSource(seed))
	h := sz.DrillHorizon
	at := func(lo, hi float64) int { return int(float64(h) * (lo + (hi-lo)*r.Float64())) }
	var b strings.Builder
	fmt.Fprintf(&b, "# storage-drill, generated from seed %d\n", seed)
	fmt.Fprintf(&b, "scenario storage-drill\nseed %d\nhorizon %ds\n", seed, h)
	fmt.Fprintf(&b, "fleet ws %d\n", drillWS)
	fmt.Fprintf(&b, "fleet xfs %d spares=%d managers=%d cache=16\n", drillXFS, drillSpares, drillManagers)
	b.WriteString("at 0s remediate on\n")
	b.WriteString("at 0s diurnal days=1\n")
	// One op mix: every stream has a private data file, so data reads
	// and write+sync run side by side with the shared metadata reads.
	fmt.Fprintf(&b, "at 2s opmix %d meta=0.6 think=200ms files=48 blocks=16\n", sz.DrillStreams)
	fmt.Fprintf(&b, "at 5s jobs %d nodes=3 work=30s every=15s grain=2s\n", h/20)
	a := 1 + r.Intn(drillWS-2)
	fmt.Fprintf(&b, "at %ds partition %d,%d for 20s\n", at(0.10, 0.20), a, a+1)
	fmt.Fprintf(&b, "at %ds crash %d for 30s\n", at(0.25, 0.35), 1+r.Intn(drillWS-1))
	fmt.Fprintf(&b, "at %ds diskfail %d\n", at(0.40, 0.50), r.Intn(drillXFS-drillSpares))
	fmt.Fprintf(&b, "at %ds mgrkill %d\n", at(0.60, 0.70), r.Intn(drillManagers))
	b.WriteString("expect faults.injected == 4 at end\n")
	b.WriteString("expect remediate.rebuilds >= 1 at end\n")
	b.WriteString("expect xfs.failovers == 1 at end\n")
	b.WriteString("expect scenario.opmix.ops > 0 at end\n")
	b.WriteString("expect glunix.jobs.completed >= 1 at end\n")
	return b.String()
}

// fleetParts is the sharded fleet's partition count.
const fleetParts = 8

// genFleet writes the sharded fleet: the partitioned barrier + AM
// traffic workload at 4,096 ranks.
func genFleet(seed int64, sz size) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# fleet-%d, generated from seed %d\n", sz.FleetWS, seed)
	fmt.Fprintf(&b, "scenario fleet-%d\nseed %d\n", sz.FleetWS, seed)
	fmt.Fprintf(&b, "fleet ws %d\n", sz.FleetWS)
	fmt.Fprintf(&b, "fleet shards %d rounds=%d barriers=%d\n", fleetParts, sz.FleetRounds, sz.FleetBarriers)
	b.WriteString("expect net.drops == 0 at end\n")
	// The barrier counter is registered on partition 0's communicator
	// fragment only: one completion per local rank per barrier.
	fmt.Fprintf(&b, "expect collective.barriers == %d at end\n", sz.FleetWS/fleetParts*sz.FleetBarriers)
	return b.String()
}

// fedPlan is the generated wan-federation input: three member
// clusters (the first homes every file), the WAN, and a seeded plan of
// client procs and job bursts.
type fedPlan struct {
	Horizon    now.Duration
	Clusters   []now.FederationCluster
	LatencyMs  int
	Bandwidth  float64
	FileBlocks int
	Files      int
	// CallRetries is the WAN call attempt budget (timeouts double per
	// attempt).
	CallRetries int
	// Clients are the FedFS reader/writer procs.
	Clients []fedClient
	// Bursts are gang-job bursts submitted at the satellites.
	Bursts []fedBurst
}

type fedClient struct {
	Cluster int
	Seed    int64
	// Writer procs write then sync; the others read.
	Writer bool
	// ThinkMs is the mean exponential think time between ops.
	ThinkMs int
}

type fedBurst struct {
	Cluster  int
	AtS      int
	Jobs     int
	NProcs   int
	WorkS    int
	JobIDOff int
}

// genFed builds the federation plan. As for the drill, the seed feeds
// every RNG stream (each client's, and the federation's own) but not
// the amount of work.
func genFed(seed int64, sz size) *fedPlan {
	r := rand.New(rand.NewSource(seed))
	p := &fedPlan{
		Horizon: now.Duration(sz.WANHorizon) * now.Second,
		Clusters: []now.FederationCluster{
			{Name: "home", Workstations: 8, XFSNodes: 8},
			{Name: "east", Workstations: 8},
			{Name: "west", Workstations: 6},
		},
		LatencyMs:   10,
		Bandwidth:   1000,
		FileBlocks:  8,
		CallRetries: 8,
		Files:       48,
	}
	for c := range p.Clusters {
		for i := 0; i < sz.WANProcs; i++ {
			p.Clients = append(p.Clients, fedClient{
				Cluster: c,
				Seed:    r.Int63(),
				Writer:  i%6 == 5,
				ThinkMs: 300 + 600*i/sz.WANProcs,
			})
		}
	}
	id := 0
	for c := 1; c < len(p.Clusters); c++ {
		ws := p.Clusters[c].Workstations
		for t := 5 + 5*c; t < sz.WANHorizon-20; t += 30 {
			b := fedBurst{Cluster: c, AtS: t, Jobs: 3, NProcs: ws / 2, WorkS: 30, JobIDOff: id}
			id += b.Jobs
			p.Bursts = append(p.Bursts, b)
		}
	}
	return p
}

// String renders the plan for digests and the parse-free workload's
// determinism test.
func (p *fedPlan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "horizon %v lat %dms bw %g retries %d files %d fileblocks %d\n", p.Horizon, p.LatencyMs, p.Bandwidth, p.CallRetries, p.Files, p.FileBlocks)
	for _, c := range p.Clusters {
		fmt.Fprintf(&b, "cluster %s ws=%d xfs=%d\n", c.Name, c.Workstations, c.XFSNodes)
	}
	for _, c := range p.Clients {
		fmt.Fprintf(&b, "client %d seed=%d writer=%v think=%dms\n", c.Cluster, c.Seed, c.Writer, c.ThinkMs)
	}
	for _, j := range p.Bursts {
		fmt.Fprintf(&b, "burst %d at=%ds jobs=%d nprocs=%d work=%ds\n", j.Cluster, j.AtS, j.Jobs, j.NProcs, j.WorkS)
	}
	return b.String()
}
