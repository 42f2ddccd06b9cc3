package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	now "github.com/nowproject/now"
)

// sample is one workload iteration, measured in the process that ran
// only that iteration. The orchestrator reads it from the child's
// standard output.
type sample struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Workers  int    `json:"workers"`
	Traced   bool   `json:"traced"`

	WallS     float64 `json:"wall_s"`
	SetupS    float64 `json:"setup_s"`
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	AllocMB   float64 `json:"alloc_mb"`
	Events    int64   `json:"events"`

	// Digest hashes every deterministic output of the run; Problems
	// lists every verification failure (empty on a good run).
	Digest   string   `json:"digest"`
	Problems []string `json:"problems,omitempty"`

	// Layers holds the per-layer metrics (see layers.go).
	Layers map[string]float64 `json:"layers"`
}

// hostClock brackets a measured interval in host time, CPU time and
// heap allocation.
type hostClock struct {
	wall time.Time
	cpu  float64
	gc   runtime.MemStats
}

func startClock() hostClock {
	var c hostClock
	runtime.ReadMemStats(&c.gc)
	c.cpu = cpuSeconds()
	c.wall = time.Now()
	return c
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// allocSince is the heap bytes allocated since c started.
func allocSince(c hostClock) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - c.gc.TotalAlloc
}

// setupProbes is how many times a run builds its stack with no work
// before the measured run; setup_s is their median.
const setupProbes = 9

// runIteration runs one generated input once through the public entry
// points, verifies the output and measures the host cost.
func runIteration(in input, workers int, tr *tracer) sample {
	s := sample{Workload: in.Name, Seed: in.Seed, Workers: workers, Traced: tr != nil, Layers: map[string]float64{}}
	var err error
	switch in.Name {
	case wDrill, wFleet:
		err = runScenario(in, workers, tr, &s)
	case wWAN:
		err = runFederation(in, workers, tr, &s)
	default:
		err = fmt.Errorf("unknown workload %q", in.Name)
	}
	if err != nil {
		s.Problems = append(s.Problems, err.Error())
	}
	s.PeakRSSMB = peakRSSMB()
	return s
}

// runScenario runs a generated .scn through now.ParseScenario and
// now.RunScenario.
func runScenario(in input, workers int, tr *tracer, s *sample) error {
	parsed, err := now.ParseScenario(strings.NewReader(in.Scn))
	if err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	s.Layers["scenario.parse_s"] = medianParse(in.Scn)

	// Classic fleets have no public call between build and run, so the
	// drill measures set-up from outside: the same fleet with no events,
	// no assertions and a 1 ms horizon.
	var setupBytes uint64
	var setups []float64
	if parsed.Fleet.Shards == nil {
		probe := *parsed
		probe.Events, probe.Expects = nil, nil
		probe.Horizon = now.Millisecond
		sp := tr.begin("setup.probe", "scenario")
		for i := 0; i < setupProbes; i++ {
			c := startClock()
			if _, err := now.RunScenario(&probe, now.ScenarioOptions{Workers: workers}); err != nil {
				return fmt.Errorf("setup probe: %w", err)
			}
			setups = append(setups, time.Since(c.wall).Seconds())
			setupBytes = allocSince(c)
		}
		tr.end(sp)
	}

	c := startClock()
	sp := tr.begin("scenario.parse", "scenario")
	sc, err := now.ParseScenario(strings.NewReader(in.Scn))
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	sp = tr.begin("scenario.run", "scenario")
	runStart := time.Now()
	res, err := now.RunScenario(sc, now.ScenarioOptions{Workers: workers})
	runDur := time.Since(runStart)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	sp = tr.begin("verify", "bench")
	var metrics bytes.Buffer
	if err := res.Registry.WriteMetricsJSON(&metrics); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	snap := snapshot(res.Registry)
	s.Digest = digest([]byte(res.Report()), metrics.Bytes())
	s.Problems = append(s.Problems, checkScenario(res, snap)...)
	tr.end(sp)
	finish(s, c, snap)

	nodes := drillWS + drillXFS
	if sh := res.Sharded; sh != nil {
		// Sharded fleets: all of RunScenario outside the engine's Run is
		// set-up (and the teardown that mirrors it).
		s.SetupS = (runDur - sh.Wall).Seconds()
		nodes = sh.Nodes
		if tr != nil {
			setupBytes = fleetSetupBytes(sh.Nodes, sh.Parts, workers, in.Seed)
		}
	} else {
		s.SetupS = median(setups)
	}
	s.Layers["node.setup_bytes_per_node"] = float64(setupBytes) / float64(nodes)
	layerMetrics(s, snap)
	if st := res.XFSNet; st != nil && res.ClusterNet != nil {
		addFabric(s, st.Offered, st.Delivered, st.Drops, st.DeliveredBytes)
	}
	return nil
}

// medianParse times ParseScenario alone, median of several parses.
func medianParse(src string) float64 {
	var ts []float64
	for i := 0; i < 9; i++ {
		t := time.Now()
		if _, err := now.ParseScenario(strings.NewReader(src)); err != nil {
			return 0
		}
		ts = append(ts, time.Since(t).Seconds())
	}
	return median(ts)
}

// finish stamps the host-cost fields measured since c.
func finish(s *sample, c hostClock, snap map[string]now.Metric) {
	s.WallS = time.Since(c.wall).Seconds()
	s.CPUS = cpuSeconds() - c.cpu
	s.AllocMB = float64(allocSince(c)) / (1 << 20)
	s.Events = snap["sim.events.dispatched"].Value
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.Layers["runtime.gc.cycles"] = float64(ms.NumGC - c.gc.NumGC)
	s.Layers["runtime.gc.pause_s"] = float64(ms.PauseTotalNs-c.gc.PauseTotalNs) / 1e9
	s.Layers["runtime.gc.cpu_fraction"] = ms.GCCPUFraction
}

// snapshot indexes a registry snapshot by metric name.
func snapshot(reg *now.MetricsRegistry) map[string]now.Metric {
	m := map[string]now.Metric{}
	for _, mt := range reg.Snapshot() {
		m[mt.Name] = mt
	}
	return m
}

// digest hashes a run's deterministic outputs, length-prefixed so that
// no two different output lists hash alike.
func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d\n", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fedBlockBytes is the xFS default block size the clients write.
const fedBlockBytes = 8192

// runFederation builds the generated federation with now.NewFederation,
// drives FedFS reader/writer procs and job bursts through it, and runs
// it with Federation.Run.
func runFederation(in input, workers int, tr *tracer, s *sample) error {
	p := in.Fed
	cfg := now.FederationConfig{
		Clusters: p.Clusters,
		WAN:      now.WANConfig{Latency: now.Duration(p.LatencyMs) * now.Millisecond, BandwidthMbps: p.Bandwidth, CallRetries: p.CallRetries},
		FedFS:    now.FederatedXFSConfig{FileBlocks: p.FileBlocks},
		Spill:    now.SpillConfig{Policy: now.SpillCostAware, StartEnabled: true},
		Seed:     in.Seed,
		Workers:  workers,
	}
	var setups []float64
	var setupBytes uint64
	sp := tr.begin("setup.probe", "federation")
	for i := 0; i < setupProbes; i++ {
		c := startClock()
		f, err := now.NewFederation(cfg)
		if err != nil {
			return fmt.Errorf("setup probe: %w", err)
		}
		setups = append(setups, time.Since(c.wall).Seconds())
		setupBytes = allocSince(c)
		f.Close()
	}
	tr.end(sp)

	c := startClock()
	sp = tr.begin("federation.New", "federation")
	f, err := now.NewFederation(cfg)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("federation: %w", err)
	}
	cl := newFedClients(f, p)
	sp = tr.begin("federation.Run", "federation")
	err = f.Run(now.Time(p.Horizon))
	tr.end(sp)
	if err != nil {
		f.Close()
		return fmt.Errorf("federation run: %w", err)
	}
	sp = tr.begin("verify", "bench")
	reg := f.Merged()
	var metrics bytes.Buffer
	if err := reg.WriteMetricsJSON(&metrics); err != nil {
		f.Close()
		return fmt.Errorf("metrics: %w", err)
	}
	snap := snapshot(reg)
	var jobs strings.Builder
	for i := 0; i < f.Clusters(); i++ {
		if gl := f.Cluster(i).GL; gl != nil {
			fmt.Fprintf(&jobs, "%s %d\n", f.Cluster(i).Name(), gl.Master.Stats().JobsCompleted)
		}
	}
	for i := 0; i < f.Clusters(); i++ {
		// A member with both GLUnix and xFS registers only the cluster
		// fabric; count and check its storage fabric from outside.
		if m := f.Cluster(i); m.GL != nil && m.FS != nil {
			st := m.FS.Fabric().Stats()
			if st.Offered != st.Delivered+st.Drops {
				s.Problems = append(s.Problems, fmt.Sprintf("%s xfs fabric: offered %d != delivered %d + drops %d", m.Name(), st.Offered, st.Delivered, st.Drops))
			}
			addFabric(s, st.Offered, st.Delivered, st.Drops, st.DeliveredBytes)
		}
	}
	// The federation registers no sim.shard.* metrics; its engine's
	// Stats carry the window counts and the wall-clock stall count.
	st := f.Sharded().Stats()
	s.Layers["sim.shard.stalls"] = float64(st.Stalls)
	s.Layers["sim.shard.windows.run"] = float64(st.WindowsRun)
	s.Layers["sim.shard.windows.idle"] = float64(st.WindowsIdle)
	reads, writes := cl.latencies()
	s.Digest = digest([]byte(p.String()), metrics.Bytes(), []byte(jobs.String()), reads.bytes(), writes.bytes())
	s.Problems = append(s.Problems, checkConservation(snap, 0)...)
	s.Problems = append(s.Problems, cl.problems()...)
	tr.end(sp)
	sp = tr.begin("federation.Close", "federation")
	f.Close()
	tr.end(sp)
	finish(s, c, snap)
	s.SetupS = median(setups)

	nodes := 0
	for _, m := range p.Clusters {
		nodes += m.Workstations + m.XFSNodes
	}
	s.Layers["node.setup_bytes_per_node"] = float64(setupBytes) / float64(nodes)
	s.Layers["fed.read.virt_us.p50"] = reads.quantile(50)
	s.Layers["fed.read.virt_us.p99"] = reads.quantile(99)
	layerMetrics(s, snap)
	return nil
}

// fedClients are the seeded FedFS procs of one federation run. Each
// proc appends only to its own slots, and each cluster's procs run on
// that cluster's partition, so no slot is shared between workers.
type fedClients struct {
	reads, writes [][]int64 // virtual µs per op, per proc
	errs          []error   // first error per proc
}

func newFedClients(f *now.Federation, p *fedPlan) *fedClients {
	cl := &fedClients{
		reads:  make([][]int64, len(p.Clients)),
		writes: make([][]int64, len(p.Clients)),
		errs:   make([]error, len(p.Clients)),
	}
	// Files are homed on the first cluster (the only one with xFS);
	// satellites reach them across the WAN through leases.
	for i, c := range p.Clients {
		i, c := i, c
		m := f.Cluster(c.Cluster)
		m.Engine().Spawn(fmt.Sprintf("bench.client.%d", i), func(pr *now.Proc) {
			r := rand.New(rand.NewSource(c.Seed))
			fs := m.FedFS()
			block := make([]byte, fedBlockBytes)
			for pr.Now() < now.Time(p.Horizon) {
				pr.Sleep(now.Duration(r.ExpFloat64() * float64(c.ThinkMs) * float64(now.Millisecond)))
				file := now.FileID(1 + r.Intn(p.Files))
				blk := uint32(r.Intn(p.FileBlocks))
				t0 := pr.Now()
				if c.Writer {
					block[0], block[1] = byte(i), byte(r.Intn(256))
					if err := fs.Write(pr, file, blk, block); err != nil {
						cl.errs[i] = fmt.Errorf("client %d write %d/%d: %w", i, file, blk, err)
						return
					}
					if err := fs.Sync(pr); err != nil {
						cl.errs[i] = fmt.Errorf("client %d sync: %w", i, err)
						return
					}
					cl.writes[i] = append(cl.writes[i], int64(pr.Now()-t0)/int64(now.Microsecond))
					continue
				}
				if _, err := fs.Read(pr, file, blk); err != nil {
					cl.errs[i] = fmt.Errorf("client %d read %d/%d: %w", i, file, blk, err)
					return
				}
				cl.reads[i] = append(cl.reads[i], int64(pr.Now()-t0)/int64(now.Microsecond))
			}
		})
	}
	for _, b := range p.Bursts {
		b := b
		m := f.Cluster(b.Cluster)
		for j := 0; j < b.Jobs; j++ {
			spec := now.FedJobSpec{ID: b.JobIDOff + j, NProcs: b.NProcs, Work: now.Duration(b.WorkS) * now.Second, Grain: now.Second}
			m.Engine().At(now.Time(b.AtS)*now.Time(now.Second), func() { f.Submit(m.ID(), spec) })
		}
	}
	return cl
}

// latencies returns every completed op's virtual latency, read and
// write, sorted.
func (cl *fedClients) latencies() (reads, writes latencies) {
	for i := range cl.reads {
		reads = append(reads, cl.reads[i]...)
		writes = append(writes, cl.writes[i]...)
	}
	sort.Slice(reads, func(i, j int) bool { return reads[i] < reads[j] })
	sort.Slice(writes, func(i, j int) bool { return writes[i] < writes[j] })
	return reads, writes
}

func (cl *fedClients) problems() []string {
	var out []string
	for _, err := range cl.errs {
		if err != nil {
			out = append(out, err.Error())
		}
	}
	n := 0
	for i := range cl.reads {
		n += len(cl.reads[i])
	}
	if n == 0 {
		out = append(out, "federation: no FedFS read completed")
	}
	return out
}

// latencies is a sorted list of virtual latencies in µs.
type latencies []int64

// quantile is the ceil-rank q-th percentile (0 when empty).
func (l latencies) quantile(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	rank := int(float64(len(l))*q/100+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(l) {
		rank = len(l) - 1
	}
	return float64(l[rank])
}

func (l latencies) bytes() []byte {
	var b strings.Builder
	for _, v := range l {
		fmt.Fprintf(&b, "%d\n", v)
	}
	return []byte(b.String())
}
