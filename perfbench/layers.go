package main

import (
	now "github.com/nowproject/now"
)

// metricDef names one reported metric. End-to-end metrics carry the
// share by which a change may worsen them (Bound); per-layer metrics
// carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, reported from
// untraced runs as medians over the run's iterations. Failed runs are
// the result line's "failed" out of "attempted" (fail_ratio), not a
// metric: a metric must never read 0.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"alloc_mb", "MB", "lower", 0.15},
	{"events_per_s", "1/s", "higher", 0.25},
}

// cpuBuckets are the host.cpu.<bucket> attribution targets: the
// modules of the stack, the bench itself, and "runtime" for samples
// with no repo frame on the stack. "other" collects the repo's
// remaining packages (the now facade, stats, trace generators, …).
var cpuBuckets = []string{
	"sim", "netsim", "node", "lru", "am", "collective", "xfs", "swraid",
	"glunix", "faults", "controlplane", "federation", "scenario",
	"experiments", "obs", "other", "bench", "runtime",
}

// perLayer are the traced run's metrics. A layer the workload does not
// run reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events.dispatched", "count", "lower", 0},
		{"sim.events.cancelled", "count", "lower", 0},
		{"sim.cancel_ratio", "ratio", "lower", 0},
		{"sim.proc.spawns", "count", "lower", 0},
		{"sim.proc.switches", "count", "lower", 0},
		{"sim.heap.depth.max", "count", "lower", 0},
		{"sim.host_ns_per_event", "ns", "lower", 0},
		{"sim.shard.windows.run", "count", "lower", 0},
		{"sim.shard.windows.idle", "count", "lower", 0},
		{"sim.shard.stalls", "count", "lower", 0},
		{"node.setup_bytes_per_node", "B", "lower", 0},
		{"net.offered", "count", "lower", 0},
		{"net.delivered", "count", "lower", 0},
		{"net.drops", "count", "lower", 0},
		{"net.delivered.bytes", "B", "lower", 0},
		{"net.cross.sent", "count", "lower", 0},
		{"net.am.latency.count", "count", "lower", 0},
		{"net.am.latency.p50_ns", "ns", "lower", 0},
		{"net.am.latency.p99_ns", "ns", "lower", 0},
		{"collective.barriers", "count", "lower", 0},
		{"collective.barrier.p50_ns", "ns", "lower", 0},
		{"xfs.reads", "count", "lower", 0},
		{"xfs.writes", "count", "lower", 0},
		{"xfs.hit_ratio", "ratio", "higher", 0},
		{"xfs.reads.storage", "count", "lower", 0},
		{"raid.reads.degraded", "count", "lower", 0},
		{"scenario.opmix.latency.p50_ns", "ns", "lower", 0},
		{"scenario.opmix.latency.p99_ns", "ns", "lower", 0},
		{"scenario.opmix.errors", "count", "lower", 0},
		{"glunix.jobs.completed", "count", "higher", 0},
		{"glunix.image.saves", "count", "lower", 0},
		{"faults.injected", "count", "lower", 0},
		{"remediate.rebuilds", "count", "lower", 0},
		{"wan.calls", "count", "lower", 0},
		{"wan.call.retries", "count", "lower", 0},
		{"wan.retry_ratio", "ratio", "lower", 0},
		{"wan.sent", "count", "lower", 0},
		{"wan.bytes", "B", "lower", 0},
		{"fed.lease.grants", "count", "lower", 0},
		{"fed.lease.recalls", "count", "lower", 0},
		{"fed.cache.hits", "count", "higher", 0},
		{"fed.spill.jobs", "count", "lower", 0},
		{"fed.read.virt_us.p50", "us", "lower", 0},
		{"fed.read.virt_us.p99", "us", "lower", 0},
		{"scenario.parse_s", "s", "lower", 0},
		{"runtime.gc.cycles", "count", "lower", 0},
		{"runtime.gc.pause_s", "s", "lower", 0},
		{"runtime.gc.cpu_fraction", "ratio", "lower", 0},
	}
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{"host.cpu." + b, "share", "lower", 0})
	}
	return append(defs, metricDef{"trace.overhead_ratio", "ratio", "lower", 0})
}()

// registryLayers are per-layer metrics copied straight from the
// registry snapshot (counter or gauge value).
var registryLayers = []string{
	"sim.events.dispatched", "sim.events.cancelled", "sim.proc.spawns",
	"sim.proc.switches", "sim.heap.depth.max",
	"net.offered", "net.delivered", "net.drops", "net.delivered.bytes", "net.cross.sent",
	"collective.barriers",
	"xfs.reads", "xfs.writes", "xfs.reads.storage", "raid.reads.degraded",
	"scenario.opmix.errors",
	"glunix.jobs.completed", "glunix.image.saves", "faults.injected", "remediate.rebuilds",
	"wan.calls", "wan.call.retries", "wan.sent", "wan.bytes",
	"fed.lease.grants", "fed.lease.recalls", "fed.cache.hits", "fed.spill.jobs",
}

// layerMetrics fills the registry-derived per-layer metrics of s.
func layerMetrics(s *sample, snap map[string]now.Metric) {
	for _, name := range registryLayers {
		s.Layers[name] += float64(snap[name].Value)
	}
	ratio := func(num, den string) float64 {
		d := snap[den].Value
		if d == 0 {
			return 0
		}
		return float64(snap[num].Value) / float64(d)
	}
	for _, name := range []string{"sim.shard.windows.run", "sim.shard.windows.idle"} {
		if m, ok := snap[name]; ok {
			s.Layers[name] = float64(m.Value)
		}
	}
	s.Layers["sim.cancel_ratio"] = ratio("sim.events.cancelled", "sim.events.scheduled")
	s.Layers["xfs.hit_ratio"] = ratio("xfs.hits.local", "xfs.reads")
	s.Layers["wan.retry_ratio"] = ratio("wan.call.retries", "wan.calls")
	quant := func(name string, q float64) float64 {
		v, ok := snap[name].Quantile(q)
		if !ok {
			return 0
		}
		return float64(v)
	}
	s.Layers["net.am.latency.count"] = float64(snap["net.am.latency.ns"].Value)
	s.Layers["net.am.latency.p50_ns"] = quant("net.am.latency.ns", 50)
	s.Layers["net.am.latency.p99_ns"] = quant("net.am.latency.ns", 99)
	s.Layers["collective.barrier.p50_ns"] = quant("collective.barrier.ns", 50)
	s.Layers["scenario.opmix.latency.p50_ns"] = quant("scenario.opmix.latency.ns", 50)
	s.Layers["scenario.opmix.latency.p99_ns"] = quant("scenario.opmix.latency.ns", 99)
	if run := s.WallS - s.SetupS; s.Events > 0 && run > 0 {
		s.Layers["sim.host_ns_per_event"] = run * 1e9 / float64(s.Events)
	}
}

// addFabric counts a fabric the registry does not carry (a storage
// fabric sharing its registry with a cluster fabric that claims the
// net.* names) into the per-layer net.* totals.
func addFabric(s *sample, offered, delivered, drops, deliveredBytes int64) {
	s.Layers["net.offered"] += float64(offered)
	s.Layers["net.delivered"] += float64(delivered)
	s.Layers["net.drops"] += float64(drops)
	s.Layers["net.delivered.bytes"] += float64(deliveredBytes)
}
