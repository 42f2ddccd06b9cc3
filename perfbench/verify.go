package main

import (
	"fmt"

	now "github.com/nowproject/now"
	"github.com/nowproject/now/internal/experiments"
)

// checkScenario verifies a scenario run from outside: every generated
// assertion passed, both fabrics conserve packets, and the registry
// invariants hold.
func checkScenario(res *now.ScenarioResult, snap map[string]now.Metric) []string {
	var out []string
	if !res.Ok() {
		for _, c := range res.Checks {
			if c.Outcome.String() != "PASS" {
				out = append(out, fmt.Sprintf("assertion %s: %s (got %d) %s", c.Expect.String(), c.Outcome, c.Got, c.Detail))
			}
		}
	}
	if st := res.ClusterNet; st != nil && st.Offered != st.Delivered+st.Drops {
		out = append(out, fmt.Sprintf("cluster fabric: offered %d != delivered %d + drops %d", st.Offered, st.Delivered, st.Drops))
	}
	if st := res.XFSNet; st != nil && st.Offered != st.Delivered+st.Drops {
		out = append(out, fmt.Sprintf("xfs fabric: offered %d != delivered %d + drops %d", st.Offered, st.Delivered, st.Drops))
	}
	nodes := 0
	if res.Sharded != nil {
		nodes = res.Sharded.Nodes
	}
	return append(out, checkConservation(snap, nodes)...)
}

// checkConservation checks the registry-level invariants: the fabric
// loses nothing it does not count, GLUnix completes no job it was not
// given, and a run that drains (drainNodes > 0: the sharded fleet runs
// until no event is left) leaves no workload process alive. Only the
// per-node service loops may survive it, parked for good: AM transmit,
// AM dispatch and the CPU scheduler, serviceProcs per node.
func checkConservation(snap map[string]now.Metric, drainNodes int) []string {
	var out []string
	offered, ok := snap["net.offered"]
	if !ok {
		out = append(out, "net.offered not registered")
	} else if d, dr := snap["net.delivered"].Value, snap["net.drops"].Value; offered.Value != d+dr {
		out = append(out, fmt.Sprintf("net.offered %d != net.delivered %d + net.drops %d", offered.Value, d, dr))
	}
	if done, ok := snap["glunix.jobs.completed"]; ok {
		if sub := snap["glunix.jobs.submitted"].Value; done.Value > sub {
			out = append(out, fmt.Sprintf("glunix.jobs.completed %d > glunix.jobs.submitted %d", done.Value, sub))
		}
	}
	if drainNodes > 0 {
		if pend := snap["sim.events.pending"].Value; pend != 0 {
			out = append(out, fmt.Sprintf("sim.events.pending %d after a draining run", pend))
		}
		if live := snap["sim.procs.live"].Value; live > int64(serviceProcs*drainNodes) {
			out = append(out, fmt.Sprintf("sim.procs.live %d after a draining run: more than the %d service loops of %d nodes", live, serviceProcs*drainNodes, drainNodes))
		}
	}
	return out
}

// serviceProcs is the number of never-ending service loops a node of
// the sharded fleet runs.
const serviceProcs = 3

// fleetSetupBytes measures the sharded fleet's set-up allocation from
// outside: the same partitioned workload with no barriers and no
// rounds, so the run does nothing but build and tear down the stack.
func fleetSetupBytes(nodes, parts, workers int, seed int64) uint64 {
	cfg := experiments.DefaultShardedTrafficConfig(nodes, workers, seed)
	cfg.Parts, cfg.Rounds, cfg.Barriers = parts, 0, 0
	c := startClock()
	if _, _, err := experiments.ShardedTraffic(cfg); err != nil {
		return 0
	}
	return allocSince(c)
}
