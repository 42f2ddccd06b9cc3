package am

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/node"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/sim"
)

// buildByHand is the loop NewFleet replaced, kept as the reference: one
// node and one endpoint per node id in ascending order, each on the
// engine of the partition that owns it.
func buildByHand(fabs []*netsim.Fabric, owner func(netsim.NodeID) int, cfg Config) [][]*Endpoint {
	fleets := make([][]*Endpoint, len(fabs))
	for p, fab := range fabs {
		fleets[p] = make([]*Endpoint, fab.Nodes())
	}
	for i := range fleets[0] {
		id := netsim.NodeID(i)
		fab := fabs[owner(id)]
		e := fab.Engine()
		fleets[owner(id)][i] = NewEndpoint(e, node.New(e, node.DefaultConfig(id)), fab, cfg)
	}
	return fleets
}

func buildWithNewFleet(fabs []*netsim.Fabric, _ func(netsim.NodeID) int, cfg Config) [][]*Endpoint {
	fleets := make([][]*Endpoint, len(fabs))
	for p, fab := range fabs {
		fleets[p] = NewFleet(fab, cfg, nil)
	}
	return fleets
}

// runFleet builds a 4-node fleet with build on a flat fabric (parts ==
// 1) or a sharded one, checks that each partition's slice is nil
// exactly at the nodes it does not own, runs a short Call workload and
// returns the metrics export, sim.* included.
//
// Each CPU also gets a classed task queued before the fleet's processes
// start, whose scheduling filter counts the AM loops already parked when
// that CPU's scheduler first runs. That pins the start order NewFleet
// promises, which fixes process ids but is otherwise invisible to a
// workload that starts after the fleet is idle.
func runFleet(t *testing.T, parts int, build func([]*netsim.Fabric, func(netsim.NodeID) int, Config) [][]*Endpoint) []byte {
	t.Helper()
	const nodes = 4
	fcfg := netsim.Myrinet(nodes)
	var (
		engines []*sim.Engine
		fabs    []*netsim.Fabric
		owner   = func(netsim.NodeID) int { return 0 }
		run     func() error
	)
	regs := []*obs.Registry{obs.NewRegistry()} // then one per engine, single-writer
	if parts == 1 {
		e := sim.NewEngine(1)
		fab, err := netsim.New(e, fcfg)
		if err != nil {
			t.Fatal(err)
		}
		engines, fabs, run = []*sim.Engine{e}, []*netsim.Fabric{fab}, e.Run
	} else {
		se := sim.NewShardedEngine(sim.ShardedConfig{Parts: parts, Workers: parts, Seed: 1, Window: fcfg.Latency})
		defer se.Close()
		pm := netsim.SplitEven(nodes, parts)
		sf, err := netsim.NewSharded(se, fcfg, pm)
		if err != nil {
			t.Fatal(err)
		}
		se.Observe(regs[0])
		for p := 0; p < parts; p++ {
			engines, fabs = append(engines, se.Engine(p)), append(fabs, sf.Part(p))
		}
		owner, run = pm.Part, func() error { return se.Run(sim.MaxTime) }
	}
	for p, e := range engines {
		regs = append(regs, obs.NewRegistry())
		e.Observe(regs[p+1])
		fabs[p].Instrument(regs[p+1])
	}

	var fleets [][]*Endpoint
	for i := 0; i < nodes; i++ {
		i, p := i, owner(netsim.NodeID(i))
		started := regs[p+1].Gauge(fmt.Sprintf("fleet.node%d.loops_started", i))
		engines[p].Spawn(fmt.Sprintf("probe-%d", i), func(pr *sim.Proc) {
			cpu, recorded := fleets[p][i].Node().CPU, false
			cpu.SetFilter(func(string) bool {
				for _, ep := range fleets[p] {
					if ep != nil && !recorded {
						started.Add(int64(ep.tx.Waiting() + ep.rq.Waiting()))
					}
				}
				recorded = true
				return true
			})
			cpu.ComputeAs(pr, "probe", sim.Microsecond)
		})
	}

	fleets = build(fabs, owner, DefaultConfig())
	for p, fleet := range fleets {
		for i, ep := range fleet {
			if (ep != nil) != (owner(netsim.NodeID(i)) == p) {
				t.Fatalf("partition %d has endpoint=%t for node %d, owned by partition %d", p, ep != nil, i, owner(netsim.NodeID(i)))
			}
			if ep == nil {
				continue
			}
			ep.Register(hEcho, func(_ *sim.Proc, m Msg) (any, int) { return m.Arg, 16 + 8*i })
			engines[p].Spawn(fmt.Sprintf("caller-%d", i), func(pr *sim.Proc) {
				for r := 0; r < 6; r++ {
					dst := netsim.NodeID((i + 1 + r%(nodes-1)) % nodes)
					if _, err := ep.Call(pr, dst, hEcho, r, 64*(i+1)); err != nil {
						pr.Fail(err)
					}
				}
			})
		}
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.Merged(regs...).WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestNewFleetMatchesHandBuiltFleet: NewFleet must build exactly the
// fleet the hand-rolled loops it replaced built: same metrics, sim.*
// included, on a flat fabric and on a partitioned one.
func TestNewFleetMatchesHandBuiltFleet(t *testing.T) {
	for _, parts := range []int{1, 2} {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			want := runFleet(t, parts, buildByHand)
			got := runFleet(t, parts, buildWithNewFleet)
			if !bytes.Equal(got, want) {
				t.Fatalf("NewFleet metrics differ from the hand-built fleet:\n got: %s\nwant: %s", got, want)
			}
			if !bytes.Contains(got, []byte(`"sim.proc.spawns"`)) || !bytes.Contains(got, []byte(`"fleet.node3.loops_started"`)) {
				t.Fatalf("metrics export lacks the engine or probe metrics:\n%s", got)
			}
		})
	}
}
