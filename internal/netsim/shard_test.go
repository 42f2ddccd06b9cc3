package netsim_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/proto/am"
	"github.com/nowproject/now/internal/sim"
)

// runShardedAM drives AM request/reply traffic (with its retry timers,
// ack machinery and pooled packets) across a sharded Myrinet and returns
// per-node completion times plus the summed fabric stats. Roughly half
// the destinations land on a remote partition, so the cross-shard
// handoff, the rx-horizon reservation on the destination side, and the
// packet value-copy all sit on the hot path.
func runShardedAM(t *testing.T, nodes, parts, workers, rounds int, seed int64) ([]sim.Time, netsim.Stats) {
	t.Helper()
	fcfg := netsim.Myrinet(nodes)
	se := sim.NewShardedEngine(sim.ShardedConfig{
		Parts: parts, Workers: workers, Seed: seed, Window: fcfg.Latency,
	})
	defer se.Close()
	pm := netsim.SplitEven(nodes, parts)
	sf, err := netsim.NewSharded(se, fcfg, pm)
	if err != nil {
		t.Fatal(err)
	}
	acfg := am.Config{HeaderBytes: 8, Window: 4}
	eps := make([]*am.Endpoint, nodes)
	for p := 0; p < parts; p++ {
		for i, ep := range am.NewFleet(sf.Part(p), acfg, nil) {
			if ep != nil {
				ep.Register(0x10, func(p *sim.Proc, m am.Msg) (any, int) {
					return m.Arg, 16
				})
				eps[i] = ep
			}
		}
	}
	done := make([]sim.Time, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		p := pm.Part(netsim.NodeID(i))
		e := se.Engine(p)
		e.Spawn(fmt.Sprintf("rank-%d", i), func(pr *sim.Proc) {
			for r := 0; r < rounds; r++ {
				// Alternate near (mostly intra-partition) and far
				// (mostly cross-partition) destinations.
				var dst int
				if r%2 == 0 {
					dst = (i + 1) % nodes
				} else {
					dst = (i + nodes/2 + r) % nodes
				}
				pr.Sleep(sim.Duration(e.Rand().Intn(3)) * sim.Microsecond)
				if _, err := eps[i].Call(pr, netsim.NodeID(dst), 0x10, r, 256); err != nil {
					pr.Fail(fmt.Errorf("rank %d round %d: %w", i, r, err))
				}
			}
			done[i] = pr.Now()
		})
	}
	errc := make(chan error, 1)
	go func() { errc <- se.Run(sim.MaxTime) }()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("sharded AM run deadlocked")
	}
	return done, sf.Stats()
}

// TestShardedFabricAMDeterminism: full protocol traffic over the sharded
// fabric must complete identically at every worker count, with every
// cross-partition packet accounted for and nothing dropped.
func TestShardedFabricAMDeterminism(t *testing.T) {
	const nodes, parts, rounds = 32, 4, 5
	baseDone, baseStats := runShardedAM(t, nodes, parts, 1, rounds, 11)
	if baseStats.CrossSent == 0 {
		t.Fatal("workload produced no cross-partition traffic")
	}
	if baseStats.CrossSent != baseStats.CrossRecv {
		t.Fatalf("cross-partition packets lost in handoff: sent=%d recv=%d",
			baseStats.CrossSent, baseStats.CrossRecv)
	}
	if baseStats.Drops != 0 {
		t.Fatalf("healthy fabric dropped %d packets", baseStats.Drops)
	}
	if baseStats.Offered != baseStats.Delivered {
		t.Fatalf("offered %d != delivered %d on a lossless fabric", baseStats.Offered, baseStats.Delivered)
	}
	for _, workers := range []int{2, 4} {
		doneW, statsW := runShardedAM(t, nodes, parts, workers, rounds, 11)
		if !reflect.DeepEqual(doneW, baseDone) {
			t.Errorf("workers=%d: per-rank completion times diverge from workers=1", workers)
		}
		if statsW != baseStats {
			t.Errorf("workers=%d: fabric stats diverge:\n  %+v\n  %+v", workers, statsW, baseStats)
		}
	}
}

// TestShardedFabricGuards pins the construction-time invariants.
func TestShardedFabricGuards(t *testing.T) {
	se := sim.NewShardedEngine(sim.ShardedConfig{Parts: 2, Seed: 1, Window: 5 * sim.Microsecond})
	defer se.Close()
	pm := netsim.SplitEven(8, 2)
	if _, err := netsim.NewSharded(se, netsim.Ethernet10(8), pm); err == nil {
		t.Error("sharding a shared-medium fabric should fail")
	}
	fast := netsim.Myrinet(8)
	fast.Latency = 1 * sim.Microsecond // below the 5µs lookahead window
	if _, err := netsim.NewSharded(se, fast, pm); err == nil {
		t.Error("latency below the lookahead window should fail")
	}
	if _, err := netsim.NewSharded(se, netsim.Myrinet(8), netsim.SplitEven(4, 2)); err == nil {
		t.Error("node-count mismatch should fail")
	}
	if _, err := netsim.NewSharded(se, netsim.Myrinet(8), netsim.SplitEven(8, 4)); err == nil {
		t.Error("partition-count mismatch should fail")
	}
	// Partition fabrics share netsim.New's constructor, so its parameter
	// checks reject them with the same text.
	zeroBW := netsim.Myrinet(8)
	zeroBW.BandwidthMbps = 0
	lossy := netsim.Myrinet(8)
	lossy.LossProb = 1
	for _, cfg := range []netsim.Config{zeroBW, lossy} {
		e := sim.NewEngine(1)
		_, flatErr := netsim.New(e, cfg)
		e.Close()
		_, err := netsim.NewSharded(se, cfg, pm)
		if flatErr == nil || err == nil || err.Error() != flatErr.Error() {
			t.Errorf("bandwidth %v, loss %v: sharded error %v, flat error %v", cfg.BandwidthMbps, cfg.LossProb, err, flatErr)
		}
	}
}

// TestErrUnsupportedSharding pins the typed rejection: shared media and
// topology-bearing fabrics must wrap the sentinel so callers (the
// scenario runner, the federation) can branch on errors.Is instead of
// string-matching, while plain parameter mistakes must NOT carry it.
func TestErrUnsupportedSharding(t *testing.T) {
	se := sim.NewShardedEngine(sim.ShardedConfig{Parts: 2, Seed: 1, Window: 5 * sim.Microsecond})
	defer se.Close()
	pm := netsim.SplitEven(8, 2)
	_, err := netsim.NewSharded(se, netsim.Ethernet10(8), pm)
	if !errors.Is(err, netsim.ErrUnsupportedSharding) {
		t.Errorf("shared-medium rejection %v does not wrap ErrUnsupportedSharding", err)
	}
	topo := netsim.Myrinet(8)
	ft, err := netsim.NewFatTree(8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	topo.Topo = ft
	_, err = netsim.NewSharded(se, topo, pm)
	if !errors.Is(err, netsim.ErrUnsupportedSharding) {
		t.Errorf("topology rejection %v does not wrap ErrUnsupportedSharding", err)
	}
	_, err = netsim.NewSharded(se, netsim.Myrinet(8), netsim.SplitEven(4, 2))
	if errors.Is(err, netsim.ErrUnsupportedSharding) {
		t.Errorf("node-count mismatch %v should not wrap ErrUnsupportedSharding", err)
	}
}

// TestSplitEven pins the contiguous-block partition map.
func TestSplitEven(t *testing.T) {
	pm := netsim.SplitEven(10, 4)
	if pm.Parts() != 4 || pm.NumNodes() != 10 {
		t.Fatalf("got %d parts over %d nodes", pm.Parts(), pm.NumNodes())
	}
	prev := 0
	counts := make([]int, 4)
	for i := 0; i < 10; i++ {
		p := pm.Part(netsim.NodeID(i))
		if p < prev {
			t.Fatalf("partition map not contiguous at node %d", i)
		}
		prev = p
		counts[p]++
	}
	for p, c := range counts {
		if c < 2 || c > 3 {
			t.Errorf("partition %d has %d nodes; want 2 or 3", p, c)
		}
	}
	// More parts than nodes clamps.
	if got := netsim.SplitEven(2, 8).Parts(); got != 2 {
		t.Errorf("SplitEven(2, 8).Parts() = %d, want 2", got)
	}
}
