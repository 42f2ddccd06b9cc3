// Package federation composes N independent cluster stacks — each its
// own GLUnix census, xFS installation and intra-building fabric — over a
// WAN-class fabric into one deterministic "NOW of NOWs".
//
// The engine layout is the whole design: the federation ALWAYS runs on a
// sim.ShardedEngine with Parts = number of clusters. Partitions are
// workload identity, workers are execution-only, so a federated run is
// byte-identical at every worker count for free — clusters are the
// natural partitions, and nothing inside a cluster ever touches another
// cluster's engine. The only cross-cluster channel is the WANFabric
// (wan.go), whose per-link latency floors the engine's conservative
// lookahead window.
//
// On top of the substrate live two wide-area services:
//
//   - hierarchical xFS (fedxfs.go): home-cluster managers stay
//     authoritative; remote clusters cache through write-back leases.
//   - GLUnix spill-over (spill.go): jobs a cluster cannot place locally
//     migrate to gossip-advertised idle peers when the cost model says
//     the WAN transfer is cheaper than the local queue.
//
// See docs/FEDERATION.md and DESIGN.md §14.
package federation

import (
	"fmt"

	"github.com/nowproject/now/internal/glunix"
	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/stack"
	"github.com/nowproject/now/internal/xfs"
)

// ClusterConfig describes one member building.
type ClusterConfig struct {
	Name string
	// Workstations > 0 installs a GLUnix cluster (its own fabric,
	// master, daemons) on the cluster's engine.
	Workstations int
	// XFSNodes > 0 installs an xFS system (≥ 3 nodes).
	XFSNodes int
	// GLUnix, when non-nil, overrides the glunix template derived from
	// Workstations. XFS likewise for the file system.
	GLUnix *glunix.Config
	XFS    *xfs.Config
}

// Config shapes a federation.
type Config struct {
	Clusters []ClusterConfig
	WAN      WANConfig
	FedFS    FSConfig
	Spill    SpillConfig
	Seed     int64
	// Workers bounds the worker goroutines driving the partition
	// engines. Execution-only: results are byte-identical at any value.
	Workers int
}

// Cluster is one member's runtime state.
type Cluster struct {
	fed  *Federation
	id   int
	name string
	eng  *sim.Engine
	reg  *obs.Registry

	gw    *Gateway
	GL    *glunix.Cluster // nil without workstations
	FS    *xfs.System     // nil without xfs nodes
	fedfs *FedFS          // nil without any xfs in the federation
	sp    *spiller        // nil when spill is off
}

// Name returns the configured cluster name.
func (c *Cluster) Name() string { return c.name }

// ID returns the cluster's partition index.
func (c *Cluster) ID() int { return c.id }

// Engine returns the cluster's partition engine. Pre-Run setup and
// post-Run inspection only, plus code already running on it.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Registry returns the cluster's metrics registry.
func (c *Cluster) Registry() *obs.Registry { return c.reg }

// Gateway returns the cluster's WAN endpoint.
func (c *Cluster) Gateway() *Gateway { return c.gw }

// FedFS returns the cluster's federated file-system tier (nil when no
// cluster in the federation runs xfs).
func (c *Cluster) FedFS() *FedFS { return c.fedfs }

// Federation is N clusters over one WAN.
type Federation struct {
	cfg      Config
	se       *sim.ShardedEngine
	fabric   *WANFabric
	clusters []*Cluster
	homes    []int // cluster ids running xfs, in index order
	blkBytes []int // per-cluster xfs block size (0 without xfs)
}

// New builds the federation: the sharded engine (Parts = clusters,
// Window = minimum WAN link latency), the WAN fabric, and every member
// stack. A WAN link with non-positive latency has no conservative
// lookahead to give the engine, so it cannot shard — that rejection
// wraps netsim.ErrUnsupportedSharding, same as the fabric-side cases.
func New(cfg Config) (*Federation, error) {
	n := len(cfg.Clusters)
	if n < 2 {
		return nil, fmt.Errorf("federation: need at least 2 clusters, got %d", n)
	}
	if cfg.WAN.BandwidthMbps <= 0 && cfg.WAN.Latency <= 0 && cfg.WAN.Links == nil {
		cfg.WAN = DefaultWANConfig()
	}
	window := sim.MaxTime
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			l := cfg.WAN.link(s, d)
			if l.Latency <= 0 {
				return nil, fmt.Errorf("federation: WAN link %d->%d latency %v gives the engine no lookahead: %w",
					s, d, l.Latency, netsim.ErrUnsupportedSharding)
			}
			if l.BandwidthMbps <= 0 {
				return nil, fmt.Errorf("federation: WAN link %d->%d bandwidth %v Mb/s", s, d, l.BandwidthMbps)
			}
			if sim.Duration(window) > l.Latency {
				window = sim.Time(l.Latency)
			}
		}
	}
	cfg.FedFS = cfg.FedFS.withDefaults()
	cfg.Spill = cfg.Spill.withDefaults()

	se := sim.NewShardedEngine(sim.ShardedConfig{
		Parts:   n,
		Window:  sim.Duration(window),
		Workers: cfg.Workers,
		Seed:    cfg.Seed,
	})
	f := &Federation{cfg: cfg, se: se, clusters: make([]*Cluster, n), blkBytes: make([]int, n)}
	f.fabric = newWANFabric(se, cfg.WAN, n)

	for i, cc := range cfg.Clusters {
		c := &Cluster{fed: f, id: i, name: cc.Name, eng: se.Engine(i), reg: obs.NewRegistry()}
		if c.name == "" {
			c.name = fmt.Sprintf("cluster%d", i)
		}
		c.eng.Observe(c.reg)
		c.gw = newGateway(f, i, c.eng, c.reg)
		var spec stack.Spec
		if cc.Workstations > 0 || cc.GLUnix != nil {
			gcfg := glunix.DefaultConfig(cc.Workstations)
			if cc.GLUnix != nil {
				gcfg = *cc.GLUnix
			}
			if gcfg.Seed == 0 {
				gcfg.Seed = cfg.Seed + int64(i)*7919
			}
			spec.GLUnix = &gcfg
		}
		if cc.XFSNodes > 0 || cc.XFS != nil {
			xcfg := xfs.DefaultConfig(cc.XFSNodes)
			if cc.XFS != nil {
				xcfg = *cc.XFS
			}
			spec.XFS = &xcfg
			f.homes = append(f.homes, i)
			f.blkBytes[i] = xcfg.BlockBytes
		}
		st, err := stack.Build(c.eng, c.reg, spec)
		if err != nil {
			return nil, fmt.Errorf("federation: cluster %s: %w", c.name, err)
		}
		c.GL, c.FS = st.Cluster, st.XFS
		f.clusters[i] = c
	}
	if len(f.homes) > 0 {
		for _, c := range f.clusters {
			c.fedfs = newFedFS(c)
		}
	}
	if cfg.Spill.Policy != SpillOff {
		for _, c := range f.clusters {
			c.sp = newSpiller(c)
		}
	}
	// One OnDeliver per partition: the WAN is the only cross-partition
	// channel, so the gateway owns the hook outright.
	for _, c := range f.clusters {
		c := c
		se.OnDeliver(c.id, func(m sim.ShardMsg) {
			wm := m.Data.(*wanMsg)
			c.eng.AtArg(m.At, func(a any) { c.gw.deliver(a.(*wanMsg)) }, wm)
		})
	}
	return f, nil
}

// Clusters returns the number of member clusters.
func (f *Federation) Clusters() int { return len(f.clusters) }

// Cluster returns member i.
func (f *Federation) Cluster(i int) *Cluster { return f.clusters[i] }

// ClusterByName returns the member with the given name, or nil.
func (f *Federation) ClusterByName(name string) *Cluster {
	for _, c := range f.clusters {
		if c.name == name {
			return c
		}
	}
	return nil
}

// Sharded returns the underlying engine, for wiring extra workload
// before Run.
func (f *Federation) Sharded() *sim.ShardedEngine { return f.se }

// WAN returns the wide-area fabric.
func (f *Federation) WAN() *WANFabric { return f.fabric }

// Run drives the federation to the horizon (or natural quiescence,
// whichever is first).
func (f *Federation) Run(horizon sim.Time) error { return f.se.Run(horizon) }

// Close tears the partition engines down deterministically.
func (f *Federation) Close() { f.se.Close() }

// Registry returns cluster i's metrics registry.
func (f *Federation) Registry(i int) *obs.Registry { return f.clusters[i].reg }

// Merged returns the whole-federation registry view (counters summed,
// spans interleaved deterministically).
func (f *Federation) Merged() *obs.Registry {
	regs := make([]*obs.Registry, len(f.clusters))
	for i, c := range f.clusters {
		regs[i] = c.reg
	}
	return obs.Merged(regs...)
}
