// Package coopcache implements cooperative file caching (Dahlin et al.,
// OSDI '94, as summarised in the NOW paper): the file caches of every
// client workstation are managed as one building-wide cache. On a local
// miss the server's directory forwards the request to another client
// holding the block — a remote memory copy an order of magnitude faster
// than the server's disk — and the N-chance policy gives the last cached
// copy of a block ("singlet") N extra lives by recirculating it to a
// random peer instead of discarding it.
//
// Three policies are provided so Table 3 and its ablation can be
// regenerated: the traditional client/server baseline, greedy
// forwarding, and N-chance forwarding.
package coopcache

import (
	"fmt"

	"github.com/nowproject/now/internal/lru"
	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/proto/am"
	"github.com/nowproject/now/internal/sim"
)

// Policy selects the cache-coordination algorithm.
type Policy int

const (
	// ClientServer is the traditional baseline: misses go to the server
	// (its cache, then its disk); client memories are private.
	ClientServer Policy = iota + 1
	// Greedy forwards misses to another client caching the block, but
	// discards evicted blocks even when they are the last copy.
	Greedy
	// NChance is Greedy plus singlet recirculation: the last cached copy
	// of a block is forwarded to a random peer up to N times instead of
	// being dropped.
	NChance
)

// String names the policy for reports.
func (p Policy) String() string {
	switch p {
	case ClientServer:
		return "client-server"
	case Greedy:
		return "greedy-forwarding"
	case NChance:
		return "n-chance"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// BlockID names one file block.
type BlockID struct {
	File  uint32
	Block uint32
}

// AM handlers (coopcache owns 0x40–0x4F).
const (
	hRead am.HandlerID = 0x40 + iota
	hFetch
	hEvict
	hWrite
	hRecirc
	hInval
)

// Config sets the system shape; zero fields take Table 3's values.
type Config struct {
	// Clients is the number of client workstations (42 in the study).
	Clients int
	// ClientCacheBlocks is each client's cache size in blocks
	// (16 MB / 8 KB = 2048).
	ClientCacheBlocks int
	// ServerCacheBlocks is the server cache size (128 MB / 8 KB = 16384).
	ServerCacheBlocks int
	// BlockBytes is the transfer unit (8 KB).
	BlockBytes int
	// Policy selects the algorithm.
	Policy Policy
	// NChance is the recirculation count for the NChance policy.
	NChance int
	// LocalCopy is the memory-copy cost of delivering a cached block to
	// the application (the paper's 250 µs for 8 KB).
	LocalCopy sim.Duration
	// Proto configures the communication layer; the study assumed
	// standard network drivers (≈200 µs per side), not lean AM.
	Proto am.Config
	// Fabric configures the network; the study assumed 155 Mb/s ATM.
	Fabric func(nodes int) netsim.Config
	// Seed drives victim selection for recirculation.
	Seed int64
}

// DefaultConfig returns Table 3's configuration.
func DefaultConfig(policy Policy) Config {
	return Config{
		Clients:           42,
		ClientCacheBlocks: 2048,
		ServerCacheBlocks: 16384,
		BlockBytes:        8192,
		Policy:            policy,
		NChance:           2,
		LocalCopy:         250 * sim.Microsecond,
		Proto: am.Config{
			SendOverhead: 200 * sim.Microsecond,
			RecvOverhead: 200 * sim.Microsecond,
			HeaderBytes:  64,
			BufferSlots:  512,
			Window:       32,
		},
		Fabric: netsim.ATM155,
		Seed:   1,
	}
}

// Stats aggregates a run.
type Stats struct {
	Reads           int64
	Writes          int64
	LocalHits       int64
	RemoteHits      int64 // served from another client's cache
	ServerMemHits   int64
	DiskReads       int64
	Recirculations  int64
	EvictionNotices int64
}

// MissRate is the fraction of reads that went all the way to disk — the
// "cache miss rate" column of Table 3.
func (s Stats) MissRate() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.DiskReads) / float64(s.Reads)
}

// cachedBlock is a client-cache entry.
type cachedBlock struct {
	recirc int // times this copy has been recirculated
	// maybeSinglet is the N-chance hint: this copy is likely the last
	// one cached by any client (set when the block came from the server
	// or via recirculation; cleared when fetched from a peer, which by
	// definition also holds it). Hints avoid a synchronous server round
	// trip on every eviction — Dahlin's design.
	maybeSinglet bool
}

// System is a server plus a set of cooperating clients on one fabric.
type System struct {
	cfg     Config
	eng     *sim.Engine
	server  *server
	clients []*client
	st      Stats
	resp    []sim.Duration // per-read response times
	m       *systemMetrics // nil unless Instrument attached a registry
}

type server struct {
	sys   *System
	ep    *am.Endpoint
	cache *lru.Cache[BlockID, struct{}]
	// dir tracks which clients cache each block.
	dir map[BlockID]map[int]struct{}
}

type client struct {
	sys   *System
	idx   int
	ep    *am.Endpoint
	cache *lru.Cache[BlockID, *cachedBlock]
}

// readReply is the server's answer to a read request.
type readReply struct {
	forwardTo int // client index holding the block, or -1
	fromDisk  bool
	// singletHint tells the requester no other client caches the block —
	// the seed of the N-chance recirculation heuristic.
	singletHint bool
}

// New builds the system on a fresh engine.
func New(e *sim.Engine, cfg Config) (*System, error) {
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("coopcache: %d clients", cfg.Clients)
	}
	if cfg.Fabric == nil {
		cfg.Fabric = netsim.ATM155
	}
	fab, err := netsim.New(e, cfg.Fabric(cfg.Clients+1))
	if err != nil {
		return nil, fmt.Errorf("coopcache: %w", err)
	}
	sys := &System{cfg: cfg, eng: e}
	eps := am.NewFleet(fab, cfg.Proto, nil)
	sys.server = &server{
		sys:   sys,
		ep:    eps[0],
		cache: lru.New[BlockID, struct{}](cfg.ServerCacheBlocks),
		dir:   make(map[BlockID]map[int]struct{}),
	}
	sys.server.register()
	sys.clients = make([]*client, cfg.Clients)
	for i := range sys.clients {
		c := &client{
			sys:   sys,
			idx:   i,
			ep:    eps[i+1],
			cache: lru.New[BlockID, *cachedBlock](cfg.ClientCacheBlocks),
		}
		c.register()
		sys.clients[i] = c
	}
	return sys, nil
}

// Client returns client i's interface.
func (sys *System) Client(i int) *client { return sys.clients[i] }

// ResponseTimes returns the recorded per-read service times.
func (sys *System) ResponseTimes() []sim.Duration { return sys.resp }

// Stats returns the accumulated counters.
func (sys *System) Stats() Stats { return sys.st }

// ResetStats clears counters and response samples while leaving cache
// contents intact — the warm-up boundary of trace-driven studies.
func (sys *System) ResetStats() {
	sys.st = Stats{}
	sys.resp = nil
}

// MeanReadResponse returns the average read service time.
func (sys *System) MeanReadResponse() sim.Duration {
	if len(sys.resp) == 0 {
		return 0
	}
	var total sim.Duration
	for _, d := range sys.resp {
		total += d
	}
	return total / sim.Duration(len(sys.resp))
}
