package gator

import (
	"errors"
	"fmt"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/proto/am"
	"github.com/nowproject/now/internal/sim"
)

// AM handlers (gator owns 0x80–0x8F).
const (
	hBoundary am.HandlerID = 0x80 + iota
	hInputChunk
)

// MiniConfig is a scaled-down Gator that actually executes on the
// simulated NOW — real endpoints, real disks — rather than the analytic
// model. It exists so the example and the integration tests can watch
// the same three phases the model predicts.
type MiniConfig struct {
	Nodes      int
	Timesteps  int
	FLOP       float64 // total ODE work
	InputBytes int64
	// BoundaryBytes exchanged with each neighbour per timestep.
	BoundaryBytes int
	// ParallelFS streams input from every node's disk instead of one.
	ParallelFS bool
	// Fabric and Proto choose the communication substrate.
	Fabric func(nodes int) netsim.Config
	Proto  am.Config
}

// DefaultMiniConfig is a laptop-scale instance (× ≈1000 smaller than
// the paper run).
func DefaultMiniConfig(nodes int) MiniConfig {
	return MiniConfig{
		Nodes:         nodes,
		Timesteps:     20,
		FLOP:          36e6 * float64(nodes),
		InputBytes:    int64(nodes) * 4 << 20,
		BoundaryBytes: 16 << 10,
		ParallelFS:    true,
		Fabric:        netsim.ATM155,
		Proto:         am.DefaultConfig(),
	}
}

// MiniResult reports the measured phases.
type MiniResult struct {
	Input     sim.Duration
	Compute   sim.Duration // ODE + transport interleaved per timestep
	Total     sim.Duration
	Exchanges int64
}

// RunMini executes the mini tracer and measures its phases.
func RunMini(e *sim.Engine, cfg MiniConfig) (MiniResult, error) {
	if cfg.Nodes < 2 {
		return MiniResult{}, fmt.Errorf("gator: need ≥2 nodes, have %d", cfg.Nodes)
	}
	if cfg.Fabric == nil {
		cfg.Fabric = netsim.ATM155
	}
	fab, err := netsim.New(e, cfg.Fabric(cfg.Nodes))
	if err != nil {
		return MiniResult{}, fmt.Errorf("gator: %w", err)
	}
	eps := am.NewFleet(fab, cfg.Proto, nil)
	recvd := make([]int, cfg.Nodes)
	arrived := make([]*sim.Signal, cfg.Nodes)
	for i := range eps {
		rank := i
		arrived[i] = sim.NewSignal(e, fmt.Sprintf("gator/arr%d", i))
		eps[i].Register(hBoundary, func(p *sim.Proc, m am.Msg) (any, int) {
			recvd[rank]++
			arrived[rank].Broadcast()
			return nil, 0
		})
		eps[i].Register(hInputChunk, func(p *sim.Proc, m am.Msg) (any, int) { return nil, 0 })
	}

	var res MiniResult
	wg := sim.NewWaitGroup(e, "gator/ranks")
	wg.Add(cfg.Nodes)
	var inputDone sim.Time

	// Input phase: sequential FS reads everything on node 0 and scatters;
	// parallel FS reads a slice on every node's own disk.
	inputBarrier := sim.NewWaitGroup(e, "gator/input")
	inputBarrier.Add(cfg.Nodes)
	perNode := cfg.InputBytes / int64(cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		rank := i
		e.Spawn(fmt.Sprintf("gator/rank%d", rank), func(p *sim.Proc) {
			defer wg.Done()
			nd := eps[rank].Node()
			if cfg.ParallelFS {
				nd.Disk.ReadSeq(p, 0, int(perNode))
			} else if rank == 0 {
				// One node reads everything and scatters slices.
				const chunk = 256 << 10
				for dst := 0; dst < cfg.Nodes; dst++ {
					for off := int64(0); off < perNode; off += chunk {
						sz := int64(chunk)
						if perNode-off < sz {
							sz = perNode - off
						}
						nd.Disk.ReadSeq(p, int64(dst)*perNode+off, int(sz))
						if dst != 0 {
							eps[0].SendAsync(p, netsim.NodeID(dst), hInputChunk, nil, int(sz))
						}
					}
				}
				eps[0].Flush(p)
			}
			inputBarrier.Done()
			inputBarrier.Wait(p)
			if rank == 0 {
				inputDone = p.Now()
			}

			// Timestep loop: boundary exchange, then ODE relaxation.
			flopPerStep := cfg.FLOP / float64(cfg.Nodes) / float64(cfg.Timesteps)
			for step := 0; step < cfg.Timesteps; step++ {
				left := netsim.NodeID((rank + cfg.Nodes - 1) % cfg.Nodes)
				right := netsim.NodeID((rank + 1) % cfg.Nodes)
				eps[rank].SendAsync(p, left, hBoundary, nil, cfg.BoundaryBytes)
				eps[rank].SendAsync(p, right, hBoundary, nil, cfg.BoundaryBytes)
				res.Exchanges += 2
				want := 2 * (step + 1)
				for recvd[rank] < want {
					arrived[rank].Wait(p)
				}
				nd.CPU.Compute(p, nd.FlopTime(flopPerStep))
			}
			eps[rank].Flush(p)
		})
	}
	done := false
	e.Spawn("gator/join", func(p *sim.Proc) {
		wg.Wait(p)
		done = true
		e.Stop()
	})
	if err := e.RunUntil(100 * sim.Hour); err != nil && !errors.Is(err, sim.ErrStopped) {
		return res, fmt.Errorf("gator: mini run: %w", err)
	}
	if !done {
		return res, errors.New("gator: mini run did not finish")
	}
	res.Total = sim.Duration(e.Now())
	res.Input = sim.Duration(inputDone)
	res.Compute = res.Total - res.Input
	return res, nil
}
