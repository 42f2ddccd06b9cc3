package experiments

import (
	"errors"
	"fmt"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/proto/am"
	"github.com/nowproject/now/internal/proto/collective"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/stats"
)

// ScaleConfig parameterises the SC1 collective scale study.
type ScaleConfig struct {
	// Sizes are the cluster sizes to sweep.
	Sizes []int
	// Arity is the collective tree fan-out.
	Arity int
	// Barriers is how many back-to-back barriers each size runs; the
	// reported latency is the makespan divided by this count.
	Barriers int
	// BlockBytes is the all-to-all per-pair block size.
	BlockBytes int
	// A2AMaxNodes caps the all-to-all sweep: the exchange is quadratic
	// in messages (1,024 nodes would be ~1M), and the scaling shape is
	// established well before that.
	A2AMaxNodes int
}

// DefaultScaleConfig sweeps 32→1,024 nodes, the paper's ~100-node
// building block pushed an order of magnitude past it.
func DefaultScaleConfig() ScaleConfig {
	return ScaleConfig{
		Sizes:       []int{32, 64, 128, 256, 512, 1024},
		Arity:       4,
		Barriers:    4,
		BlockBytes:  1024,
		A2AMaxNodes: 128,
	}
}

// ScaleRow is one cluster size of the SC1 study.
type ScaleRow struct {
	Nodes          int
	BarrierUs      float64 // measured barrier latency
	BarrierPredUs  float64 // LogP-style prediction
	AllToAllUs     float64 // measured exchange latency (0 above the cap)
	AllToAllPredUs float64
	MaxLinkUtil    float64 // peak per-link tx utilization over the run
	MeanLinkUtil   float64
	Overflows      int64 // AM receive-buffer overflows (must stay 0)
}

// ScaleCollectives is experiment SC1: barrier and all-to-all latency
// as the cluster grows from 32 to 1,024 nodes on a Myrinet-class
// switched fabric, next to closed-form LogP-style predictions. The
// paper argues a NOW scales past an MPP's building block; the
// interesting output is the *shape* — barrier tracking tree depth
// (log_k n) and all-to-all tracking n — and per-link utilization
// staying bounded, which is what a switched fabric buys over a shared
// medium.
func ScaleCollectives(cfg ScaleConfig) (Report, []ScaleRow, error) {
	if cfg.Arity <= 0 {
		cfg.Arity = 4
	}
	if cfg.Barriers <= 0 {
		cfg.Barriers = 4
	}
	if cfg.BlockBytes <= 0 {
		cfg.BlockBytes = 1024
	}
	acfg := am.DefaultConfig()
	rows := make([]ScaleRow, 0, len(cfg.Sizes))
	regs := make(map[string]*obs.Registry, len(cfg.Sizes))
	for _, n := range cfg.Sizes {
		row, reg, err := scaleOne(n, cfg, acfg)
		if err != nil {
			return Report{}, nil, fmt.Errorf("sc1 n=%d: %w", n, err)
		}
		rows = append(rows, row)
		regs[fmt.Sprintf("n%04d", n)] = reg
	}
	table := stats.NewTable("SC1: collectives at scale (Myrinet-class fabric)",
		"nodes", "barrier µs", "LogP µs", "ratio", "all-to-all µs", "LogP µs", "max link util %", "overflows")
	for _, r := range rows {
		a2a, a2aPred := "-", "-"
		if r.AllToAllUs > 0 {
			a2a = fmt.Sprintf("%.1f", r.AllToAllUs)
			a2aPred = fmt.Sprintf("%.1f", r.AllToAllPredUs)
		}
		table.AddRow(
			fmt.Sprintf("%d", r.Nodes),
			fmt.Sprintf("%.1f", r.BarrierUs),
			fmt.Sprintf("%.1f", r.BarrierPredUs),
			fmt.Sprintf("%.2f", ratio(r.BarrierUs, r.BarrierPredUs)),
			a2a, a2aPred,
			fmt.Sprintf("%.2f", r.MaxLinkUtil*100),
			fmt.Sprintf("%d", r.Overflows),
		)
	}
	return Report{
		ID:    "SC1",
		Title: "Collective operations 32→1,024 nodes vs LogP-style prediction",
		Table: table,
		Notes: fmt.Sprintf("%d-ary trees, %d-byte all-to-all blocks (capped at %d nodes), barrier latency averaged over %d back-to-back barriers",
			cfg.Arity, cfg.BlockBytes, cfg.A2AMaxNodes, cfg.Barriers),
		Obs: regs,
	}, rows, nil
}

// scaleOne runs one cluster size and returns its row and registry.
func scaleOne(n int, cfg ScaleConfig, acfg am.Config) (ScaleRow, *obs.Registry, error) {
	e := sim.NewEngine(1)
	defer e.Close()
	reg := obs.NewRegistry()
	e.Observe(reg)
	fcfg := netsim.Myrinet(n)
	fab, err := netsim.New(e, fcfg)
	if err != nil {
		return ScaleRow{}, nil, err
	}
	fab.Instrument(reg)
	eps := am.NewFleet(fab, acfg, nil)
	comm, err := collective.New(e, eps, collective.Config{Arity: cfg.Arity})
	if err != nil {
		return ScaleRow{}, nil, err
	}
	comm.Instrument(reg)

	doA2A := n <= cfg.A2AMaxNodes
	var procErr error
	var barrierEnd, a2aStart, a2aEnd sim.Time
	a2aStart = sim.MaxTime
	wg := sim.NewWaitGroup(e, "sc1")
	wg.Add(n)
	for r := 0; r < n; r++ {
		r := r
		e.Spawn("rank", func(p *sim.Proc) {
			defer wg.Done()
			for i := 0; i < cfg.Barriers; i++ {
				if err := comm.Barrier(p, r); err != nil {
					procErr = err
					return
				}
			}
			if p.Now() > barrierEnd {
				barrierEnd = p.Now()
			}
			if !doA2A {
				return
			}
			if p.Now() < a2aStart {
				a2aStart = p.Now()
			}
			if err := comm.AllToAll(p, r, cfg.BlockBytes); err != nil {
				procErr = err
				return
			}
			if p.Now() > a2aEnd {
				a2aEnd = p.Now()
			}
		})
	}
	row := ScaleRow{Nodes: n}
	// The monitor snapshots utilization at the moment the workload
	// finishes and stops the run there: letting the engine drain the
	// cancelled protocol timers would advance the clock past the work
	// and dilute every time-averaged figure.
	e.Spawn("monitor", func(p *sim.Proc) {
		wg.Wait(p)
		var sum, max float64
		for i := 0; i < n; i++ {
			u := fab.TxLinkUtilization(netsim.NodeID(i))
			sum += u
			if u > max {
				max = u
			}
		}
		row.MaxLinkUtil = max
		row.MeanLinkUtil = sum / float64(n)
		for _, ep := range eps {
			row.Overflows += ep.Stats().Overflows
		}
		e.Stop()
	})
	if err := e.Run(); err != nil && !errors.Is(err, sim.ErrStopped) {
		return ScaleRow{}, nil, err
	}
	if procErr != nil {
		return ScaleRow{}, nil, procErr
	}
	row.BarrierUs = float64(barrierEnd) / float64(cfg.Barriers) / 1e3
	row.BarrierPredUs = float64(collective.PredictBarrier(acfg, fcfg, n, cfg.Arity)) / 1e3
	if doA2A {
		row.AllToAllUs = float64(a2aEnd-a2aStart) / 1e3
		row.AllToAllPredUs = float64(collective.PredictAllToAll(acfg, fcfg, n, cfg.BlockBytes)) / 1e3
	}
	return row, reg, nil
}
