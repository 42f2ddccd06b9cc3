package experiments

import (
	"errors"
	"fmt"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/proto/am"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/stats"
	"github.com/nowproject/now/internal/swraid"
)

// RAIDRow is one E10 measurement.
type RAIDRow struct {
	Disks          int
	Level          swraid.Level
	ReadMBps       float64
	DegradedMBps   float64
	OneDiskMBps    float64
	ScalingPercent float64
}

// SWRAID measures striped read bandwidth against the number of
// workstation disks, and the degraded-mode penalty after a crash —
// the paper's "disk bandwidth limited only by the network link" and
// "any other workstation can take its place" claims.
func SWRAID() (Report, []RAIDRow, error) {
	const chunk = 64 << 10
	const chunks = 64 // 4 MB per measurement

	measure := func(disks int, level swraid.Level, kill bool) (float64, error) {
		e := sim.NewEngine(1)
		defer e.Close()
		fab, err := netsim.New(e, netsim.ATM155(disks+1))
		if err != nil {
			return 0, err
		}
		eps := am.NewFleet(fab, am.DefaultConfig(), nil)
		ids := make([]netsim.NodeID, 0, disks)
		for _, ep := range eps[1:] {
			swraid.NewStore(ep)
			ids = append(ids, ep.ID())
		}
		arr, err := swraid.NewArray(eps[0], swraid.Config{Level: level, ChunkBytes: chunk, Stores: ids})
		if err != nil {
			return 0, err
		}
		var mbps float64
		e.Spawn("bench", func(p *sim.Proc) {
			data := make([]byte, chunk)
			for i := int64(0); i < chunks; i++ {
				if err := arr.WriteChunks(p, i, data); err != nil {
					p.Fail(err)
				}
			}
			if kill {
				eps[1].Detach()
				arr.MarkFailed(eps[1].ID())
			}
			start := p.Now()
			if _, err := arr.ReadChunks(p, 0, chunks); err != nil {
				p.Fail(err)
			}
			elapsed := p.Now() - start
			mbps = float64(chunks*chunk) / elapsed.Seconds() / 1e6
			e.Stop()
		})
		if err := e.Run(); !errors.Is(err, sim.ErrStopped) {
			return 0, err
		}
		return mbps, nil
	}

	one, err := measure(1, swraid.RAID0, false)
	if err != nil {
		return Report{}, nil, fmt.Errorf("swraid 1 disk: %w", err)
	}
	var rows []RAIDRow
	tbl := stats.NewTable("E10 — software RAID across workstation disks (ATM fabric)",
		"Disks", "RAID-0 read (MB/s)", "Speedup vs 1 disk", "RAID-5 read (MB/s)", "RAID-5 degraded (MB/s)")
	for _, disks := range []int{2, 4, 8, 16} {
		r0, err := measure(disks, swraid.RAID0, false)
		if err != nil {
			return Report{}, nil, err
		}
		r5, err := measure(disks+1, swraid.RAID5, false) // same data disks
		if err != nil {
			return Report{}, nil, err
		}
		r5deg, err := measure(disks+1, swraid.RAID5, true)
		if err != nil {
			return Report{}, nil, err
		}
		rows = append(rows, RAIDRow{
			Disks: disks, Level: swraid.RAID0,
			ReadMBps: r0, DegradedMBps: r5deg, OneDiskMBps: one,
			ScalingPercent: r0 / (one * float64(disks)) * 100,
		})
		tbl.AddRow(fmt.Sprintf("%d", disks),
			stats.FormatFloat(r0), fmt.Sprintf("%.1fx", r0/one),
			stats.FormatFloat(r5), stats.FormatFloat(r5deg))
	}
	return Report{
		ID:    "E10",
		Title: "Striped workstation disks scale; parity survives a crash",
		Table: tbl,
		Notes: "paper: striping makes disk bandwidth network-limited; no central RAID host to fail",
	}, rows, nil
}
