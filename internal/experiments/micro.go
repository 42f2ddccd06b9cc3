package experiments

import (
	"errors"
	"fmt"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/proto/am"
	"github.com/nowproject/now/internal/proto/kstack"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/stats"
	"github.com/nowproject/now/internal/trace"
)

const hBench am.HandlerID = 0x20

// twoNodeRig builds two nodes with endpoints on a fabric for
// microbenchmarks.
func twoNodeRig(fcfg netsim.Config, acfg am.Config) (*sim.Engine, *am.Endpoint, *am.Endpoint, error) {
	e := sim.NewEngine(1)
	fab, err := netsim.New(e, fcfg)
	if err != nil {
		return nil, nil, nil, err
	}
	eps := am.NewFleet(fab, acfg, nil)
	return e, eps[0], eps[1], nil
}

// oneWayTime measures post-to-handler latency for one payload size.
func oneWayTime(fcfg netsim.Config, acfg am.Config, bytes int) (sim.Duration, error) {
	e, a, b, err := twoNodeRig(fcfg, acfg)
	if err != nil {
		return 0, err
	}
	defer e.Close()
	var got sim.Duration
	b.Register(hBench, func(p *sim.Proc, m am.Msg) (any, int) {
		got = p.Now() - m.Arg.(sim.Time)
		return nil, 0
	})
	e.Spawn("tx", func(p *sim.Proc) {
		_ = a.Send(p, 1, hBench, p.Now(), bytes)
		e.Stop()
	})
	if err := e.Run(); !errors.Is(err, sim.ErrStopped) {
		return 0, err
	}
	return got, nil
}

// roundTripTime measures a full Call for one payload size (small reply).
func roundTripTime(fcfg netsim.Config, acfg am.Config, bytes int) (sim.Duration, error) {
	e, a, b, err := twoNodeRig(fcfg, acfg)
	if err != nil {
		return 0, err
	}
	defer e.Close()
	b.Register(hBench, func(p *sim.Proc, m am.Msg) (any, int) { return nil, 8 })
	var rtt sim.Duration
	e.Spawn("tx", func(p *sim.Proc) {
		start := p.Now()
		_, _ = a.Call(p, 1, hBench, nil, bytes)
		rtt = p.Now() - start
		e.Stop()
	})
	if err := e.Run(); !errors.Is(err, sim.ErrStopped) {
		return 0, err
	}
	return rtt, nil
}

// transferMBps measures single-transfer bandwidth for n bytes.
func transferMBps(fcfg netsim.Config, acfg am.Config, n int) (float64, error) {
	d, err := oneWayTime(fcfg, acfg, n)
	if err != nil {
		return 0, err
	}
	if d <= 0 {
		return 0, fmt.Errorf("experiments: zero transfer time")
	}
	return float64(n) / d.Seconds() / 1e6, nil
}

// halfPower finds the message size reaching half of peak bandwidth.
func halfPower(fcfg netsim.Config, acfg am.Config) (int, error) {
	peak, err := transferMBps(fcfg, acfg, 1<<20)
	if err != nil {
		return 0, err
	}
	lo, hi := 1, 1<<20
	for lo < hi {
		mid := (lo + hi) / 2
		bw, err := transferMBps(fcfg, acfg, mid)
		if err != nil {
			return 0, err
		}
		if bw < peak/2 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// Table2Row is one cell pair of Table 2.
type Table2Row struct {
	Config   string
	Measured sim.Duration
	Paper    sim.Duration
}

// Table2 reproduces "time to service a file system cache miss from
// remote memory or disk" on Ethernet and 155 Mb/s ATM, by simulating an
// 8 KB fetch through a standard-driver protocol stack.
func Table2() (Report, []Table2Row, error) {
	// The study assumed standard network drivers: 400 µs of net
	// overhead per miss plus a 250 µs memory copy. The 400 µs covers the
	// whole request/response (four kernel crossings of ≈100 µs each).
	proto := am.Config{
		SendOverhead: 100 * sim.Microsecond,
		RecvOverhead: 100 * sim.Microsecond,
		HeaderBytes:  64,
		BufferSlots:  64,
		Window:       8,
	}
	const block = 8192
	copyCost := 250 * sim.Microsecond

	measure := func(fcfg netsim.Config, fromDisk bool) (sim.Duration, error) {
		e, a, b, err := twoNodeRig(fcfg, proto)
		if err != nil {
			return 0, err
		}
		defer e.Close()
		b.Register(hBench, func(p *sim.Proc, m am.Msg) (any, int) {
			if fromDisk {
				b.Node().Disk.Read(p, 0, block)
			}
			b.Node().CPU.ComputeSystem(p, copyCost) // copy out of cache
			return nil, block
		})
		var total sim.Duration
		e.Spawn("client", func(p *sim.Proc) {
			start := p.Now()
			_, _ = a.Call(p, 1, hBench, nil, 64)
			total = p.Now() - start
			e.Stop()
		})
		if err := e.Run(); !errors.Is(err, sim.ErrStopped) {
			return 0, err
		}
		return total, nil
	}

	cases := []struct {
		name  string
		fab   netsim.Config
		disk  bool
		paper sim.Duration
	}{
		{"Ethernet, remote memory", netsim.Ethernet10(2), false, 6900 * sim.Microsecond},
		{"Ethernet, remote disk", netsim.Ethernet10(2), true, 21700 * sim.Microsecond},
		{"155Mb/s ATM, remote memory", netsim.ATM155(2), false, 1050 * sim.Microsecond},
		{"155Mb/s ATM, remote disk", netsim.ATM155(2), true, 15850 * sim.Microsecond},
	}
	rows := make([]Table2Row, 0, len(cases))
	tbl := stats.NewTable("Table 2 — 8 KB cache-miss service time",
		"Configuration", "Paper (µs)", "Measured (µs)", "Ratio")
	for _, c := range cases {
		got, err := measure(c.fab, c.disk)
		if err != nil {
			return Report{}, nil, fmt.Errorf("table2 %s: %w", c.name, err)
		}
		rows = append(rows, Table2Row{Config: c.name, Measured: got, Paper: c.paper})
		tbl.AddRowf(c.name, c.paper.Microseconds(), got.Microseconds(),
			ratio(got.Microseconds(), c.paper.Microseconds()))
	}
	return Report{
		ID:    "T2",
		Title: "Remote memory vs remote disk miss service (Ethernet vs ATM)",
		Table: tbl,
		Notes: "standard-driver stack (400µs net overhead), 250µs memory copy, Table 2's stated components",
	}, rows, nil
}

// AMRow is one microbenchmark line of the low-overhead-communication
// study (E6). RoundTrip matters because, as the paper observes for NFS,
// metadata queries "must complete before file data can be transferred,
// so performance is directly coupled to the round-trip message time".
type AMRow struct {
	Name      string
	OneWay    sim.Duration
	RoundTrip sim.Duration
	PaperOne  sim.Duration
	HalfPower int
	PaperN12  int
}

// AMMicro reproduces the HP Medusa measurements: AM one-way time,
// sockets-over-AM vs TCP, and the half-power message sizes.
func AMMicro() (Report, []AMRow, error) {
	fddi := netsim.FDDI100(2)
	cases := []struct {
		name     string
		cfg      am.Config
		paperOne sim.Duration
		paperN12 int
	}{
		{"Active Messages (HPAM)", am.HPAMConfig(), 16 * sim.Microsecond, 175},
		{"sockets over AM", kstack.SocketsOverAM(am.HPAMConfig()), 25 * sim.Microsecond, 0},
		{"single-copy TCP", kstack.SingleCopyTCPFDDI(), 0, 760},
		{"TCP", kstack.TCPFDDI(), 240 * sim.Microsecond, 1350},
	}
	rows := make([]AMRow, 0, len(cases))
	tbl := stats.NewTable("E6 — communication layers on HP-735/FDDI hardware",
		"Layer", "One-way (µs)", "Paper (µs)", "RTT (µs)", "N1/2 (bytes)", "Paper N1/2")
	for _, c := range cases {
		one, err := oneWayTime(fddi, c.cfg, 32)
		if err != nil {
			return Report{}, nil, err
		}
		rtt, err := roundTripTime(fddi, c.cfg, 32)
		if err != nil {
			return Report{}, nil, err
		}
		n12, err := halfPower(fddi, c.cfg)
		if err != nil {
			return Report{}, nil, err
		}
		rows = append(rows, AMRow{Name: c.name, OneWay: one, RoundTrip: rtt,
			PaperOne: c.paperOne, HalfPower: n12, PaperN12: c.paperN12})
		paperOne := "-"
		if c.paperOne > 0 {
			paperOne = stats.FormatFloat(c.paperOne.Microseconds())
		}
		paperN := "-"
		if c.paperN12 > 0 {
			paperN = fmt.Sprintf("%d", c.paperN12)
		}
		tbl.AddRow(c.name, stats.FormatFloat(one.Microseconds()), paperOne,
			stats.FormatFloat(rtt.Microseconds()),
			fmt.Sprintf("%d", n12), paperN)
	}
	// The NOW 10µs target on the demonstration fabric.
	one, err := oneWayTime(netsim.Myrinet(2), am.DefaultConfig(), 16)
	if err != nil {
		return Report{}, nil, err
	}
	tbl.AddRow("NOW target (Myrinet-class)", stats.FormatFloat(one.Microseconds()), "10", "-", "-", "-")
	return Report{
		ID:    "E6",
		Title: "Active Messages microbenchmarks and half-power points",
		Table: tbl,
		Notes: "paper one-way figures: 8µs/side AM overhead + 8µs latency; sockets ≈25µs; TCP ≈10× worse",
	}, rows, nil
}

// NFSResult is the E5 study outcome.
type NFSResult struct {
	SmallFraction   float64 // messages under 200 bytes
	EthernetTotal   sim.Duration
	ATMTotal        sim.Duration
	Improvement     float64 // 1 - ATM/Ethernet
	BandwidthFactor float64
}

// NFSStudy reproduces the one-week NFS trace analysis: 95% of messages
// are small metadata, so an 8× bandwidth upgrade (Ethernet→ATM with TCP)
// improves total transfer time only ≈20%.
func NFSStudy() (Report, NFSResult, error) {
	ops := trace.GenerateNFS(trace.DefaultNFSTraceConfig())
	var sizes stats.Sample
	for _, op := range ops {
		sizes.Add(float64(op.RequestBytes))
		sizes.Add(float64(op.ReplyBytes))
	}

	// Per-message time under a stack: overhead + copies + wire + latency.
	perMsg := func(fcfg netsim.Config, scfg am.Config, payload int) sim.Duration {
		wire := sim.PerByte(int64(payload+scfg.HeaderBytes), sim.Bandwidth(fcfg.BandwidthMbps)) +
			fcfg.PerPacketWire
		return scfg.SendOverhead + scfg.RecvOverhead +
			sim.Duration(payload)*(scfg.SendPerByte+scfg.RecvPerByte) +
			wire + fcfg.Latency
	}
	total := func(fcfg netsim.Config, scfg am.Config) sim.Duration {
		var t sim.Duration
		for _, op := range ops {
			t += perMsg(fcfg, scfg, op.RequestBytes) + perMsg(fcfg, scfg, op.ReplyBytes)
		}
		return t
	}
	eth := total(netsim.Ethernet10(2), kstack.TCPEthernet())
	atm := total(netsim.ATM155(2), kstack.TCPATM())
	res := NFSResult{
		SmallFraction:   sizes.FractionBelow(200),
		EthernetTotal:   eth,
		ATMTotal:        atm,
		Improvement:     1 - float64(atm)/float64(eth),
		BandwidthFactor: 78.0 / 9.0,
	}
	tbl := stats.NewTable("E5 — departmental NFS traffic under a bandwidth upgrade",
		"Metric", "Paper", "Measured")
	tbl.AddRow("messages under 200 B", "95%", fmt.Sprintf("%.1f%%", res.SmallFraction*100))
	tbl.AddRow("bandwidth factor (TCP peak)", "8.7x", fmt.Sprintf("%.1fx", res.BandwidthFactor))
	tbl.AddRow("total-time improvement", "≈20%", fmt.Sprintf("%.1f%%", res.Improvement*100))
	return Report{
		ID:    "E5",
		Title: "NFS message sizes: bandwidth alone buys little",
		Table: tbl,
		Notes: "per-message coefficients from the measured SS-10 TCP stacks (456µs Ethernet, 626µs ATM)",
	}, res, nil
}
