package kstack

import (
	"errors"
	"testing"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/proto/am"
	"github.com/nowproject/now/internal/sim"
)

const hSink am.HandlerID = 1

// oneWay measures the time from posting a message to its handler
// starting, for a given payload size, stack config and fabric.
func oneWay(t *testing.T, fcfg netsim.Config, scfg am.Config, bytes int) sim.Duration {
	t.Helper()
	e := sim.NewEngine(1)
	fab, err := netsim.New(e, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	eps := am.NewFleet(fab, scfg, nil)
	a, b := eps[0], eps[1]
	var got sim.Duration
	b.Register(hSink, func(p *sim.Proc, m am.Msg) (any, int) {
		got = p.Now() - m.Arg.(sim.Time)
		return nil, 0
	})
	e.Spawn("tx", func(p *sim.Proc) {
		_ = a.Send(p, 1, hSink, p.Now(), bytes)
		e.Stop()
	})
	if err := e.Run(); !errors.Is(err, sim.ErrStopped) {
		t.Fatal(err)
	}
	return got
}

func TestTCPEthernetSmallMessageTime(t *testing.T) {
	// Paper: 456 µs overhead + latency for a single small message.
	got := oneWay(t, netsim.Ethernet10(2), TCPEthernet(), 64)
	if got < 400*sim.Microsecond || got > 520*sim.Microsecond {
		t.Fatalf("TCP/Ethernet small message = %v, want ≈456µs", got)
	}
}

func TestTCPATMSmallMessageSlowerDespiteBandwidth(t *testing.T) {
	// The paper's punchline: ATM raises bandwidth 8× but the
	// small-message time *increases* (456 µs → 626 µs).
	eth := oneWay(t, netsim.Ethernet10(2), TCPEthernet(), 64)
	atm := oneWay(t, netsim.ATM155(2), TCPATM(), 64)
	if atm <= eth {
		t.Fatalf("ATM small message %v should be slower than Ethernet %v", atm, eth)
	}
	if atm < 560*sim.Microsecond || atm > 700*sim.Microsecond {
		t.Fatalf("TCP/ATM small message = %v, want ≈626µs", atm)
	}
}

// throughput measures single-transfer bandwidth in MB/s for n bytes.
func throughput(t *testing.T, fcfg netsim.Config, scfg am.Config, n int) float64 {
	d := oneWay(t, fcfg, scfg, n)
	if d <= 0 {
		t.Fatalf("non-positive transfer time for %d bytes", n)
	}
	return float64(n) / d.Seconds() / 1e6
}

func TestTCPEthernetPeakBandwidth(t *testing.T) {
	// Paper: 9 Mb/s through TCP on 10 Mb/s Ethernet.
	mbps := throughput(t, netsim.Ethernet10(2), TCPEthernet(), 512*1024) * 8
	if mbps < 7.5 || mbps > 10 {
		t.Fatalf("TCP/Ethernet peak = %.1f Mb/s, want ≈9", mbps)
	}
}

func TestTCPATMPeakBandwidth(t *testing.T) {
	// Paper: 78 Mb/s through TCP on 155 Mb/s ATM (software-limited).
	mbps := throughput(t, netsim.ATM155(2), TCPATM(), 512*1024) * 8
	if mbps < 60 || mbps > 90 {
		t.Fatalf("TCP/ATM peak = %.1f Mb/s, want ≈78", mbps)
	}
}

// halfPower finds the payload size at which single-transfer bandwidth
// reaches half its large-message value.
func halfPower(t *testing.T, fcfg netsim.Config, scfg am.Config) int {
	t.Helper()
	peak := throughput(t, fcfg, scfg, 1<<20)
	lo, hi := 1, 1<<20
	for lo < hi {
		mid := (lo + hi) / 2
		if throughput(t, fcfg, scfg, mid) < peak/2 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func TestHalfPowerPointOrdering(t *testing.T) {
	// Paper (HP 735 / FDDI): AM reaches half of peak at ≈175 B, vs 760 B
	// for single-copy TCP and 1,350 B for standard TCP. We require the
	// ordering and rough magnitudes.
	fddi := netsim.FDDI100(2)
	amN := halfPower(t, fddi, am.HPAMConfig())
	scN := halfPower(t, fddi, SingleCopyTCPFDDI())
	tcpN := halfPower(t, fddi, TCPFDDI())
	if !(amN < scN && scN < tcpN) {
		t.Fatalf("half-power ordering violated: AM=%d 1-copy=%d TCP=%d", amN, scN, tcpN)
	}
	if amN > 500 {
		t.Fatalf("AM half-power = %d B, want a few hundred bytes", amN)
	}
	if tcpN < 900 || tcpN > 2500 {
		t.Fatalf("TCP half-power = %d B, want ≈1350", tcpN)
	}
	if scN < 450 || scN > 1200 {
		t.Fatalf("single-copy half-power = %d B, want ≈760", scN)
	}
}

func TestSocketsOverAMAnOrderFasterThanTCP(t *testing.T) {
	fddi := netsim.FDDI100(2)
	sock := oneWay(t, fddi, SocketsOverAM(am.HPAMConfig()), 64)
	tcp := oneWay(t, fddi, TCPFDDI(), 64)
	if sock < 20*sim.Microsecond || sock > 35*sim.Microsecond {
		t.Fatalf("sockets-over-AM one-way = %v, want ≈25µs", sock)
	}
	if ratio := float64(tcp) / float64(sock); ratio < 6 {
		t.Fatalf("TCP/sockets-over-AM ratio = %.1f, want ≈10×", ratio)
	}
}

func TestPVMCostsExceedTCP(t *testing.T) {
	pvm := PVMEthernet()
	tcp := TCPEthernet()
	if pvm.SendOverhead <= tcp.SendOverhead || pvm.SendPerByte <= tcp.SendPerByte {
		t.Fatal("PVM should cost more than raw TCP")
	}
}
