package am

import (
	"errors"
	"testing"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/node"
	"github.com/nowproject/now/internal/sim"
)

// testNet builds a fleet of AM endpoints on the given fabric config.
func testNet(t testing.TB, e *sim.Engine, fcfg netsim.Config, acfg Config) (*netsim.Fabric, []*Endpoint) {
	t.Helper()
	fab, err := netsim.New(e, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	return fab, NewFleet(fab, acfg, nil)
}

const (
	hEcho HandlerID = iota + 1
	hCount
	hNested
)

func TestCallRoundTrip(t *testing.T) {
	e := sim.NewEngine(1)
	_, eps := testNet(t, e, netsim.Myrinet(2), DefaultConfig())
	eps[1].Register(hEcho, func(p *sim.Proc, m Msg) (any, int) {
		return m.Arg.(int) * 2, 8
	})
	var got any
	var err error
	e.Spawn("caller", func(p *sim.Proc) {
		got, err = eps[0].Call(p, 1, hEcho, 21, 8)
		e.Stop()
	})
	if runErr := e.Run(); !errors.Is(runErr, sim.ErrStopped) {
		t.Fatal(runErr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got %v", got)
	}
}

func TestSmallMessageMeetsNOWTarget(t *testing.T) {
	// The paper's goal: user-to-user small message in ≈10 µs. One-way
	// time = send overhead + wire + latency + recv overhead.
	e := sim.NewEngine(1)
	_, eps := testNet(t, e, netsim.Myrinet(2), DefaultConfig())
	var oneWay sim.Duration
	eps[1].Register(hEcho, func(p *sim.Proc, m Msg) (any, int) {
		oneWay = p.Now() - m.Arg.(sim.Time)
		return nil, 0
	})
	e.Spawn("caller", func(p *sim.Proc) {
		_, _ = eps[0].Call(p, 1, hEcho, p.Now(), 16)
		e.Stop()
	})
	if err := e.Run(); !errors.Is(err, sim.ErrStopped) {
		t.Fatal(err)
	}
	// One-way includes handler-side recv overhead charged before the
	// handler runs: 3+wire(48B)+5+3 ≈ 11.6µs.
	if oneWay <= 0 || oneWay > 15*sim.Microsecond {
		t.Fatalf("one-way small message = %v, want ≈10µs", oneWay)
	}
}

func TestRetryRecoversFromLoss(t *testing.T) {
	e := sim.NewEngine(3)
	fcfg := netsim.Myrinet(2)
	fcfg.LossProb = 0.25
	_, eps := testNet(t, e, fcfg, DefaultConfig())
	handled := 0
	eps[1].Register(hCount, func(p *sim.Proc, m Msg) (any, int) {
		handled++
		return handled, 4
	})
	ok := 0
	e.Spawn("caller", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			if _, err := eps[0].Call(p, 1, hCount, i, 4); err == nil {
				ok++
			}
		}
		e.Stop()
	})
	if err := e.Run(); !errors.Is(err, sim.ErrStopped) {
		t.Fatal(err)
	}
	if ok != 200 {
		t.Fatalf("ok = %d/200 with 25%% loss", ok)
	}
	if eps[0].Stats().Retries == 0 {
		t.Fatal("no retries recorded despite loss")
	}
	// Exactly-once: handler ran once per distinct request.
	if handled != 200 {
		t.Fatalf("handler executed %d times, want 200 (dedup failed)", handled)
	}
}

func TestDuplicateSuppressionReusesCachedReply(t *testing.T) {
	// Force duplicate delivery: drop only replies is hard to arrange via
	// random loss, so use heavy loss and verify handler executions equal
	// successful distinct requests while duplicates were seen.
	e := sim.NewEngine(11)
	fcfg := netsim.Myrinet(2)
	fcfg.LossProb = 0.4
	_, eps := testNet(t, e, fcfg, DefaultConfig())
	executions := 0
	eps[1].Register(hCount, func(p *sim.Proc, m Msg) (any, int) {
		executions++
		return executions, 4
	})
	e.Spawn("caller", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			_, _ = eps[0].Call(p, 1, hCount, i, 4)
		}
		e.Stop()
	})
	if err := e.Run(); !errors.Is(err, sim.ErrStopped) {
		t.Fatal(err)
	}
	st := eps[1].Stats()
	if st.Duplicates == 0 {
		t.Skip("randomness produced no duplicates; seed-dependent")
	}
	if executions != int(st.Handled) {
		t.Fatalf("executions %d != handled %d", executions, st.Handled)
	}
	if executions > 300 {
		t.Fatalf("handler executed %d times for 300 requests", executions)
	}
}

func TestCallToDetachedNodeTimesOut(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.RetryTimeout = 100 * sim.Microsecond
	cfg.MaxRetries = 3
	_, eps := testNet(t, e, netsim.Myrinet(2), cfg)
	eps[1].Detach()
	var err error
	e.Spawn("caller", func(p *sim.Proc) {
		_, err = eps[0].Call(p, 1, hEcho, 1, 4)
		e.Stop()
	})
	if runErr := e.Run(); !errors.Is(runErr, sim.ErrStopped) {
		t.Fatal(runErr)
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if eps[0].Stats().Failures != 1 {
		t.Fatalf("failures = %d", eps[0].Stats().Failures)
	}
}

func TestSendAsyncWindowLimitsOutstanding(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.Window = 4
	_, eps := testNet(t, e, netsim.Myrinet(2), cfg)
	received := 0
	eps[1].Register(hCount, func(p *sim.Proc, m Msg) (any, int) {
		// Slow receiver: each message costs real CPU, so processing
		// serialises on the node and backpressure builds.
		eps[1].Node().CPU.Compute(p, 50*sim.Microsecond)
		received++
		return nil, 0
	})
	var postedAll sim.Time
	e.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 12; i++ {
			eps[0].SendAsync(p, 1, hCount, i, 16)
		}
		postedAll = p.Now()
		eps[0].Flush(p)
		e.Stop()
	})
	if err := e.Run(); !errors.Is(err, sim.ErrStopped) {
		t.Fatal(err)
	}
	if received != 12 {
		t.Fatalf("received = %d", received)
	}
	// With window 4 and a 50µs/msg receiver, posting 12 must have
	// blocked: postedAll well beyond 12 bare send overheads (36µs).
	if postedAll < 300*sim.Microsecond {
		t.Fatalf("postedAll = %v; window did not apply backpressure", postedAll)
	}
}

func TestBufferOverflowDropsAndRetryRecovers(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.BufferSlots = 2
	cfg.Window = 32
	cfg.RecvOverhead = 20 * sim.Microsecond // slow protocol processing: arrivals outpace the drain
	cfg.RetryTimeout = 200 * sim.Microsecond
	cfg.MaxRetries = 50
	_, eps := testNet(t, e, netsim.Myrinet(2), cfg)
	received := 0
	eps[1].Register(hCount, func(p *sim.Proc, m Msg) (any, int) {
		eps[1].Node().CPU.Compute(p, 30*sim.Microsecond) // slow drain
		received++
		return nil, 0
	})
	e.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			eps[0].SendAsync(p, 1, hCount, i, 16)
		}
		eps[0].Flush(p)
		e.Stop()
	})
	if err := e.Run(); !errors.Is(err, sim.ErrStopped) {
		t.Fatal(err)
	}
	if received != 20 {
		t.Fatalf("received = %d", received)
	}
	if eps[1].Stats().Overflows == 0 {
		t.Fatal("expected receive-buffer overflows with 2 slots")
	}
}

func TestNestedCallFromHandler(t *testing.T) {
	// A handler on node 1 calls node 2 before replying — the pattern the
	// cooperative cache and xFS manager use constantly.
	e := sim.NewEngine(1)
	_, eps := testNet(t, e, netsim.Myrinet(3), DefaultConfig())
	eps[2].Register(hEcho, func(p *sim.Proc, m Msg) (any, int) {
		return m.Arg.(int) + 100, 4
	})
	eps[1].Register(hNested, func(p *sim.Proc, m Msg) (any, int) {
		v, err := eps[1].Call(p, 2, hEcho, m.Arg, 4)
		if err != nil {
			return nil, 0
		}
		return v.(int) + 1, 4
	})
	var got any
	e.Spawn("caller", func(p *sim.Proc) {
		got, _ = eps[0].Call(p, 1, hNested, 5, 4)
		e.Stop()
	})
	if err := e.Run(); !errors.Is(err, sim.ErrStopped) {
		t.Fatal(err)
	}
	if got != 106 {
		t.Fatalf("got %v, want 106", got)
	}
}

func TestUnregisteredHandlerActsAsAck(t *testing.T) {
	e := sim.NewEngine(1)
	_, eps := testNet(t, e, netsim.Myrinet(2), DefaultConfig())
	var err error
	e.Spawn("caller", func(p *sim.Proc) {
		err = eps[0].Send(p, 1, HandlerID(99), nil, 4)
		e.Stop()
	})
	if runErr := e.Run(); !errors.Is(runErr, sim.ErrStopped) {
		t.Fatal(runErr)
	}
	if err != nil {
		t.Fatalf("send to unregistered handler: %v", err)
	}
}

func TestOverheadChargedToCPU(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := HPAMConfig()
	_, eps := testNet(t, e, netsim.FDDI100(2), cfg)
	eps[1].Register(hEcho, func(p *sim.Proc, m Msg) (any, int) { return nil, 0 })
	e.Spawn("caller", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			_, _ = eps[0].Call(p, 1, hEcho, i, 16)
		}
		e.Stop()
	})
	if err := e.Run(); !errors.Is(err, sim.ErrStopped) {
		t.Fatal(err)
	}
	// Sender CPU: 10 requests × 8µs send + 10 replies received × 8µs recv.
	sendCPU := eps[0].Node().CPU.BusyTime()
	if sendCPU < 160*sim.Microsecond {
		t.Fatalf("sender CPU busy = %v, want ≥160µs", sendCPU)
	}
	// Receiver CPU: 10 × (8µs recv + 8µs reply send).
	recvCPU := eps[1].Node().CPU.BusyTime()
	if recvCPU < 160*sim.Microsecond {
		t.Fatalf("receiver CPU busy = %v, want ≥160µs", recvCPU)
	}
}

func TestConfigNormalisation(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Close()
	fab, err := netsim.New(e, netsim.Myrinet(1))
	if err != nil {
		t.Fatal(err)
	}
	nd := node.New(e, node.DefaultConfig(0))
	ep := NewEndpoint(e, nd, fab, Config{})
	cfg := ep.Config()
	if cfg.BufferSlots <= 0 || cfg.Window <= 0 || cfg.RetryTimeout <= 0 || cfg.MaxRetries <= 0 {
		t.Fatalf("config not normalised: %+v", cfg)
	}
	if ep.ID() != 0 {
		t.Fatalf("ID = %d", ep.ID())
	}
}

func TestPresetConfigs(t *testing.T) {
	if c := HPAMConfig(); c.SendOverhead != 8*sim.Microsecond {
		t.Fatalf("HPAM = %+v", c)
	}
	if c := CM5Config(); c.RecvOverhead != 1700*sim.Nanosecond {
		t.Fatalf("CM5 = %+v", c)
	}
	if c := DefaultConfig(); c.SendOverhead != 3*sim.Microsecond {
		t.Fatalf("Default = %+v", c)
	}
}
