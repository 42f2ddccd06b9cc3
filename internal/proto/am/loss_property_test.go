package am

import (
	"errors"
	"testing"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/sim"
)

// TestExactlyOnceUnderLossProperty: across seeds and loss rates, every
// Call eventually succeeds, the handler runs exactly once per distinct
// request, and replies match — the reliability contract the rest of the
// system is built on.
func TestExactlyOnceUnderLossProperty(t *testing.T) {
	for _, loss := range []float64{0.05, 0.2, 0.4} {
		for seed := int64(1); seed <= 4; seed++ {
			loss, seed := loss, seed
			t.Run("", func(t *testing.T) {
				e := sim.NewEngine(seed)
				fcfg := netsim.Myrinet(2)
				fcfg.LossProb = loss
				cfg := DefaultConfig()
				cfg.MaxRetries = 30
				_, eps := testNet(t, e, fcfg, cfg)
				a, b := eps[0], eps[1]
				executions := map[int]int{}
				b.Register(hEcho, func(p *sim.Proc, m Msg) (any, int) {
					i := m.Arg.(int)
					executions[i]++
					return i * 3, 8
				})
				const calls = 150
				ok := 0
				e.Spawn("caller", func(p *sim.Proc) {
					for i := 0; i < calls; i++ {
						got, err := a.Call(p, 1, hEcho, i, 16)
						if err == nil {
							if got != i*3 {
								t.Errorf("call %d: got %v", i, got)
							}
							ok++
						}
					}
					e.Stop()
				})
				if err := e.Run(); !errors.Is(err, sim.ErrStopped) {
					t.Fatal(err)
				}
				if ok != calls {
					t.Fatalf("loss=%.2f seed=%d: %d/%d calls succeeded", loss, seed, ok, calls)
				}
				for i, n := range executions {
					if n != 1 {
						t.Fatalf("request %d executed %d times", i, n)
					}
				}
				if len(executions) != calls {
					t.Fatalf("%d distinct executions for %d calls", len(executions), calls)
				}
			})
		}
	}
}

// TestDetachFailsOutstandingSends: a crashed endpoint must fail its
// pending traffic promptly so orchestration layers unwedge.
func TestDetachFailsOutstandingSends(t *testing.T) {
	e := sim.NewEngine(1)
	_, eps := testNet(t, e, netsim.ATM155(2), DefaultConfig())
	a := eps[0]
	var flushDone sim.Time
	e.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			a.SendAsync(p, 1, hEcho, i, 64<<10)
		}
		a.Flush(p)
		flushDone = p.Now()
		e.Stop()
	})
	e.At(2*sim.Millisecond, func() { a.Detach() })
	if err := e.Run(); !errors.Is(err, sim.ErrStopped) {
		t.Fatal(err)
	}
	if flushDone == 0 {
		t.Fatal("Flush never returned after Detach")
	}
	if flushDone > 10*sim.Millisecond {
		t.Fatalf("Flush unwedged only at %v", flushDone)
	}
	if a.Stats().Failures == 0 {
		t.Fatal("no failures recorded for the dead endpoint")
	}
	// Sends after detach fail synchronously.
	e2 := sim.NewEngine(1)
	_, eps2 := testNet(t, e2, netsim.ATM155(2), DefaultConfig())
	c := eps2[0]
	c.Detach()
	var postErr error
	e2.Spawn("s", func(p *sim.Proc) {
		postErr = c.Send(p, 1, hEcho, 1, 8)
		e2.Stop()
	})
	if err := e2.Run(); !errors.Is(err, sim.ErrStopped) {
		t.Fatal(err)
	}
	if postErr == nil {
		t.Fatal("send from detached endpoint succeeded")
	}
}
