package am

import (
	"testing"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/sim"
)

// BenchmarkCallRoundTrip measures the host cost of one synchronous AM
// Call between two endpoints: post, transmit, dispatch, ack, a handler
// process, the reply and completion. It is the per-request path every
// xFS, GLUnix and collective message takes; allocs/op counts the heap
// objects one request costs end to end.
func BenchmarkCallRoundTrip(b *testing.B) {
	e := sim.NewEngine(1)
	_, eps := testNet(b, e, netsim.Myrinet(2), DefaultConfig())
	eps[1].Register(hEcho, func(p *sim.Proc, m Msg) (any, int) { return m.Arg, 8 })
	var err error
	e.Spawn("caller", func(p *sim.Proc) {
		for i := 0; i < b.N && err == nil; i++ {
			_, err = eps[0].Call(p, 1, hEcho, nil, 8)
		}
		e.Stop()
	})
	b.ReportAllocs()
	b.ResetTimer()
	if runErr := e.Run(); runErr != sim.ErrStopped {
		b.Fatal(runErr)
	}
	if err != nil {
		b.Fatal(err)
	}
}
