package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEventThroughput measures raw engine event dispatch — the
// floor under every experiment's wall-clock cost.
func BenchmarkEventThroughput(b *testing.B) {
	e := NewEngine(1)
	defer e.Close()
	for i := 0; i < b.N; i++ {
		e.After(Microsecond, func() {})
		if e.Pending() > 10000 {
			if err := e.RunUntil(MaxTime); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := e.RunUntil(MaxTime); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkShardedThroughput measures the sharded engine end to end on
// a pure-sim workload: 8 fixed partitions (part of the workload's
// identity, so results stay comparable) run by 1, 4 or 8 workers. Each
// partition forwards a message chain to its neighbour once per
// lookahead window, dispatching a burst of local events per hop. The
// /shards=N sub-benchmark names carry the worker count; benchjson
// parses them into a "shards" metric for BENCH_sim.json.
func BenchmarkShardedThroughput(b *testing.B) {
	const (
		parts = 8
		local = 16 // local events dispatched per cross-partition hop
	)
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", workers), func(b *testing.B) {
			se := NewShardedEngine(ShardedConfig{
				Parts: parts, Workers: workers, Seed: 1, Window: Microsecond,
			})
			defer se.Close()
			hops := b.N / (parts * (local + 2))
			if hops < 1 {
				hops = 1
			}
			for p := 0; p < parts; p++ {
				p := p
				eng := se.Engine(p)
				hop := func(rem int) {
					for i := 0; i < local; i++ {
						eng.After(Duration(i)*100*Nanosecond, func() {})
					}
					if rem > 0 {
						se.Send(p, (p+1)%parts, eng.Now()+se.Window(), rem-1)
					}
				}
				se.OnDeliver(p, func(m ShardMsg) {
					rem := m.Data.(int)
					eng.At(m.At, func() { hop(rem) })
				})
				eng.At(Time(Microsecond), func() { hop(hops) })
			}
			b.ResetTimer()
			if err := se.Run(MaxTime); err != nil {
				b.Fatal(err)
			}
			var events int64
			for _, pp := range se.Stats().PerPart {
				events += int64(pp.Events)
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkProcSwitch measures the park/resume goroutine handshake.
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEngine(1)
	n := b.N
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkYieldStorm measures the same-time run queue: a pack of procs
// yielding at one instant, the engine's O(1) fast path.
func BenchmarkYieldStorm(b *testing.B) {
	e := NewEngine(1)
	const procs = 8
	n := b.N / procs
	for w := 0; w < procs; w++ {
		e.Spawn("yielder", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Yield()
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTimerCancelChurn measures schedule-then-cancel traffic — the
// retransmission-timer pattern every protocol layer generates. With the
// event pool this settles to zero allocations.
func BenchmarkTimerCancelChurn(b *testing.B) {
	e := NewEngine(1)
	defer e.Close()
	for i := 0; i < b.N; i++ {
		tm := e.After(Millisecond, func() {})
		tm.Stop()
		if i%1024 == 0 {
			// Drain the cancelled husks so the queue stays small.
			if err := e.RunUntil(e.Now() + 2*Millisecond); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMailboxPingPong measures a blocking request/reply cycle
// between two procs — the RPC skeleton under every protocol model. Each
// iteration is two Put/Get pairs and two direct goroutine handoffs.
func BenchmarkMailboxPingPong(b *testing.B) {
	e := NewEngine(1)
	req := NewMailbox[int](e, "req")
	rsp := NewMailbox[int](e, "rsp")
	n := b.N
	e.Spawn("server", func(p *Proc) {
		for i := 0; i < n; i++ {
			v := req.Get(p)
			rsp.Put(v + 1)
		}
	})
	e.Spawn("client", func(p *Proc) {
		for i := 0; i < n; i++ {
			req.Put(i)
			if got := rsp.Get(p); got != i+1 {
				b.Errorf("got %d, want %d", got, i+1)
				return
			}
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkResourceContention measures the contended-resource path.
func BenchmarkResourceContention(b *testing.B) {
	e := NewEngine(1)
	r := NewResource(e, "r", 1)
	n := b.N
	for w := 0; w < 4; w++ {
		e.Spawn("worker", func(p *Proc) {
			for i := 0; i < n/4; i++ {
				r.Use(p, 1, Microsecond)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpawnChurn measures the host cost of a short-lived process:
// a spawner starts one child per step, and each child sleeps once and
// exits — the shape of an Active Message handler process. Processes run
// on pooled goroutines, so a steady churn creates no new goroutines and
// allocs/op counts only the Proc itself.
func BenchmarkSpawnChurn(b *testing.B) {
	e := NewEngine(1)
	child := func(p *Proc) { p.Sleep(Microsecond) }
	e.Spawn("spawner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			e.Spawn("child", child)
			p.Sleep(Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
