package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// ringMsg is the payload forwarded around the partition ring in tests.
type ringMsg struct {
	hops int
	tag  int
}

// runRing builds a Parts-partition workload that exercises every sharded
// code path — local events, RNG draws, cross-partition sends from both
// processes and event callbacks, message forwarding chains — and returns
// a per-partition log of everything that happened plus the run error and
// stats. The log is a pure function of (parts, workers-independent
// schedule), so tests compare it byte-for-byte across Workers settings.
func runRing(t *testing.T, parts, workers, rounds int, seed int64, stopAt Time) ([][]string, ShardedStats, error) {
	t.Helper()
	const W = 5 * Microsecond
	s := NewShardedEngine(ShardedConfig{Parts: parts, Workers: workers, Seed: seed, Window: W})
	defer s.Close()
	logs := make([][]string, parts)
	for i := 0; i < parts; i++ {
		i := i
		e := s.Engine(i)
		s.OnDeliver(i, func(m ShardMsg) {
			e.AtArg(m.At, func(a any) {
				mm := a.(ShardMsg)
				rm := mm.Data.(ringMsg)
				logs[i] = append(logs[i], fmt.Sprintf("%d recv@%d src=%d seq=%d hops=%d tag=%d",
					i, int64(e.Now()), mm.Src, mm.Seq, rm.hops, rm.tag))
				if rm.hops > 0 {
					// Forward from inside an event callback.
					s.Send(i, (i+1)%parts, e.Now()+W+Duration(rm.tag%3)*Microsecond,
						ringMsg{hops: rm.hops - 1, tag: rm.tag})
				}
			}, m)
		})
		e.Spawn(fmt.Sprintf("pump-%d", i), func(p *Proc) {
			for r := 0; r < rounds; r++ {
				p.Sleep(Duration(1+e.Rand().Intn(7)) * Microsecond)
				logs[i] = append(logs[i], fmt.Sprintf("%d round=%d t=%d", i, r, int64(p.Now())))
				s.Send(i, (i+1)%parts, p.Now()+W, ringMsg{hops: parts + 1, tag: i*1000 + r})
			}
		})
		if stopAt > 0 && i == 0 {
			e.At(stopAt, func() { e.Stop() })
		}
	}
	errc := make(chan error, 1)
	go func() { errc <- s.Run(MaxTime) }()
	select {
	case err := <-errc:
		return logs, s.Stats(), err
	case <-time.After(30 * time.Second):
		t.Fatal("sharded run deadlocked")
		return nil, ShardedStats{}, nil
	}
}

// statsKey strips the wall-clock-dependent Stalls field so the rest of
// the stats block can be compared across worker counts.
func statsKey(st ShardedStats) string {
	st.Stalls = 0
	st.Workers = 0
	return fmt.Sprintf("%+v", st)
}

// TestShardedDeterminismAcrossWorkers is the heart of the design: the
// same (parts, seed) workload must produce identical logs and tallies
// whether the partitions run on 1 worker or many.
func TestShardedDeterminismAcrossWorkers(t *testing.T) {
	const parts = 4
	baseLogs, baseStats, err := runRing(t, parts, 1, 6, 42, 0)
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	if baseStats.Sent == 0 || baseStats.Recv != baseStats.Sent {
		t.Fatalf("ring should send and fully deliver: %+v", baseStats)
	}
	for _, workers := range []int{2, 4} {
		logs, stats, err := runRing(t, parts, workers, 6, 42, 0)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(logs, baseLogs) {
			t.Errorf("workers=%d: logs diverge from workers=1", workers)
		}
		if statsKey(stats) != statsKey(baseStats) {
			t.Errorf("workers=%d: stats diverge:\n  %s\n  %s", workers, statsKey(stats), statsKey(baseStats))
		}
	}
	// Different seed must actually change the schedule (guards against a
	// workload that ignores its RNG and trivially "stays deterministic").
	otherLogs, _, err := runRing(t, parts, 2, 6, 43, 0)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(otherLogs, baseLogs) {
		t.Error("different seed produced identical logs; workload not exercising RNG")
	}
}

// TestShardedStopMidDrain pins the Engine.Stop-under-sharding semantics:
// a Stop fired inside one partition's event stream quiesces every peer
// at the window barrier, peers finish exactly the stopping window, and
// the final state is identical at any worker count.
func TestShardedStopMidDrain(t *testing.T) {
	// 23µs is mid-window (W=5µs) while ring traffic is still in flight,
	// so peers have staged and in-flight messages when the stop lands.
	const stopAt = 23 * Microsecond
	baseLogs, baseStats, err := runRing(t, 4, 1, 50, 7, stopAt)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
	if baseStats.Sent == baseStats.Recv {
		t.Logf("note: no messages were in flight at stop (sent=%d recv=%d)", baseStats.Sent, baseStats.Recv)
	}
	for _, workers := range []int{2, 4} {
		logs, stats, err := runRing(t, 4, workers, 50, 7, stopAt)
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("workers=%d: want ErrStopped, got %v", workers, err)
		}
		if !reflect.DeepEqual(logs, baseLogs) {
			t.Errorf("workers=%d: stop-point logs diverge from workers=1", workers)
		}
		if statsKey(stats) != statsKey(baseStats) {
			t.Errorf("workers=%d: stop-point stats diverge:\n  %s\n  %s", workers, statsKey(stats), statsKey(baseStats))
		}
	}
}

// TestShardedExternalStop checks the non-deterministic abort path: an
// external Stop terminates the run promptly with ErrStopped.
func TestShardedExternalStop(t *testing.T) {
	const W = 5 * Microsecond
	s := NewShardedEngine(ShardedConfig{Parts: 2, Workers: 2, Seed: 1, Window: W})
	defer s.Close()
	for i := 0; i < 2; i++ {
		i := i
		e := s.Engine(i)
		s.OnDeliver(i, func(m ShardMsg) {
			e.AtArg(m.At, func(a any) {
				mm := a.(ShardMsg)
				// Ping-pong forever.
				s.Send(i, 1-i, e.Now()+W, mm.Data)
			}, m)
		})
		e.Spawn("seed", func(p *Proc) {
			s.Send(i, 1-i, p.Now()+W, ringMsg{})
		})
	}
	errc := make(chan error, 1)
	go func() { errc <- s.Run(MaxTime) }()
	time.Sleep(10 * time.Millisecond)
	s.Stop()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("want ErrStopped, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("external Stop did not terminate the run")
	}
}

// TestShardedIdleTermination: a workload that goes fully quiet must end
// the run at the first barrier that finds nothing pending, not hang in
// empty windows, even when cancelled timers still sit in the queues.
func TestShardedIdleTermination(t *testing.T) {
	const W = 5 * Microsecond
	s := NewShardedEngine(ShardedConfig{Parts: 3, Workers: 3, Seed: 9, Window: W})
	defer s.Close()
	for i := 0; i < 3; i++ {
		e := s.Engine(i)
		s.OnDeliver(i, func(m ShardMsg) {})
		e.Spawn("burst", func(p *Proc) {
			for r := 0; r < 4; r++ {
				// Long-deadline timers cancelled immediately: these are
				// the AM completion-guard pattern that must not keep the
				// windowed loop crawling until the deadline.
				tm := e.After(10*Second, func() {})
				p.Sleep(3 * Microsecond)
				tm.Stop()
			}
		})
	}
	errc := make(chan error, 1)
	go func() { errc <- s.Run(MaxTime) }()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("idle workload did not terminate")
	}
	st := s.Stats()
	for i, pp := range st.PerPart {
		if pp.Now > 30*Microsecond {
			t.Errorf("partition %d clock ran to %v; cancelled timers not pruned from idle detection", i, pp.Now)
		}
	}
}

// runGap runs a 2-partition workload whose only live work after a short
// burst is one event gap later: at 0 partition 0 sends to partition 1
// (due at W), partition 1 replies (due at 2W), and partition 0 has one
// more event at gap. Partition 1 also arms and cancels a long timer, the
// AM completion-guard pattern. gap must be a multiple of W, >= 4W. The
// run ends at limit.
func runGap(t *testing.T, gap Duration, limit Time) ShardedStats {
	t.Helper()
	const W = 5 * Microsecond
	s := NewShardedEngine(ShardedConfig{Parts: 2, Seed: 3, Window: W})
	defer s.Close()
	e0, e1 := s.Engine(0), s.Engine(1)
	s.OnDeliver(0, func(m ShardMsg) { e0.AtArg(m.At, func(any) {}, nil) })
	s.OnDeliver(1, func(m ShardMsg) {
		e1.AtArg(m.At, func(any) {
			e1.After(10*Second, func() {}).Stop()
			s.Send(1, 0, e1.Now()+W, nil)
		}, nil)
	})
	e0.At(0, func() { s.Send(0, 1, W, nil) })
	e0.At(gap, func() {})
	errc := make(chan error, 1)
	go func() { errc <- s.Run(limit) }()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
		return s.Stats()
	case <-time.After(30 * time.Second):
		s.Stop()
		<-errc
		t.Fatalf("run with a %v idle stretch did not finish in 30s", gap)
		return ShardedStats{}
	}
}

// TestShardedJumpsIdleStretch: an idle stretch costs one barrier, not
// one per window, yet counts every window it spans. With W = 5µs and
// G = gap/W, the windows are 0..G+1. Partition 0 runs windows 0 (send),
// 2 (reply) and G (the late event); partition 1 runs window 1; window
// G+1 finds nothing pending and ends the run. Every other window is
// idle: G-1 on partition 0 and G+1 on partition 1.
func TestShardedJumpsIdleStretch(t *testing.T) {
	const W = 5 * Microsecond
	// The 1s-gap stats of stepping every window one by one: jumping
	// must not change any of them.
	const stepped = "{Parts:2 Workers:0 Window:5µs Sent:2 Recv:2 WindowsRun:4 WindowsIdle:400000 Stalls:0 " +
		"PerPart:[{Events:3 Sent:1 Recv:1 WindowsRun:3 WindowsIdle:199999 Now:1s} " +
		"{Events:2 Sent:1 Recv:1 WindowsRun:1 WindowsIdle:200001 Now:9.999µs}]}"
	for _, gap := range []Duration{Hour, Second} {
		st := runGap(t, gap, MaxTime)
		g := int64(gap / W)
		for i, want := range []struct{ run, idle int64 }{{3, g - 1}, {1, g + 1}} {
			pp := st.PerPart[i]
			if pp.WindowsRun != want.run || pp.WindowsIdle != want.idle {
				t.Errorf("gap %v partition %d: windows run/idle %d/%d, want %d/%d",
					gap, i, pp.WindowsRun, pp.WindowsIdle, want.run, want.idle)
			}
		}
		if st.PerPart[0].Now != gap {
			t.Errorf("gap %v: partition 0 clock %v, want %v", gap, st.PerPart[0].Now, gap)
		}
		if got := statsKey(st); gap == Second && got != stepped {
			t.Errorf("1s gap stats differ from window-by-window stepping:\n got %s\nwant %s", got, stepped)
		}
	}
	// A limit inside the stretch: the windows up to it (0..L/W, with
	// L = limit - limit%W, the last one cut short) are still counted,
	// and the late event never runs.
	limit := 500*Millisecond + 2*Microsecond
	st := runGap(t, Second, limit)
	l := int64((limit - limit%W) / W)
	for i, want := range []struct{ run, idle int64 }{{2, l - 1}, {1, l}} {
		pp := st.PerPart[i]
		if pp.WindowsRun != want.run || pp.WindowsIdle != want.idle {
			t.Errorf("limit %v partition %d: windows run/idle %d/%d, want %d/%d",
				limit, i, pp.WindowsRun, pp.WindowsIdle, want.run, want.idle)
		}
	}
}

// TestNextLive covers the cancelled-head pruning the sharded driver
// relies on for idle detection.
func TestNextLive(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	if got := e.NextLive(); got != MaxTime {
		t.Fatalf("empty engine NextLive = %v, want MaxTime", got)
	}
	tm1 := e.At(10*Microsecond, func() {})
	tm2 := e.At(20*Microsecond, func() {})
	if got := e.NextLive(); got != 10*Microsecond {
		t.Fatalf("NextLive = %v, want 10µs", got)
	}
	tm1.Stop()
	if got := e.NextLive(); got != 20*Microsecond {
		t.Fatalf("after cancelling head, NextLive = %v, want 20µs", got)
	}
	tm2.Stop()
	if got := e.NextLive(); got != MaxTime {
		t.Fatalf("all cancelled: NextLive = %v, want MaxTime", got)
	}
	if e.Pending() != 0 {
		t.Fatalf("cancelled heads should be reaped, Pending = %d", e.Pending())
	}
}

// TestShardedLookaheadViolation: a send that arrives inside the sender's
// own window is a protocol bug and must panic loudly.
func TestShardedLookaheadViolation(t *testing.T) {
	const W = 5 * Microsecond
	s := NewShardedEngine(ShardedConfig{Parts: 2, Workers: 1, Seed: 1, Window: W})
	defer s.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("lookahead-violating Send did not panic")
		}
	}()
	s.Send(0, 1, 1*Microsecond, nil) // < now(0) + W
}
