package sim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/nowproject/now/internal/obs"
)

// runWithin runs fn on its own goroutine and fails the test if it has
// not returned within d; a scheduling bug that parks every goroutine
// then shows up as a failure instead of hanging the test binary.
func runWithin(t *testing.T, d time.Duration, fn func() error) error {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- fn() }()
	select {
	case err := <-errc:
		return err
	case <-time.After(d):
		t.Fatalf("run did not return within %v", d)
		return nil
	}
}

// waitGoroutines polls until the goroutine count is back to at most
// want: a worker ends just after its last channel operation, so the
// count settles a moment after Close returns.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive after Close, want <= %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWakeAfterExitFails schedules a wake for a process that has already
// exited. Its resume channel now belongs to the worker, which is running
// another process, so the engine must fail the run by name instead of
// resuming the wrong body (or hanging on a channel nobody reads).
func TestWakeAfterExitFails(t *testing.T) {
	e := NewEngine(1)
	gone := e.Spawn("gone", func(p *Proc) {})
	woke := Time(-1)
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(2 * Microsecond)
		woke = p.Now()
	})
	e.At(Microsecond, func() { e.wakeProcAt(e.Now(), gone) })
	err := runWithin(t, 10*time.Second, e.Run)
	if err == nil || !strings.Contains(err.Error(), `wake for exited process "gone" (pid 0)`) {
		t.Fatalf("Run = %v, want the wake-after-exit failure", err)
	}
	if woke != -1 {
		t.Fatalf("sleeper resumed at %v by a wake aimed at another process", woke)
	}
}

// TestPoolGoroutinesEndAtClose churns thousands of short-lived processes
// (spawned from the setup, from callbacks and from other processes, so
// bodies exit both with and without the driver token) next to a few
// that stay parked, and checks that the pool reused goroutines and that
// Close leaves none behind.
func TestPoolGoroutinesEndAtClose(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	never := NewSignal(e, "never")
	for i := 0; i < 8; i++ {
		e.Spawn("parked", func(p *Proc) { never.Wait(p) })
	}
	ran := 0
	short := func(p *Proc) {
		p.Sleep(Duration(1+ran%7) * Microsecond)
		ran++
	}
	for i := 0; i < 2000; i++ {
		e.SpawnAt(Time(i)*Microsecond, "short", short)
		e.At(Time(i)*Microsecond, func() { e.Spawn("from-callback", short) })
	}
	e.Spawn("spawner", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Sleep(3 * Microsecond)
			p.eng.Spawn("from-proc", short)
		}
	})
	if err := e.RunUntil(MaxTime); err != nil {
		t.Fatal(err)
	}
	if ran != 5000 {
		t.Fatalf("%d short processes finished, want 5000", ran)
	}
	if n := len(e.pool); n == 0 || n > 100 {
		t.Fatalf("%d idle workers after 5,000 short processes; want a small reused pool", n)
	}
	e.Close()
	if e.pool != nil {
		t.Fatal("Close left idle workers in the pool")
	}
	waitGoroutines(t, base)
}

// TestShardedPoolGoroutinesEndAtClose is the same lifecycle check on a
// sharded engine run by two workers: every partition engine pools its
// own goroutines, and ShardedEngine.Close must end all of them.
func TestShardedPoolGoroutinesEndAtClose(t *testing.T) {
	base := runtime.NumGoroutine()
	se := NewShardedEngine(ShardedConfig{Parts: 4, Workers: 2, Seed: 1, Window: Microsecond})
	for part := 0; part < se.Parts(); part++ {
		eng := se.Engine(part)
		never := NewSignal(eng, "never")
		eng.Spawn("parked", func(p *Proc) { never.Wait(p) })
		for i := 0; i < 500; i++ {
			eng.SpawnAt(Time(i)*Microsecond, "short", func(p *Proc) { p.Sleep(Microsecond) })
		}
	}
	if err := se.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	se.Close()
	waitGoroutines(t, base)
}

// TestFailedProcWorkerNotReused checks that a body ending in a panic or
// Proc.Fail fails the run with that panic or error, and that its
// goroutine is not returned to the pool — with and without
// the driver token (a body failing at its first step runs synchronously
// under the spawn event; one failing after a Sleep is driving).
func TestFailedProcWorkerNotReused(t *testing.T) {
	errBroken := errors.New("invariant broken")
	cases := []struct {
		name    string
		body    func(p *Proc)
		wantErr string
	}{
		{"panic", func(p *Proc) { panic("kaboom") }, `sim: process "bad" panicked: kaboom`},
		{"panic-driving", func(p *Proc) { p.Sleep(Microsecond); panic("kaboom") }, `sim: process "bad" panicked: kaboom`},
		{"fail", func(p *Proc) { p.Fail(errBroken) }, errBroken.Error()},
		{"fail-driving", func(p *Proc) { p.Sleep(Microsecond); p.Fail(errBroken) }, errBroken.Error()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(1)
			defer e.Close()
			// "ok" exits first and leaves its worker idle; "bad" takes it.
			e.Spawn("ok", func(p *Proc) {})
			e.SpawnAt(Microsecond, "bad", tc.body)
			err := e.RunUntil(MaxTime)
			if err == nil || err.Error() != tc.wantErr {
				t.Fatalf("RunUntil = %v, want %q", err, tc.wantErr)
			}
			if len(e.pool) != 0 || e.retiring != nil {
				t.Fatalf("failed process's worker returned to the pool (%d idle)", len(e.pool))
			}
		})
	}
	t.Run("control", func(t *testing.T) {
		e := NewEngine(1)
		defer e.Close()
		e.Spawn("ok", func(p *Proc) {})
		e.SpawnAt(Microsecond, "ok-driving", func(p *Proc) { p.Sleep(Microsecond) })
		if err := e.RunUntil(MaxTime); err != nil {
			t.Fatal(err)
		}
		if len(e.pool) != 1 {
			t.Fatalf("%d idle workers, want the one goroutine both bodies ran on", len(e.pool))
		}
	})
}

// TestSpawnScriptPinned runs a fixed spawn script — setup spawns,
// SpawnAt, spawns from callbacks and from processes, short-lived and
// parked bodies — and pins its (time, pid, name) trace hash together
// with the engine's process counters. The pinned figures were recorded
// before processes ran on pooled goroutines; pooling is host-only, so
// PID order and every sim.proc.* counter must not move.
func TestSpawnScriptPinned(t *testing.T) {
	r := obs.NewRegistry()
	e := NewEngine(7)
	e.Observe(r)
	h := fnv.New64a()
	mark := func(p *Proc, tag string) {
		fmt.Fprintf(h, "%d|%d|%s|%s;", int64(p.Now()), p.ID(), p.Name(), tag)
	}
	never := NewSignal(e, "never")
	mb := NewMailbox[int](e, "mb")
	var child func(depth int) func(p *Proc)
	child = func(depth int) func(p *Proc) {
		return func(p *Proc) {
			mark(p, "start")
			p.Sleep(Duration(e.Rand().Intn(5)) * Microsecond)
			if depth > 0 && e.Rand().Intn(2) == 0 {
				p.eng.Spawn(fmt.Sprintf("c%d", depth-1), child(depth-1))
			}
			if e.Rand().Intn(4) == 0 {
				mb.Put(p.ID())
			}
			mark(p, "exit")
		}
	}
	for i := 0; i < 40; i++ {
		e.SpawnAt(Time(e.Rand().Intn(100))*Microsecond, "root", child(3))
		e.At(Time(e.Rand().Intn(100))*Microsecond, func() { e.Spawn("cb", child(1)) })
	}
	for i := 0; i < 3; i++ {
		e.Spawn("parked", func(p *Proc) {
			mark(p, "park")
			never.Wait(p)
		})
	}
	e.SpawnAt(Millisecond, "ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(Microsecond) // alone by now: self-wakes
		}
		mark(p, "exit")
	})
	e.Spawn("drain", func(p *Proc) {
		for {
			if v, ok := mb.GetTimeout(p, 50*Microsecond); ok {
				mark(p, fmt.Sprintf("got%d", v))
				continue
			}
			return
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	r.Snapshot()
	got := fmt.Sprintf("hash=%x", h.Sum64())
	for _, name := range []string{"sim.proc.spawns", "sim.proc.switches", "sim.proc.wakes.self", "sim.events.scheduled", "sim.events.callbacks"} {
		v, _ := r.CounterValue(name)
		got += fmt.Sprintf(" %s=%d", name, v)
	}
	const want = "hash=a0bc640cd6b42493 sim.proc.spawns=139 sim.proc.switches=162 sim.proc.wakes.self=9 sim.events.scheduled=376 sim.events.callbacks=179"
	if got != want {
		t.Fatalf("spawn script trace moved:\n got %s\nwant %s", got, want)
	}
}
