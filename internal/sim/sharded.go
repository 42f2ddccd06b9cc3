package sim

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements the sharded event loop: N per-partition Engines
// advancing in parallel under a conservative-lookahead protocol, in the
// Chandy–Misra–Bryant tradition but windowed. Virtual time is cut into
// fixed windows of width W, where W is the minimum cross-partition
// message latency (for a netsim fabric, the wire latency — see
// netsim.NewSharded). A message sent while executing window k arrives no
// earlier than the start of window k+1, so every partition may execute
// window k once all of them have finished window k-1; no rollback is
// ever needed.
//
// Determinism is the design center, and it comes from a deliberate
// split: the *partition map* is part of the workload configuration and
// never changes with core count, while the Workers knob only bounds how
// many partitions execute their windows concurrently. Each partition has
// its own Engine (own clock, queues, sequence numbers) and its own RNG
// stream split from the master seed, and cross-partition messages are
// injected at window boundaries in (At, Src, Seq) order. Every input a
// partition's engine ever sees is therefore a pure function of the seed
// and the workload — never of goroutine scheduling — which is what makes
// runs byte-identical at 1, 2, 4, or 8 workers and lets the race
// detector certify the memory model separately from the golden tests
// certifying the schedule.
//
// Coordination is one combining barrier per window, reached after the
// window has run. Each partition reports the earliest virtual time at
// which it has work pending and whether it stopped; the last to arrive
// min-reduces the reports and decides for everyone: stop, step to the
// next window, end the run, or jump straight to the window holding the
// earliest pending work, so an idle stretch costs one barrier however
// many windows it spans.

// ShardedConfig configures a ShardedEngine.
type ShardedConfig struct {
	// Parts is the number of logical partitions. It is part of the
	// workload's deterministic identity: changing it changes the
	// schedule, so studies fix Parts and vary only Workers.
	Parts int
	// Workers bounds how many partitions execute a window at the same
	// wall-clock moment. 0 or >= Parts means fully parallel. Any value
	// produces the same simulation output.
	Workers int
	// Seed is the master seed; each partition's engine gets an
	// independent stream split from it (splitmix64 finalizer), so
	// partition RNG draws are unaffected by the draws of other
	// partitions.
	Seed int64
	// Window is the conservative lookahead W: the minimum virtual time
	// for a cross-partition message to arrive. Messages sent in window k
	// must arrive at or after the start of window k+1; Send enforces
	// this. Must be > 0.
	Window Duration
}

// ShardMsg is a cross-partition message: an opaque payload to be
// delivered to the destination partition at virtual time At. Seq is
// assigned per source partition in send order; (At, Src, Seq) is the
// total order in which the destination injects messages, which is what
// keeps the merge deterministic.
type ShardMsg struct {
	At   Time
	Src  int
	Seq  uint64
	Data any
}

// shardMailbox is one (src part → dst part) lane. The sender appends
// under a mutex and never blocks — a bounded channel here can deadlock
// when two partitions flood each other mid-window — and the receiver
// drains by swapping the slice out. Single producer, single consumer:
// the mutex is uncontended except at the handoff instant.
type shardMailbox struct {
	mu  sync.Mutex
	buf []ShardMsg
}

type shardPart struct {
	id  int
	eng *Engine

	// in[src] is the mailbox for messages from partition src.
	in []shardMailbox
	// staged holds drained-but-not-yet-due messages, sorted on demand.
	staged []ShardMsg
	// sendSeq numbers this partition's outgoing messages.
	sendSeq uint64

	deliver func(ShardMsg)

	// Deterministic tallies (read after Run or from Observe samplers on
	// the coordinating goroutine).
	sent, recv              int64
	windowsRun, windowsIdle int64
	// stalls counts barrier waits that parked. Which partition arrives
	// last depends on wall-clock timing — exported via Stats only,
	// never into a registry.
	stalls int64

	err error
}

// ShardedEngine coordinates Parts engines running on their own
// goroutines. Construct with NewShardedEngine, wire deliver callbacks
// and workload processes onto the per-partition engines, then call Run.
type ShardedEngine struct {
	cfg   ShardedConfig
	parts []*shardPart

	sem chan struct{} // worker tokens; nil when fully parallel

	// The window barrier. arrived counts partitions that finished the
	// current window; pending and stopped combine their reports. The
	// last arrival writes the decision (next, skip, end), bumps gen and
	// wakes the rest, who read it before anyone can reach the next
	// barrier.
	mu      sync.Mutex
	cond    sync.Cond
	arrived int
	pending Time
	stopped bool
	gen     uint64
	next    Time  // start of the next window to execute
	skip    int64 // empty windows jumped over on the way to next
	end     bool

	extStop atomic.Bool

	wg      sync.WaitGroup
	started bool
	closed  bool
}

// splitSeed derives the per-partition seed stream from the master seed
// using the splitmix64 finalizer, so neighboring seeds yield decorrelated
// streams and partition i's stream never depends on Parts or Workers.
func splitSeed(seed int64, i int) int64 {
	z := uint64(seed) + (uint64(i)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// NewShardedEngine builds the partition engines and mailboxes. Panics on
// a non-positive Parts or Window: both are workload identity, not tuning.
func NewShardedEngine(cfg ShardedConfig) *ShardedEngine {
	if cfg.Parts <= 0 {
		panic("sim: ShardedConfig.Parts must be >= 1")
	}
	if cfg.Window <= 0 {
		panic("sim: ShardedConfig.Window must be > 0 (conservative lookahead)")
	}
	if cfg.Workers <= 0 || cfg.Workers > cfg.Parts {
		cfg.Workers = cfg.Parts
	}
	s := &ShardedEngine{cfg: cfg, pending: MaxTime}
	s.cond.L = &s.mu
	s.parts = make([]*shardPart, cfg.Parts)
	for i := range s.parts {
		s.parts[i] = &shardPart{
			id:  i,
			eng: NewEngine(splitSeed(cfg.Seed, i)),
			in:  make([]shardMailbox, cfg.Parts),
		}
	}
	if cfg.Workers < cfg.Parts {
		s.sem = make(chan struct{}, cfg.Workers)
		for i := 0; i < cfg.Workers; i++ {
			s.sem <- struct{}{}
		}
	}
	return s
}

// Parts returns the number of partitions.
func (s *ShardedEngine) Parts() int { return s.cfg.Parts }

// Workers returns the effective worker-goroutine bound.
func (s *ShardedEngine) Workers() int { return s.cfg.Workers }

// Window returns the conservative lookahead window.
func (s *ShardedEngine) Window() Duration { return s.cfg.Window }

// Engine returns partition p's engine. All pre-Run setup (spawning
// processes, attaching fabrics) goes through it; after Run starts, only
// code executing on that partition's goroutine may touch it.
func (s *ShardedEngine) Engine(p int) *Engine { return s.parts[p].eng }

// OnDeliver installs the destination-side injector for partition p.
// During Run it is called on p's goroutine, engine quiescent, in
// (At, Src, Seq) order; it typically schedules an event via AtArg. Must
// be set before Run for any partition that can receive messages.
func (s *ShardedEngine) OnDeliver(p int, fn func(ShardMsg)) { s.parts[p].deliver = fn }

// Send hands a message to partition dst, to be injected at virtual time
// at. It must be called from code executing on partition src (inside an
// event or process of src's engine). at must respect the lookahead:
// at >= src's clock + the window.
func (s *ShardedEngine) Send(src, dst int, at Time, data any) {
	p := s.parts[src]
	if at < p.eng.now+s.cfg.Window {
		panic(fmt.Sprintf("sim: cross-shard send %d->%d at %v violates lookahead (now %v + %v)",
			src, dst, at, p.eng.now, s.cfg.Window))
	}
	p.sendSeq++
	m := ShardMsg{At: at, Src: src, Seq: p.sendSeq, Data: data}
	p.sent++
	mb := &s.parts[dst].in[src]
	mb.mu.Lock()
	mb.buf = append(mb.buf, m)
	mb.mu.Unlock()
}

// drain moves every queued inbound message into p.staged.
func (p *shardPart) drain() {
	for src := range p.in {
		mb := &p.in[src]
		mb.mu.Lock()
		buf := mb.buf
		mb.buf = nil
		mb.mu.Unlock()
		p.staged = append(p.staged, buf...)
	}
}

// Stop aborts the run from outside the simulation (e.g. a wall-clock
// watchdog): the run ends at the next window barrier. Unlike Engine.Stop
// from within an event — which is deterministic, because every partition
// finishes exactly the stopping window — an external Stop cuts in at an
// arbitrary wall-clock moment and the final state depends on which
// window was running. Use it only on abort paths that discard results.
func (s *ShardedEngine) Stop() { s.extStop.Store(true) }

func (s *ShardedEngine) acquire() {
	if s.sem != nil {
		<-s.sem
	}
}

func (s *ShardedEngine) release() {
	if s.sem != nil {
		s.sem <- struct{}{}
	}
}

// Run drives every partition until the whole simulation drains, any
// partition stops or fails, or the clock passes limit. It may be called
// once. On return all partition goroutines have exited; the per-
// partition engines still hold their parked processes until Close.
func (s *ShardedEngine) Run(limit Time) error {
	if s.started {
		return errors.New("sim: ShardedEngine.Run called twice")
	}
	if s.closed {
		return errors.New("sim: ShardedEngine already closed")
	}
	s.started = true
	if limit >= 0 {
		s.wg.Add(len(s.parts))
		for _, p := range s.parts {
			go s.runPart(p, limit)
		}
		s.wg.Wait()
	}
	// Failure beats stop beats success, and lower partition ids beat
	// higher, so the reported error is deterministic.
	var stopped bool
	for _, p := range s.parts {
		if p.err == nil {
			continue
		}
		if errors.Is(p.err, ErrStopped) {
			stopped = true
			continue
		}
		return p.err
	}
	if stopped || s.extStop.Load() {
		return ErrStopped
	}
	return nil
}

// runPart is one partition's driver loop: run a window, meet the others
// at the barrier, and go where the barrier says.
func (s *ShardedEngine) runPart(p *shardPart, limit Time) {
	defer s.wg.Done()
	for wStart := Time(0); ; {
		wEnd := wStart + s.cfg.Window
		if wEnd < wStart || wEnd > limit {
			// Overflow or final partial window: clamp to the limit.
			wEnd = limit
			if wEnd == MaxTime {
				wEnd = MaxTime - 1
			}
			wEnd++
		}
		pending := s.runWindow(p, wEnd)
		next, skip, end := s.arrive(p, pending, wEnd, limit)
		p.windowsIdle += skip
		if end {
			return
		}
		wStart = next
	}
}

// runWindow executes partition p's share of the window ending at wEnd:
// drain and inject the messages due, then run the engine to the window
// end, skipping the run entirely when nothing is due — this also keeps
// the engine clock from advancing through idle windows. It returns the
// earliest virtual time at which p has work pending: wEnd when p ran or
// injected anything this window (its sends and deliveries may be due
// next window), else its next live event or staged message, MaxTime for
// none.
func (s *ShardedEngine) runWindow(p *shardPart, wEnd Time) Time {
	// Inject messages due this window, in (At, Src, Seq) order.
	p.drain()
	injected := false
	if len(p.staged) > 0 {
		sort.Slice(p.staged, func(i, j int) bool {
			a, b := p.staged[i], p.staged[j]
			if a.At != b.At {
				return a.At < b.At
			}
			if a.Src != b.Src {
				return a.Src < b.Src
			}
			return a.Seq < b.Seq
		})
		k := 0
		for k < len(p.staged) && p.staged[k].At < wEnd {
			k++
		}
		for i := 0; i < k; i++ {
			p.recv++
			if p.deliver == nil {
				p.err = fmt.Errorf("sim: partition %d received a cross-shard message with no OnDeliver handler", p.id)
				return wEnd
			}
			p.deliver(p.staged[i])
		}
		p.staged = append(p.staged[:0], p.staged[k:]...)
		injected = k > 0
	}
	next := p.eng.NextLive()
	if next < wEnd {
		s.acquire()
		p.err = p.eng.RunUntil(wEnd - 1)
		s.release()
		p.windowsRun++
		return wEnd
	}
	p.windowsIdle++
	if injected {
		return wEnd
	}
	if len(p.staged) > 0 && p.staged[0].At < next {
		next = p.staged[0].At
	}
	return next
}

// arrive is the window barrier. Partition p reports its earliest pending
// work for the window ending at wEnd; the last partition to arrive
// decides for everyone, and every caller returns that decision: the
// start of the next window, the empty windows skipped on the way there,
// and whether the run is over.
func (s *ShardedEngine) arrive(p *shardPart, pending, wEnd, limit Time) (next Time, skip int64, end bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending = min(s.pending, pending)
	s.stopped = s.stopped || p.err != nil
	s.arrived++
	if s.arrived < len(s.parts) {
		p.stalls++
		for gen := s.gen; gen == s.gen; {
			s.cond.Wait()
		}
		return s.next, s.skip, s.end
	}
	s.decide(wEnd, limit)
	s.arrived, s.pending, s.stopped = 0, MaxTime, false
	s.gen++
	s.cond.Broadcast()
	return s.next, s.skip, s.end
}

// decide turns the combined reports for the window ending at wEnd into
// the barrier's decision. Windows start at multiples of W, so the window
// holding the earliest pending work t starts at t - t%W; every window
// jumped over is one every partition would have found empty, and is
// counted idle so sim.shard.windows.idle does not depend on the jump.
func (s *ShardedEngine) decide(wEnd, limit Time) {
	W := s.cfg.Window
	s.skip = 0
	s.end = s.stopped || s.extStop.Load() || s.pending == MaxTime || wEnd > limit
	if s.end {
		return
	}
	s.next = max(wEnd, s.pending-s.pending%W)
	if s.next > limit {
		// Nothing is due by the limit: the windows left are all empty.
		s.skip = int64((limit-limit%W-wEnd)/W) + 1
		s.end = true
		return
	}
	s.skip = int64((s.next - wEnd) / W)
}

// Close tears down every partition engine (ascending partition id, so
// teardown order is deterministic). Idempotent.
func (s *ShardedEngine) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, p := range s.parts {
		p.eng.Close()
	}
}

// ShardPartStats is one partition's deterministic tally block.
type ShardPartStats struct {
	Events      uint64 // events scheduled on the partition's engine
	Sent        int64  // cross-shard messages sent
	Recv        int64  // cross-shard messages injected
	WindowsRun  int64  // windows that executed events
	WindowsIdle int64  // windows skipped as empty
	Now         Time   // partition clock at exit
}

// ShardedStats is a post-Run snapshot. Everything except Stalls is a
// pure function of seed and workload; Stalls counts barrier waits that
// parked (every arrival but each window's last). It describes the
// execution, not the workload, and must never be written into a
// metrics registry (registries are golden-gated).
type ShardedStats struct {
	Parts, Workers int
	Window         Duration
	Sent, Recv     int64
	WindowsRun     int64
	WindowsIdle    int64
	Stalls         int64
	PerPart        []ShardPartStats
}

// Stats returns the run's tallies. Call after Run has returned.
func (s *ShardedEngine) Stats() ShardedStats {
	st := ShardedStats{Parts: s.cfg.Parts, Workers: s.cfg.Workers, Window: s.cfg.Window}
	for _, p := range s.parts {
		pp := ShardPartStats{
			Events:      p.eng.seq,
			Sent:        p.sent,
			Recv:        p.recv,
			WindowsRun:  p.windowsRun,
			WindowsIdle: p.windowsIdle,
			Now:         p.eng.now,
		}
		st.Sent += p.sent
		st.Recv += p.recv
		st.WindowsRun += p.windowsRun
		st.WindowsIdle += p.windowsIdle
		st.Stalls += p.stalls
		st.PerPart = append(st.PerPart, pp)
	}
	return st
}
