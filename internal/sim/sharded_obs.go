package sim

import (
	"strconv"

	"github.com/nowproject/now/internal/obs"
)

// Observe attaches a metrics registry to the sharded driver. Everything
// registered here is a pure function of seed and workload — per-PARTITION
// tallies keyed p0..pN, never per-worker — so the export is byte-identical
// across Workers settings and safe for the golden determinism gates.
// Deliberately absent: the worker count, and the barrier-stall tally
// (both execution artifacts; read them from Stats instead).
//
// Metrics (names per docs/OBSERVABILITY.md):
//
//	sim.shard.parts            partition count (gauge)
//	sim.shard.window.ns        conservative lookahead window (gauge)
//	sim.shard.events{pI}       events scheduled on partition I's engine
//	sim.shard.msgs.sent{pI}    cross-shard messages sent by partition I
//	sim.shard.msgs.recv{pI}    cross-shard messages injected into I
//	sim.shard.msgs.sent.total  sum over partitions
//	sim.shard.msgs.recv.total  sum over partitions
//	sim.shard.windows.run      windows that executed events (all parts)
//	sim.shard.windows.idle     windows skipped as empty, jumped-over
//	                           idle stretches included (all parts)
//
// The samplers read partition state, so Snapshot may only run while the
// simulation is quiescent: before Run, or after Run has returned.
func (s *ShardedEngine) Observe(r *obs.Registry) {
	if r == nil {
		return
	}
	labels := make([]string, s.cfg.Parts)
	for i := range labels {
		labels[i] = "p" + strconv.Itoa(i)
	}
	r.SetClock(func() obs.Time {
		var t Time
		for _, p := range s.parts {
			if p.eng.now > t {
				t = p.eng.now
			}
		}
		return int64(t)
	})
	parts := r.Gauge("sim.shard.parts")
	window := r.Gauge("sim.shard.window.ns")
	events := r.CounterVec("sim.shard.events", labels)
	sent := r.CounterVec("sim.shard.msgs.sent", labels)
	recv := r.CounterVec("sim.shard.msgs.recv", labels)
	sentTot := r.Counter("sim.shard.msgs.sent.total")
	recvTot := r.Counter("sim.shard.msgs.recv.total")
	wrun := r.Counter("sim.shard.windows.run")
	widle := r.Counter("sim.shard.windows.idle")
	type partLast struct {
		events, sent, recv, wrun, widle int64
	}
	last := make([]partLast, s.cfg.Parts)
	r.OnSample(func() {
		parts.Set(int64(s.cfg.Parts))
		window.Set(int64(s.cfg.Window))
		for i, p := range s.parts {
			l := &last[i]
			ev := int64(p.eng.seq)
			events.At(i).Add(ev - l.events)
			sent.At(i).Add(p.sent - l.sent)
			recv.At(i).Add(p.recv - l.recv)
			sentTot.Add(p.sent - l.sent)
			recvTot.Add(p.recv - l.recv)
			wrun.Add(p.windowsRun - l.wrun)
			widle.Add(p.windowsIdle - l.widle)
			l.events, l.sent, l.recv = ev, p.sent, p.recv
			l.wrun, l.widle = p.windowsRun, p.windowsIdle
		}
	})
}

// Instrument is Observe under the facade's Instrumentable name.
func (s *ShardedEngine) Instrument(r *obs.Registry) { s.Observe(r) }
