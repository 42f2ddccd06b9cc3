package scenario

import (
	"fmt"
	"math/rand"

	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/xfs"
)

// opMix drives the PAPER.md NFS workload against an xFS fleet: a
// population of client streams, each alternating exponential think time
// with one file operation. The draw per op follows the departmental
// trace shape — MetaFrac of operations are small metadata lookups (a
// cached read of a hot file's first block; the paper measured 95% of
// NFS messages under 200 bytes), the rest split evenly between data
// reads and write-through data writes.
//
// Intensity follows the scenario's load curve: "load <f>" scales the
// mean think time by 1/f, so a series of load events replays a diurnal
// demand shape over one population. Every stream's randomness comes
// from its own seeded source, so the op sequence is independent of
// engine interleaving and the run stays byte-deterministic.
type opMix struct {
	s   *Scenario
	e   *sim.Engine
	sys *xfs.System
	// blockBytes is the installation's block size (writes must cover a
	// full block).
	blockBytes int

	// loadPPM is the current intensity in parts-per-million (load 1.0 =
	// 1e6). Engine events mutate it; streams read it at each think draw.
	loadPPM int64

	nextStream int // global stream id across opmix events
	privBase   int // largest hot-file count of any opmix event (see privateFile)

	ops, meta, data, errors *obs.Counter
	latency                 *obs.Histogram
	sm                      *scenarioMetrics
}

// Op-mix defaults; a scenario overrides them per opmix event.
const (
	defaultThink  = 5 * sim.Second
	defaultFiles  = 64
	defaultBlocks = 16
)

// newOpMix prepares the workload driver. Metrics register immediately
// so the export layout does not depend on whether an opmix event fires
// before the first checkpoint.
func newOpMix(s *Scenario, e *sim.Engine, sys *xfs.System, blockBytes int, sm *scenarioMetrics) *opMix {
	m := &opMix{s: s, e: e, sys: sys, blockBytes: blockBytes, loadPPM: 1_000_000, sm: sm}
	if s.Fleet.XFS == nil {
		return m // no storage: opmix events are rejected by Validate
	}
	for _, ev := range s.Events {
		if ev.Kind == EvOpMix {
			m.privBase = max(m.privBase, opMixFiles(ev))
		}
	}
	r := sm.reg
	m.ops = r.Counter("scenario.opmix.ops")
	m.meta = r.Counter("scenario.opmix.meta")
	m.data = r.Counter("scenario.opmix.data")
	m.errors = r.Counter("scenario.opmix.errors")
	m.latency = r.Histogram("scenario.opmix.latency.ns", obs.DurationBuckets)
	sm.loadPPM.Set(m.loadPPM)
	return m
}

// setLoad applies a "load <f>" event.
func (m *opMix) setLoad(f float64) {
	m.loadPPM = int64(f * 1_000_000)
	if m.loadPPM < 1 {
		m.loadPPM = 1
	}
	m.sm.loadPPM.Set(m.loadPPM)
}

// start spawns the event's client streams. Each stream gets a private
// RNG keyed by its global id, a home client chosen round-robin across
// the installation's nodes, and its own slice of the file namespace for
// data ops; metadata ops share one hot directory of files so the
// manager and cache-consistency paths see real sharing.
func (m *opMix) start(ev Event) {
	think := ev.Think
	if think <= 0 {
		think = defaultThink
	}
	files := opMixFiles(ev)
	blocks := ev.Blocks
	if blocks <= 0 {
		blocks = defaultBlocks
	}
	horizon := sim.Time(m.s.Horizon)
	for i := 0; i < ev.Clients; i++ {
		stream := m.nextStream
		m.nextStream++
		rng := rand.New(rand.NewSource(m.s.Seed*1_000_003 + int64(stream)))
		client := m.sys.Client(stream % m.sys.Nodes())
		privFile := m.privateFile(stream)
		m.e.Spawn(fmt.Sprintf("opmix/%d", stream), func(p *sim.Proc) {
			buf := make([]byte, m.blockBytes)
			for {
				wait := sim.Duration(rng.ExpFloat64() * float64(think) * 1_000_000 / float64(m.loadPPM))
				p.Sleep(wait)
				if p.Now() >= horizon {
					return
				}
				start := p.Now()
				var err error
				isMeta := rng.Float64() < ev.MetaFrac
				switch {
				case isMeta:
					// Metadata lookup: re-read the first block of a hot
					// shared file — cache-resident except after a writer
					// invalidates it.
					_, err = client.Read(p, xfs.FileID(1+rng.Intn(files)), 0)
				case rng.Intn(2) == 0:
					_, err = client.Read(p, privFile, uint32(rng.Intn(blocks)))
				default:
					// NFS-style write-through: the write is not durable
					// until the sync completes, so the op's latency covers
					// both.
					blk := uint32(rng.Intn(blocks))
					if err = client.Write(p, privFile, blk, buf); err == nil {
						err = client.Sync(p)
					}
				}
				if p.Now() >= horizon {
					return // op straddled the end of the run: not counted
				}
				if err != nil {
					// Ops during fault windows may fail; the stream retries
					// with fresh think time rather than dying.
					m.errors.Inc()
					continue
				}
				m.ops.Inc()
				if isMeta {
					m.meta.Inc()
				} else {
					m.data.Inc()
				}
				m.latency.Observe(int64(p.Now() - start))
			}
		})
	}
}

// opMixFiles is an opmix event's hot-file count.
func opMixFiles(ev Event) int {
	if ev.Files <= 0 {
		return defaultFiles
	}
	return ev.Files
}

// privateFile is a stream's private data file. Hot shared files occupy
// ids [1, files] of their own mix; every private file sits above the
// largest of those ranges, one id per stream across all mixes.
func (m *opMix) privateFile(stream int) xfs.FileID {
	return xfs.FileID(m.privBase + 1 + stream)
}

// tallies reports the counters for the run summary.
func (m *opMix) tallies() (ops, meta, data, errors int64) {
	return m.ops.Value(), m.meta.Value(), m.data.Value(), m.errors.Value()
}
