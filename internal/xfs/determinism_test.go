package xfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/sim"
)

// sharedBlocksRun drives four clients that read and write-sync the same
// four blocks of one file concurrently for 30 virtual seconds, and
// returns the run's stats plus its metrics and trace exports.
func sharedBlocksRun(t *testing.T) (Stats, []byte, []byte) {
	t.Helper()
	e := sim.NewEngine(1)
	defer e.Close()
	reg := obs.NewRegistry()
	e.Observe(reg)
	cfg := DefaultConfig(12)
	sys, err := New(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Instrument(reg)
	const horizon = 30 * sim.Second
	const think = 250 * sim.Millisecond
	for c := 0; c < 4; c++ {
		client := sys.Client(c)
		rng := rand.New(rand.NewSource(int64(100 + c)))
		e.Spawn(fmt.Sprintf("shared/%d", c), func(p *sim.Proc) {
			buf := make([]byte, cfg.BlockBytes)
			for {
				p.Sleep(sim.Duration(rng.ExpFloat64() * float64(think)))
				if p.Now() >= sim.Time(horizon) {
					return
				}
				blk := uint32(rng.Intn(4))
				if rng.Intn(2) == 0 {
					client.Read(p, 1, blk) //nolint:errcheck // outcome shows in the stats
					continue
				}
				if client.Write(p, 1, blk, buf) == nil {
					client.Sync(p) //nolint:errcheck
				}
			}
		})
	}
	if err := e.RunUntil(sim.Time(horizon) + sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	var metrics, spans bytes.Buffer
	if err := reg.WriteMetricsJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteTraceJSON(&spans); err != nil {
		t.Fatal(err)
	}
	return sys.Stats(), metrics.Bytes(), spans.Bytes()
}

// TestSharedBlocksDeterministic pins determinism when several clients
// read and write the same blocks at once: read-token downgrades,
// cache-to-cache fetches and ownership transfers all race on one
// directory entry, and every run must still produce the same bytes.
func TestSharedBlocksDeterministic(t *testing.T) {
	st0, m0, s0 := sharedBlocksRun(t)
	if st0.OwnerYields == 0 || st0.CacheTransfers == 0 {
		t.Fatalf("workload does not share blocks: %+v", st0)
	}
	for run := 1; run < 10; run++ {
		st, m, s := sharedBlocksRun(t)
		if st != st0 {
			t.Fatalf("run %d stats diverged:\n got %+v\nwant %+v", run, st, st0)
		}
		if !bytes.Equal(m, m0) {
			t.Fatalf("run %d metrics JSON diverged", run)
		}
		if !bytes.Equal(s, s0) {
			t.Fatalf("run %d trace JSON diverged", run)
		}
	}
}
