package collective

import (
	"testing"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/proto/am"
	"github.com/nowproject/now/internal/sim"
)

// TestEpochIsolationUnderRetryChurn is the regression for the issue's
// suspicion that consecutive collectives on the same Comm could bleed
// into each other when AM-level retries reorder delivery: a reduce
// contribution from round i retransmitted late must never land in
// round i+1's accumulator, and a stale broadcast payload must never
// satisfy a later round's wait.
//
// Audit conclusion (the suspicion does NOT reproduce, and this test
// pins why): the AM layer delivers per-(src,dst) in FIFO order using
// endpoint-global, never-reused sequence numbers, so a retransmitted
// duplicate is filtered by the receiver's per-source cursor rather
// than re-executing its handler; and every collective message carries
// the round's epoch tag, so even across distinct source pairs a late
// arrival keys into its own round's state. Under heavy seeded loss
// (15%, enough that every run here observes hundreds of retries) each
// round's reduce total and broadcast value stay exact.
func TestEpochIsolationUnderRetryChurn(t *testing.T) {
	const (
		n      = 8
		rounds = 20
	)
	e := sim.NewEngine(7) // fixed seed: deterministic drop pattern
	defer e.Close()
	cfg := netsim.Myrinet(n)
	cfg.LossProb = 0.15
	fab, err := netsim.New(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eps := am.NewFleet(fab, am.DefaultConfig(), nil)
	c, err := New(e, eps, Config{Arity: 2})
	if err != nil {
		t.Fatal(err)
	}

	sums := make([][]int64, n)
	vals := make([][]any, n)
	var procErr error
	for r := 0; r < n; r++ {
		r := r
		e.Spawn("rank", func(p *sim.Proc) {
			for i := 0; i < rounds; i++ {
				// Stagger entries differently each round so fast ranks
				// are already deep into round i+1's sends while slow
				// ranks' round-i retransmissions are still in flight.
				p.Sleep(sim.Duration((r*31+i*17)%97) * 10 * sim.Microsecond)
				// Per-round, per-rank contribution: sums must match
				// exactly or a contribution crossed rounds.
				sum, err := c.AllReduce(p, r, int64(1000*i+r))
				if err != nil {
					procErr = err
					return
				}
				sums[r] = append(sums[r], sum)
				v, err := c.Broadcast(p, r, 5000+i, 64)
				if err != nil {
					procErr = err
					return
				}
				vals[r] = append(vals[r], v)
				if err := c.Barrier(p, r); err != nil {
					procErr = err
					return
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if procErr != nil {
		t.Fatal(procErr)
	}

	for i := 0; i < rounds; i++ {
		want := int64(0)
		for r := 0; r < n; r++ {
			want += int64(1000*i + r)
		}
		for r := 0; r < n; r++ {
			if got := sums[r][i]; got != want {
				t.Fatalf("round %d rank %d: AllReduce = %d, want %d (cross-round contamination)", i, r, got, want)
			}
			if got := vals[r][i]; got != 5000+i {
				t.Fatalf("round %d rank %d: Broadcast = %v, want %d (stale payload)", i, r, got, 5000+i)
			}
		}
	}

	// The test only exercises the claim if loss actually forced
	// retransmissions; with LossProb=0.15 over 8 ranks × 20 rounds the
	// count is in the hundreds for any seed.
	var retries int64
	for _, ep := range eps {
		retries += ep.Stats().Retries
	}
	if retries == 0 {
		t.Fatal("no AM retries observed — the churn this regression depends on did not happen")
	}
	t.Logf("retries under churn: %d", retries)
}
