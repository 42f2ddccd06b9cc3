package am

import (
	"math/rand"
	"testing"
)

// TestDedupCachePruneMatchesFullScan drives a dedupCache and a plain
// map through the same random mix of inserts (including stale seqs
// below the prune floor, as a late retransmission or a handler that
// outlives its sender's give-up produces) and prunes with ackedBelow
// values that move forwards and backwards (retransmissions carry the
// ackedBelow of their first send). After every step the cache must hold
// exactly what pruning the whole map on every request would keep.
func TestDedupCachePruneMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := &dedupCache{replies: make(map[uint64]*wire)}
	ref := make(map[uint64]bool)
	next := uint64(1)
	for step := 0; step < 20000; step++ {
		acked := next - uint64(rng.Intn(8))
		if acked > next {
			acked = 0
		}
		c.prune(acked)
		for seq := range ref {
			if seq < acked {
				delete(ref, seq)
			}
		}
		seq := next
		switch rng.Intn(4) {
		case 0:
			seq = next - uint64(rng.Intn(int(next))) // stale or duplicate
		default:
			next++
		}
		c.put(seq, nil)
		ref[seq] = true
		if len(c.replies) != len(ref) {
			t.Fatalf("step %d: cache holds %d seqs, full scan keeps %d", step, len(c.replies), len(ref))
		}
		for s := range ref {
			if _, ok := c.replies[s]; !ok {
				t.Fatalf("step %d: seq %d missing from cache", step, s)
			}
		}
	}
}
