package swraid

import (
	"bytes"
	"errors"
	"testing"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/node"
	"github.com/nowproject/now/internal/proto/am"
	"github.com/nowproject/now/internal/sim"
)

// raidRig is a client node (id 0) plus n storage nodes (ids 1..n).
type raidRig struct {
	e      *sim.Engine
	arr    *Array
	stores []*Store
	eps    []*am.Endpoint // index 0 = client
}

func newRaidRig(t *testing.T, level Level, nStores, chunkBytes int) *raidRig {
	t.Helper()
	e := sim.NewEngine(1)
	fab, err := netsim.New(e, netsim.Myrinet(nStores+1))
	if err != nil {
		t.Fatal(err)
	}
	acfg := am.DefaultConfig()
	acfg.RetryTimeout = 500 * sim.Microsecond
	acfg.MaxRetries = 3
	r := &raidRig{e: e, eps: am.NewFleet(fab, acfg, nil)}
	ids := make([]netsim.NodeID, 0, nStores)
	for _, ep := range r.eps[1:] {
		r.stores = append(r.stores, NewStore(ep))
		ids = append(ids, ep.ID())
	}
	arr, err := NewArray(r.eps[0], Config{Level: level, ChunkBytes: chunkBytes, Stores: ids})
	if err != nil {
		t.Fatal(err)
	}
	r.arr = arr
	return r
}

func (r *raidRig) run(t *testing.T, body func(p *sim.Proc)) {
	t.Helper()
	r.e.Spawn("driver", func(p *sim.Proc) {
		body(p)
		r.e.Stop()
	})
	if err := r.e.Run(); !errors.Is(err, sim.ErrStopped) {
		t.Fatal(err)
	}
}

// pattern fills count chunks of cb bytes with a deterministic pattern.
func pattern(count, cb int, seed byte) []byte {
	out := make([]byte, count*cb)
	for i := range out {
		out[i] = byte(i)*7 + seed
	}
	return out
}

func TestRoundTripAllLevels(t *testing.T) {
	for _, level := range []Level{RAID0, RAID1, RAID5} {
		t.Run(level.String(), func(t *testing.T) {
			r := newRaidRig(t, level, 4, 1024)
			data := pattern(8, 1024, 3)
			r.run(t, func(p *sim.Proc) {
				if err := r.arr.WriteChunks(p, 0, data); err != nil {
					t.Fatal(err)
				}
				got, err := r.arr.ReadChunks(p, 0, 8)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, data) {
					t.Fatal("read back differs from written data")
				}
			})
		})
	}
}

func TestUnwrittenSpaceReadsZero(t *testing.T) {
	r := newRaidRig(t, RAID0, 3, 512)
	r.run(t, func(p *sim.Proc) {
		got, err := r.arr.ReadChunks(p, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range got {
			if b != 0 {
				t.Fatal("unwritten space not zero")
			}
		}
	})
}

func TestRAID5DegradedReadReconstructs(t *testing.T) {
	r := newRaidRig(t, RAID5, 4, 1024)
	data := pattern(9, 1024, 5) // three full stripes (3 data chunks each)
	r.run(t, func(p *sim.Proc) {
		if err := r.arr.WriteChunks(p, 0, data); err != nil {
			t.Fatal(err)
		}
		// Crash store 2.
		r.eps[2].Detach()
		r.arr.MarkFailed(r.eps[2].ID())
		got, err := r.arr.ReadChunks(p, 0, 9)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("degraded read returned wrong data")
		}
	})
	if _, _, degraded := r.arr.Stats(); degraded == 0 {
		t.Fatal("no degraded reads recorded")
	}
}

func TestRAID1DegradedReadUsesMirror(t *testing.T) {
	r := newRaidRig(t, RAID1, 3, 512)
	data := pattern(6, 512, 9)
	r.run(t, func(p *sim.Proc) {
		if err := r.arr.WriteChunks(p, 0, data); err != nil {
			t.Fatal(err)
		}
		r.eps[1].Detach()
		r.arr.MarkFailed(r.eps[1].ID())
		got, err := r.arr.ReadChunks(p, 0, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("mirror read returned wrong data")
		}
	})
}

func TestRAID0FailureLosesData(t *testing.T) {
	r := newRaidRig(t, RAID0, 3, 512)
	data := pattern(3, 512, 1)
	r.run(t, func(p *sim.Proc) {
		if err := r.arr.WriteChunks(p, 0, data); err != nil {
			t.Fatal(err)
		}
		r.arr.MarkFailed(r.eps[1].ID())
		_, err := r.arr.ReadChunks(p, 0, 3)
		if !errors.Is(err, ErrDataLost) {
			t.Fatalf("err = %v, want ErrDataLost", err)
		}
	})
}

func TestRAID5DoubleFailureLosesData(t *testing.T) {
	r := newRaidRig(t, RAID5, 4, 512)
	data := pattern(3, 512, 2)
	r.run(t, func(p *sim.Proc) {
		if err := r.arr.WriteChunks(p, 0, data); err != nil {
			t.Fatal(err)
		}
		r.arr.MarkFailed(r.eps[1].ID())
		r.arr.MarkFailed(r.eps[2].ID())
		_, err := r.arr.ReadChunks(p, 0, 3)
		if !errors.Is(err, ErrDataLost) {
			t.Fatalf("err = %v, want ErrDataLost", err)
		}
	})
}

func TestRAID5PartialStripeRMW(t *testing.T) {
	r := newRaidRig(t, RAID5, 4, 512)
	full := pattern(6, 512, 7)
	r.run(t, func(p *sim.Proc) {
		if err := r.arr.WriteChunks(p, 0, full); err != nil {
			t.Fatal(err)
		}
		// Overwrite just logical chunk 1 (partial stripe → RMW).
		newChunk := pattern(1, 512, 99)
		if err := r.arr.WriteChunks(p, 1, newChunk); err != nil {
			t.Fatal(err)
		}
		copy(full[512:1024], newChunk)
		// Parity must still be consistent: crash the node holding chunk 1
		// and reconstruct it.
		node1, _, _, _ := r.arr.layout(1)
		for i, ep := range r.eps {
			if ep.ID() == node1 && i > 0 {
				ep.Detach()
			}
		}
		r.arr.MarkFailed(node1)
		got, err := r.arr.ReadChunks(p, 0, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, full) {
			t.Fatal("RMW left parity inconsistent")
		}
	})
}

func TestRebuildRAID5(t *testing.T) {
	// 4 stores + 1 spare (node 5).
	r := newRaidRig(t, RAID5, 5, 512)
	spare := r.eps[5]
	// Use only the first 4 stores in the array.
	ids := []netsim.NodeID{r.eps[1].ID(), r.eps[2].ID(), r.eps[3].ID(), r.eps[4].ID()}
	arr, err := NewArray(r.eps[0], Config{Level: RAID5, ChunkBytes: 512, Stores: ids})
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(9, 512, 4)
	r.run(t, func(p *sim.Proc) {
		if err := arr.WriteChunks(p, 0, data); err != nil {
			t.Fatal(err)
		}
		r.eps[2].Detach()
		arr.MarkFailed(r.eps[2].ID())
		if err := arr.Rebuild(p, r.eps[2].ID(), spare.ID(), 3); err != nil {
			t.Fatal(err)
		}
		got, err := arr.ReadChunks(p, 0, 9)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("data wrong after rebuild")
		}
		// Reads must now be non-degraded again.
		_, _, degBefore := arr.Stats()
		if _, err := arr.ReadChunks(p, 0, 9); err != nil {
			t.Fatal(err)
		}
		if _, _, degAfter := arr.Stats(); degAfter != degBefore {
			t.Fatal("reads still degraded after rebuild")
		}
	})
}

func TestRebuildRAID1(t *testing.T) {
	r := newRaidRig(t, RAID1, 4, 512)
	spare := r.eps[4]
	ids := []netsim.NodeID{r.eps[1].ID(), r.eps[2].ID(), r.eps[3].ID()}
	arr, err := NewArray(r.eps[0], Config{Level: RAID1, ChunkBytes: 512, Stores: ids})
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(6, 512, 8)
	r.run(t, func(p *sim.Proc) {
		if err := arr.WriteChunks(p, 0, data); err != nil {
			t.Fatal(err)
		}
		r.eps[1].Detach()
		arr.MarkFailed(r.eps[1].ID())
		if err := arr.Rebuild(p, r.eps[1].ID(), spare.ID(), 2); err != nil {
			t.Fatal(err)
		}
		got, err := arr.ReadChunks(p, 0, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("data wrong after RAID1 rebuild")
		}
	})
}

func TestStripedReadBandwidthScales(t *testing.T) {
	// The paper: "each workstation can appear to have disk bandwidth
	// limited only by the network link bandwidth" — a striped read from
	// N disks approaches N× one disk's streaming rate.
	readTime := func(nStores int) sim.Duration {
		r := newRaidRig(t, RAID0, nStores, 64*1024)
		data := pattern(nStores*4, 64*1024, 1)
		var elapsed sim.Duration
		r.run(t, func(p *sim.Proc) {
			if err := r.arr.WriteChunks(p, 0, data); err != nil {
				t.Fatal(err)
			}
			start := p.Now()
			if _, err := r.arr.ReadChunks(p, 0, nStores*4); err != nil {
				t.Fatal(err)
			}
			elapsed = p.Now() - start
		})
		return elapsed
	}
	one := readTime(1)
	four := readTime(4)
	// Same total bytes per disk ⇒ similar time; 4 disks move 4× the data.
	ratio := float64(one) / float64(four) * 4 // effective speedup on equal data
	if ratio < 2.5 {
		t.Fatalf("striping speedup = %.2f with 4 disks, want ≳3", ratio)
	}
}

func TestWriteChunksRejectsUnaligned(t *testing.T) {
	r := newRaidRig(t, RAID0, 2, 512)
	r.run(t, func(p *sim.Proc) {
		if err := r.arr.WriteChunks(p, 0, make([]byte, 700)); err == nil {
			t.Fatal("unaligned write accepted")
		}
	})
}

func TestNewArrayValidation(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Close()
	fab, err := netsim.New(e, netsim.Myrinet(4))
	if err != nil {
		t.Fatal(err)
	}
	ep := am.NewEndpoint(e, node.New(e, node.DefaultConfig(0)), fab, am.DefaultConfig())
	if _, err := NewArray(ep, Config{Level: RAID5, ChunkBytes: 512, Stores: []netsim.NodeID{1, 2}}); err == nil {
		t.Fatal("RAID5 with 2 stores accepted")
	}
	if _, err := NewArray(ep, Config{Level: RAID1, ChunkBytes: 512, Stores: []netsim.NodeID{1}}); err == nil {
		t.Fatal("RAID1 with 1 store accepted")
	}
	if _, err := NewArray(ep, Config{Level: RAID0, ChunkBytes: 0, Stores: []netsim.NodeID{1}}); err == nil {
		t.Fatal("zero chunk size accepted")
	}
}

func TestLevelString(t *testing.T) {
	if RAID5.String() != "RAID-5" || RAID0.String() != "RAID-0" || RAID1.String() != "RAID-1" {
		t.Fatal("level names wrong")
	}
}

func TestRebuildUnknownStore(t *testing.T) {
	r := newRaidRig(t, RAID5, 3, 512)
	r.run(t, func(p *sim.Proc) {
		if err := r.arr.Rebuild(p, netsim.NodeID(99), netsim.NodeID(98), 1); err == nil {
			t.Fatal("rebuild of unknown store succeeded")
		}
	})
}
