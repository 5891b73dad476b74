package pgas

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestConfigDefaults(t *testing.T) {
	m := NewMachine(Config{})
	if m.Ranks() != 1 || m.Nodes() != 1 {
		t.Errorf("default machine should have 1 rank / 1 node, got %d/%d", m.Ranks(), m.Nodes())
	}
	m = NewMachine(Config{Ranks: 8, RanksPerNode: 4})
	if m.Ranks() != 8 || m.Nodes() != 2 || m.RanksPerNode() != 4 {
		t.Errorf("machine shape wrong: %d ranks, %d nodes", m.Ranks(), m.Nodes())
	}
	if m.NodeOf(0) != 0 || m.NodeOf(3) != 0 || m.NodeOf(4) != 1 || m.NodeOf(7) != 1 {
		t.Error("NodeOf mapping wrong")
	}
	if m.Cost() == (CostModel{}) {
		t.Error("cost model should default to non-zero")
	}
}

func TestRunExecutesEveryRank(t *testing.T) {
	m := NewMachine(Config{Ranks: 7, RanksPerNode: 2})
	var seen [7]int32
	res := m.Run(func(r *Rank) {
		atomic.AddInt32(&seen[r.ID()], 1)
		if r.NRanks() != 7 {
			t.Errorf("NRanks = %d", r.NRanks())
		}
		if r.Nodes() != 4 {
			t.Errorf("Nodes = %d", r.Nodes())
		}
		r.Compute(100)
	})
	for i, c := range seen {
		if c != 1 {
			t.Errorf("rank %d ran %d times", i, c)
		}
	}
	if res.SimSeconds <= 0 {
		t.Error("simulated time should be positive after compute")
	}
	if res.Stats.ComputeOps != 700 {
		t.Errorf("ComputeOps = %v, want 700", res.Stats.ComputeOps)
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	m := NewMachine(Config{Ranks: 4})
	var clocks [4]float64
	m.Run(func(r *Rank) {
		// Each rank performs a different amount of work before the barrier.
		r.Compute(float64(1000 * (r.ID() + 1)))
		r.Barrier()
		clocks[r.ID()] = r.Clock()
	})
	for i := 1; i < 4; i++ {
		if clocks[i] != clocks[0] {
			t.Errorf("clock of rank %d = %v, rank 0 = %v; barrier must equalize", i, clocks[i], clocks[0])
		}
	}
	// The synchronized clock must be at least the cost of the largest work.
	minExpected := 4000 * m.Cost().ComputePerOp
	if clocks[0] < minExpected {
		t.Errorf("synchronized clock %v < slowest rank %v", clocks[0], minExpected)
	}
}

func TestBarrierReusable(t *testing.T) {
	m := NewMachine(Config{Ranks: 8})
	const rounds = 50
	var mu sync.Mutex
	order := make(map[int]int)
	m.Run(func(r *Rank) {
		for i := 0; i < rounds; i++ {
			r.Barrier()
			mu.Lock()
			order[i]++
			mu.Unlock()
			r.Barrier()
			mu.Lock()
			if order[i] != 8 {
				t.Errorf("round %d: only %d ranks passed the first barrier", i, order[i])
			}
			mu.Unlock()
		}
	})
}

func TestChargeSendOnVsOffNode(t *testing.T) {
	m := NewMachine(Config{Ranks: 4, RanksPerNode: 2})
	var onNode, offNode float64
	m.Run(func(r *Rank) {
		if r.ID() != 0 {
			return
		}
		before := r.Clock()
		r.ChargeSend(1, 1000, 1) // rank 1 shares node 0
		onNode = r.Clock() - before
		before = r.Clock()
		r.ChargeSend(3, 1000, 1) // rank 3 is on node 1
		offNode = r.Clock() - before
		if !r.SameNode(1) || r.SameNode(3) {
			t.Error("SameNode classification wrong")
		}
	})
	if offNode <= onNode {
		t.Errorf("off-node send (%v) should cost more than on-node (%v)", offNode, onNode)
	}
}

func TestChargeGetAndCacheStats(t *testing.T) {
	m := NewMachine(Config{Ranks: 2, RanksPerNode: 1})
	res := m.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.ChargeGet(1, 64, 1)
			r.ChargeCacheHit()
			r.ChargeCacheMiss(1, 64)
		}
	})
	if res.Stats.RemoteGets != 2 {
		t.Errorf("RemoteGets = %d, want 2 (one get + one cache miss)", res.Stats.RemoteGets)
	}
	if res.Stats.CacheHits != 1 || res.Stats.CacheMisses != 1 {
		t.Errorf("cache stats = %d/%d, want 1/1", res.Stats.CacheHits, res.Stats.CacheMisses)
	}
	if res.Stats.OffNodeMessages != 2 {
		t.Errorf("OffNodeMessages = %d, want 2", res.Stats.OffNodeMessages)
	}
}

func TestAtomicFetchAdd(t *testing.T) {
	m := NewMachine(Config{Ranks: 8})
	h := m.NewAtomic(0)
	var claimed sync.Map
	m.Run(func(r *Rank) {
		for {
			v := r.AtomicFetchAdd(h, 1)
			if v >= 100 {
				break
			}
			if _, dup := claimed.LoadOrStore(v, r.ID()); dup {
				t.Errorf("value %d claimed twice", v)
			}
		}
	})
	count := 0
	claimed.Range(func(_, _ any) bool { count++; return true })
	if count != 100 {
		t.Errorf("claimed %d distinct values, want 100", count)
	}
	m.Run(func(r *Rank) {
		if r.ID() == 0 {
			if v := r.AtomicLoad(h); v < 100 {
				t.Errorf("AtomicLoad = %d, want >= 100", v)
			}
		}
	})
}

func TestAllReduce(t *testing.T) {
	m := NewMachine(Config{Ranks: 5})
	m.Run(func(r *Rank) {
		sum := r.AllReduceFloat64(float64(r.ID()+1), ReduceSum)
		if sum != 15 {
			t.Errorf("rank %d: sum = %v, want 15", r.ID(), sum)
		}
		max := r.AllReduceFloat64(float64(r.ID()), ReduceMax)
		if max != 4 {
			t.Errorf("rank %d: max = %v, want 4", r.ID(), max)
		}
		minV := r.AllReduceInt64(int64(r.ID()+10), ReduceMin)
		if minV != 10 {
			t.Errorf("rank %d: min = %v, want 10", r.ID(), minV)
		}
	})
}

func TestGather(t *testing.T) {
	m := NewMachine(Config{Ranks: 4})
	m.Run(func(r *Rank) {
		got := Gather(r, r.ID()*r.ID())
		for i, v := range got {
			if v != i*i {
				t.Errorf("rank %d: gather[%d] = %d, want %d", r.ID(), i, v, i*i)
			}
		}
	})
}

func TestAllToAll(t *testing.T) {
	const p = 6
	m := NewMachine(Config{Ranks: p, RanksPerNode: 3})
	m.Run(func(r *Rank) {
		// Rank s sends to rank d the value s*100+d, repeated d+1 times.
		out := make([][]int, p)
		for d := 0; d < p; d++ {
			for i := 0; i <= d; i++ {
				out[d] = append(out[d], r.ID()*100+d)
			}
		}
		in := AllToAllV(r, out, func(int) int { return 8 })
		for s := 0; s < p; s++ {
			if len(in[s]) != r.ID()+1 {
				t.Errorf("rank %d: from %d got %d items, want %d", r.ID(), s, len(in[s]), r.ID()+1)
			}
			for _, v := range in[s] {
				if v != s*100+r.ID() {
					t.Errorf("rank %d: from %d got value %d", r.ID(), s, v)
				}
			}
		}
	})
}

func TestAllToAllRepeated(t *testing.T) {
	// Repeated exchanges must not leak data between rounds.
	const p = 4
	m := NewMachine(Config{Ranks: p})
	m.Run(func(r *Rank) {
		for round := 0; round < 10; round++ {
			out := make([][]int, p)
			out[(r.ID()+1)%p] = []int{round*1000 + r.ID()}
			in := AllToAllV(r, out, func(int) int { return 8 })
			src := (r.ID() + p - 1) % p
			for s := 0; s < p; s++ {
				if s == src {
					if len(in[s]) != 1 || in[s][0] != round*1000+src {
						t.Errorf("round %d rank %d: wrong data from %d: %v", round, r.ID(), s, in[s])
					}
				} else if len(in[s]) != 0 {
					t.Errorf("round %d rank %d: unexpected data from %d: %v", round, r.ID(), s, in[s])
				}
			}
		}
	})
}

func TestStageTiming(t *testing.T) {
	m := NewMachine(Config{Ranks: 4})
	res := m.Run(func(r *Rank) {
		s := r.StageStart()
		r.Compute(float64(1000 * (r.ID() + 1)))
		r.StageEnd("work", s)
		s = r.StageStart()
		r.Compute(500)
		r.StageEnd("tail", s)
	})
	if len(res.Stages) != 2 {
		t.Fatalf("got %d stages, want 2", len(res.Stages))
	}
	byName := map[string]float64{}
	for _, st := range res.Stages {
		byName[st.Name] = st.Seconds
	}
	if byName["work"] <= byName["tail"] {
		t.Errorf("stage 'work' (%v) should dominate 'tail' (%v)", byName["work"], byName["tail"])
	}
	sorted := SortStages(res.Stages)
	if sorted[0].Name != "work" {
		t.Errorf("SortStages should put 'work' first, got %q", sorted[0].Name)
	}
}

func TestTotalsAccumulate(t *testing.T) {
	m := NewMachine(Config{Ranks: 2})
	m.Run(func(r *Rank) { r.Compute(1000) })
	sim1, _, _ := m.Totals()
	m.Run(func(r *Rank) { r.Compute(1000) })
	sim2, _, stats := m.Totals()
	if sim2 <= sim1 {
		t.Errorf("totals should accumulate: %v then %v", sim1, sim2)
	}
	if stats.ComputeOps != 4000 {
		t.Errorf("total ComputeOps = %v, want 4000", stats.ComputeOps)
	}
}

func TestBlockRange(t *testing.T) {
	cases := []struct {
		n, p int
	}{{10, 3}, {7, 7}, {3, 8}, {0, 4}, {100, 1}, {16, 4}}
	for _, c := range cases {
		covered := 0
		prevHi := 0
		for rank := 0; rank < c.p; rank++ {
			lo, hi := BlockRange(c.n, c.p, rank)
			if lo != prevHi {
				t.Errorf("n=%d p=%d rank=%d: lo=%d, want %d (contiguous)", c.n, c.p, rank, lo, prevHi)
			}
			if hi < lo {
				t.Errorf("n=%d p=%d rank=%d: hi < lo", c.n, c.p, rank)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != c.n {
			t.Errorf("n=%d p=%d: covered %d items", c.n, c.p, covered)
		}
	}
}

func TestBlockRangeProperty(t *testing.T) {
	f := func(nRaw, pRaw uint16) bool {
		n := int(nRaw) % 5000
		p := int(pRaw)%64 + 1
		total := 0
		for rank := 0; rank < p; rank++ {
			lo, hi := BlockRange(n, p, rank)
			if hi < lo || lo < 0 || hi > n {
				return false
			}
			// Block sizes differ by at most one.
			if hi-lo > n/p+1 {
				return false
			}
			total += hi - lo
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSimulatedTimeScalesWithRanks(t *testing.T) {
	// The same total work divided over more ranks should take less simulated
	// time (this is the foundation of the scaling experiments).
	totalWork := 1_000_000.0
	run := func(p int) float64 {
		m := NewMachine(Config{Ranks: p, RanksPerNode: 4})
		res := m.Run(func(r *Rank) {
			r.Compute(totalWork / float64(p))
			r.Barrier()
		})
		return res.SimSeconds
	}
	t1, t4, t16 := run(1), run(4), run(16)
	if !(t1 > t4 && t4 > t16) {
		t.Errorf("simulated time should decrease with ranks: %v, %v, %v", t1, t4, t16)
	}
	if t1/t16 < 8 {
		t.Errorf("16-way speedup of pure compute should be near 16, got %v", t1/t16)
	}
}

func TestAbortOnCancelAbortsRun(t *testing.T) {
	// A cancelled context must abort the machine: every rank unwinds at its
	// next barrier and Run reports ErrAborted joined with the context cause.
	cause := errors.New("tenant hung up")
	ctx, cancel := context.WithCancelCause(context.Background())
	m := NewMachine(Config{Ranks: 4, RanksPerNode: 2})
	stop := m.AbortOnCancel(ctx)
	defer stop()
	started := make(chan struct{})
	var once sync.Once
	go func() {
		<-started
		cancel(cause)
	}()
	res := m.Run(func(r *Rank) {
		// Barrier loop: runs until the abort poisons the barrier. The first
		// completed barrier releases the canceller.
		for {
			r.Compute(100)
			r.Barrier()
			once.Do(func() { close(started) })
		}
	})
	if res.Err == nil {
		t.Fatal("cancelled run must report an error")
	}
	if !errors.Is(res.Err, ErrAborted) || !errors.Is(res.Err, cause) {
		t.Errorf("Err = %v, want ErrAborted joined with the cancel cause", res.Err)
	}
}

func TestAbortOnCancelStopDisarms(t *testing.T) {
	// Calling stop before the context is cancelled must disarm the watcher:
	// a later cancellation no longer aborts the machine.
	ctx, cancel := context.WithCancelCause(context.Background())
	m := NewMachine(Config{Ranks: 2})
	stop := m.AbortOnCancel(ctx)
	stop()
	cancel(errors.New("too late"))
	res := m.Run(func(r *Rank) { r.Barrier() })
	if res.Err != nil {
		t.Errorf("disarmed watcher must not abort, got %v", res.Err)
	}
	// A background (non-cancellable) context arms nothing at all.
	stop2 := m.AbortOnCancel(context.Background())
	stop2()
}
