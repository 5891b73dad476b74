package dht

import (
	"maps"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mhmgo/internal/pgas"
)

func intHash(k int) uint64 {
	x := uint64(k) * 0x9e3779b97f4a7c15
	x ^= x >> 32
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return x
}

func TestMapPutGetAcrossRanks(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 4, RanksPerNode: 2})
	dm := NewMap[int, string](m, intHash, 32)
	m.Run(func(r *pgas.Rank) {
		// Every rank writes 100 keys in its own stripe.
		for i := 0; i < 100; i++ {
			key := r.ID()*1000 + i
			dm.Put(r, key, "v")
		}
		r.Barrier()
		// Every rank reads keys written by every other rank.
		for rank := 0; rank < r.NRanks(); rank++ {
			for i := 0; i < 100; i++ {
				if _, ok := dm.Get(r, rank*1000+i); !ok {
					t.Errorf("rank %d: key %d missing", r.ID(), rank*1000+i)
				}
			}
		}
		if _, ok := dm.Get(r, 999999); ok {
			t.Error("nonexistent key found")
		}
	})
	if dm.Len() != 400 {
		t.Errorf("Len = %d, want 400", dm.Len())
	}
}

func TestMapOwnerPartitioning(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 8})
	dm := NewMap[int, int](m, intHash, 16)
	counts := make([]int, 8)
	for k := 0; k < 10000; k++ {
		counts[dm.Owner(k)]++
	}
	for rank, c := range counts {
		if c < 10000/16 || c > 10000/4 {
			t.Errorf("rank %d owns %d of 10000 keys; partitioning is badly skewed", rank, c)
		}
	}
	// Snapshot/LocalLen consistency.
	m.Run(func(r *pgas.Rank) {
		lo, hi := r.BlockRange(1000)
		for k := lo; k < hi; k++ {
			dm.Put(r, k, k*2)
		}
	})
	total := 0
	for rank := 0; rank < 8; rank++ {
		total += dm.LocalLen(rank)
	}
	if total != 1000 || dm.Len() != 1000 {
		t.Errorf("LocalLen sum = %d, Len = %d, want 1000", total, dm.Len())
	}
	snap := dm.Snapshot()
	if len(snap) != 1000 || snap[500] != 1000 {
		t.Errorf("snapshot wrong: len=%d snap[500]=%d", len(snap), snap[500])
	}
}

func TestMapDelete(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 2})
	dm := NewMap[int, int](m, intHash, 16)
	m.Run(func(r *pgas.Rank) {
		if r.ID() == 0 {
			dm.Put(r, 1, 10)
			dm.Put(r, 2, 20)
		}
		r.Barrier()
		if r.ID() == 1 {
			dm.Delete(r, 1)
		}
		r.Barrier()
		if _, ok := dm.Get(r, 1); ok {
			t.Error("deleted key still present")
		}
		if v, ok := dm.Get(r, 2); !ok || v != 20 {
			t.Error("surviving key lost")
		}
	})
}

func TestNewMapCollective(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 4})
	m.Run(func(r *pgas.Rank) {
		dm := NewMapCollective[int, int](r, intHash, 16)
		if dm == nil {
			t.Errorf("rank %d received nil map", r.ID())
			return
		}
		dm.Put(r, r.ID(), r.ID())
		r.Barrier()
		for i := 0; i < 4; i++ {
			if v, ok := dm.Get(r, i); !ok || v != i {
				t.Errorf("rank %d: key %d = %d,%v", r.ID(), i, v, ok)
			}
		}
	})
}

func TestMutateAtomicity(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 8})
	dm := NewMap[string, int](m, func(s string) uint64 { return 7 }, 16)
	const perRank = 500
	m.Run(func(r *pgas.Rank) {
		for i := 0; i < perRank; i++ {
			Mutate(dm, r, "counter", func(v int, found bool) (int, bool, int) {
				return v + 1, true, v
			})
		}
	})
	snap := dm.Snapshot()
	if snap["counter"] != 8*perRank {
		t.Errorf("counter = %d, want %d; Mutate is not atomic", snap["counter"], 8*perRank)
	}
}

func TestMutateTestAndSet(t *testing.T) {
	// Models the speculative traversal "used flag": exactly one rank may
	// claim each key.
	m := pgas.NewMachine(pgas.Config{Ranks: 8})
	dm := NewMap[int, bool](m, intHash, 8)
	var claims int64
	m.Run(func(r *pgas.Rank) {
		for key := 0; key < 200; key++ {
			won := Mutate(dm, r, key, func(used bool, found bool) (bool, bool, bool) {
				if found && used {
					return used, false, false
				}
				return true, true, true
			})
			if won {
				atomic.AddInt64(&claims, 1)
			}
		}
	})
	if claims != 200 {
		t.Errorf("%d claims, want exactly 200 (one per key)", claims)
	}
}

func TestUpdaterAggregation(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 4, RanksPerNode: 1})
	combine := func(existing, update int, found bool) int {
		if !found {
			return update
		}
		return existing + update
	}

	// Aggregated updates.
	dmAgg := NewMap[int, int](m, intHash, 16)
	resAgg := m.Run(func(r *pgas.Rank) {
		u := dmAgg.NewUpdater(r, combine, 64, true)
		for i := 0; i < 1000; i++ {
			u.Update(i%50, 1)
		}
		u.Flush()
		if u.Pending() != 0 {
			t.Errorf("pending updates after flush: %d", u.Pending())
		}
		r.Barrier()
	})

	// Unaggregated updates (one message per update).
	dmRaw := NewMap[int, int](m, intHash, 16)
	resRaw := m.Run(func(r *pgas.Rank) {
		u := dmRaw.NewUpdater(r, combine, 64, false)
		for i := 0; i < 1000; i++ {
			u.Update(i%50, 1)
		}
		u.Flush()
		r.Barrier()
	})

	// Both must produce identical contents: 4 ranks x 20 occurrences of each
	// of the 50 keys.
	snapA, snapR := dmAgg.Snapshot(), dmRaw.Snapshot()
	if len(snapA) != 50 || len(snapR) != 50 {
		t.Fatalf("snapshot sizes %d/%d, want 50", len(snapA), len(snapR))
	}
	for k, v := range snapA {
		if v != 80 {
			t.Errorf("aggregated key %d = %d, want 80", k, v)
		}
		if snapR[k] != v {
			t.Errorf("aggregation changed results for key %d: %d vs %d", k, v, snapR[k])
		}
	}

	// Aggregation must reduce message count and simulated time.
	if resAgg.Stats.Messages >= resRaw.Stats.Messages {
		t.Errorf("aggregated messages (%d) should be fewer than unaggregated (%d)",
			resAgg.Stats.Messages, resRaw.Stats.Messages)
	}
	if resAgg.SimSeconds >= resRaw.SimSeconds {
		t.Errorf("aggregated time (%v) should beat unaggregated (%v)",
			resAgg.SimSeconds, resRaw.SimSeconds)
	}
}

func TestUpdaterLocalShortcut(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 1})
	dm := NewMap[int, int](m, intHash, 16)
	res := m.Run(func(r *pgas.Rank) {
		u := dm.NewUpdater(r, func(e, v int, ok bool) int { return e + v }, 8, true)
		for i := 0; i < 100; i++ {
			u.Update(i, i)
		}
		u.Flush()
	})
	if res.Stats.Messages != 0 {
		t.Errorf("single-rank updates should not send messages, got %d", res.Stats.Messages)
	}
	if dm.Len() != 100 {
		t.Errorf("Len = %d, want 100", dm.Len())
	}
}

func TestUpdaterFlushAllStaggered(t *testing.T) {
	// FlushAll walks the destinations starting at the caller's own rank (so
	// concurrent end-of-phase flushes don't convoy on partition 0); the
	// staggered order must change neither the contents nor the charged cost.
	for _, p := range []int{1, 3, 8} {
		m := pgas.NewMachine(pgas.Config{Ranks: p})
		dm := NewMap[int, int](m, intHash, 16)
		res := m.Run(func(r *pgas.Rank) {
			u := dm.NewUpdater(r, func(e, v int, ok bool) int { return e + v }, 1<<20, true)
			for i := 0; i < 300; i++ {
				u.Update(i, 1)
			}
			u.FlushAll()
			if u.Pending() != 0 {
				t.Errorf("p=%d rank %d: %d updates still pending after FlushAll", p, r.ID(), u.Pending())
			}
			r.Barrier()
		})
		for i := 0; i < 300; i++ {
			if v, ok := dm.Lookup(i); !ok || v != p {
				t.Errorf("p=%d key %d = %d (found=%v), want %d", p, i, v, ok, p)
			}
		}
		// One aggregated message per non-local destination per rank.
		if want := uint64(p * (p - 1)); res.Stats.Messages != want {
			t.Errorf("p=%d: %d messages, want %d", p, res.Stats.Messages, want)
		}
	}
}

// denseFlushAll is the historical FlushAll: it visits all P destinations in
// the staggered order (d-start+P)%P, empty or not. It is kept as the oracle
// the sparse FlushAll must match charge for charge.
func denseFlushAll[K comparable, V any](u *Updater[K, V]) {
	p := u.m.machine.Ranks()
	start := u.r.ID()
	for i := 0; i < p; i++ {
		u.flushDest((start + i) % p)
	}
}

// TestUpdaterFlushAllMatchesDenseOracle pins the sparse FlushAll against the
// dense all-destinations loop at P=64. Each rank buffers random updates to a
// rank-dependent number of destinations; both flushes must leave bit-identical
// rank clocks and equal per-rank CommStats (so the charges were folded into
// each clock in the same staggered order, not merely summed to the same
// total) and equal map contents. The aggregate=false and auto-flush cases
// reach FlushAll with fewer or no batches left over.
func TestUpdaterFlushAllMatchesDenseOracle(t *testing.T) {
	const ranks = 64
	type outcome struct {
		clocks []uint64
		stats  []pgas.CommStats
		total  pgas.CommStats
		snap   map[int]int
	}
	run := func(batchSize int, aggregate bool, flush func(*Updater[int, int])) outcome {
		m := pgas.NewMachine(pgas.Config{Ranks: ranks, RanksPerNode: 8})
		dm := NewMap[int, int](m, intHash, 16)
		out := outcome{clocks: make([]uint64, ranks), stats: make([]pgas.CommStats, ranks)}
		res := m.Run(func(r *pgas.Rank) {
			rng := rand.New(rand.NewSource(int64(r.ID())))
			u := dm.NewUpdater(r, func(e, v int, _ bool) int { return e + v }, batchSize, aggregate)
			// Key pools from one key (one destination) up to thousands
			// (every destination), so some ranks flush to a handful of
			// partitions and others to all of them.
			pool := 1 + rng.Intn(2000)
			for i, n := 0, rng.Intn(1500); i < n; i++ {
				u.Update(rng.Intn(pool), 1+rng.Intn(9))
			}
			flush(u)
			if u.Pending() != 0 {
				t.Errorf("rank %d: %d updates pending after flush", r.ID(), u.Pending())
			}
			out.clocks[r.ID()] = math.Float64bits(r.Clock())
			out.stats[r.ID()] = r.Stats()
			r.Barrier()
		})
		out.total = res.Stats
		out.snap = dm.Snapshot()
		return out
	}
	for _, tc := range []struct {
		name      string
		batchSize int
		aggregate bool
	}{
		{"aggregate", 1 << 20, true},
		{"auto-flush", 5, true},
		{"unaggregated", 1 << 20, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := run(tc.batchSize, tc.aggregate, (*Updater[int, int]).FlushAll)
			want := run(tc.batchSize, tc.aggregate, denseFlushAll[int, int])
			for rank := 0; rank < ranks; rank++ {
				if got.clocks[rank] != want.clocks[rank] {
					t.Errorf("rank %d clock %v, dense oracle %v", rank,
						math.Float64frombits(got.clocks[rank]), math.Float64frombits(want.clocks[rank]))
				}
				if got.stats[rank] != want.stats[rank] {
					t.Errorf("rank %d stats %+v, dense oracle %+v", rank, got.stats[rank], want.stats[rank])
				}
			}
			if got.total != want.total {
				t.Errorf("run stats %+v, dense oracle %+v", got.total, want.total)
			}
			if !maps.Equal(got.snap, want.snap) {
				t.Errorf("map contents differ from the dense oracle (%d vs %d entries)", len(got.snap), len(want.snap))
			}
			if len(got.snap) == 0 {
				t.Error("no updates landed")
			}
		})
	}
}

func TestForEachLocalAndUpdateLocal(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 4})
	dm := NewMap[int, int](m, intHash, 16)
	m.Run(func(r *pgas.Rank) {
		u := dm.NewUpdater(r, func(e, v int, ok bool) int { return e + v }, 32, true)
		lo, hi := r.BlockRange(400)
		for i := lo; i < hi; i++ {
			u.Update(i, 1)
		}
		u.Flush()
		r.Barrier()
		// Each rank doubles its local entries.
		var localKeys []int
		dm.ForEachLocal(r, func(k, v int) { localKeys = append(localKeys, k) })
		for _, k := range localKeys {
			dm.UpdateLocal(r, k, func(v int, found bool) int {
				if !found {
					t.Errorf("local key %d vanished", k)
				}
				return v * 2
			})
		}
		r.Barrier()
	})
	snap := dm.Snapshot()
	if len(snap) != 400 {
		t.Fatalf("len = %d, want 400", len(snap))
	}
	for k, v := range snap {
		if v != 2 {
			t.Errorf("key %d = %d, want 2", k, v)
		}
	}
}

func TestCachedReader(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 4, RanksPerNode: 1})
	dm := NewMap[int, int](m, intHash, 64)
	// Populate.
	m.Run(func(r *pgas.Rank) {
		if r.ID() == 0 {
			for i := 0; i < 100; i++ {
				dm.Put(r, i, i)
			}
		}
	})

	var cachedTime, uncachedTime float64
	resCached := m.Run(func(r *pgas.Rank) {
		c := dm.NewCachedReader(r, 1024, true)
		for pass := 0; pass < 10; pass++ {
			for i := 0; i < 100; i++ {
				if v, ok := c.Get(i); !ok || v != i {
					t.Errorf("cached get %d = %d,%v", i, v, ok)
				}
			}
		}
		// Negative lookups are also cached.
		for pass := 0; pass < 10; pass++ {
			if _, ok := c.Get(100000); ok {
				t.Error("phantom key")
			}
		}
		if c.HitRate() < 0.5 {
			t.Errorf("hit rate %v too low for repeated reads", c.HitRate())
		}
	})
	cachedTime = resCached.SimSeconds

	resUncached := m.Run(func(r *pgas.Rank) {
		c := dm.NewCachedReader(r, 1024, false)
		for pass := 0; pass < 10; pass++ {
			for i := 0; i < 100; i++ {
				c.Get(i)
			}
		}
		hits, misses := c.Stats()
		if hits+misses != 1000 {
			t.Errorf("stats %d+%d != 1000", hits, misses)
		}
	})
	uncachedTime = resUncached.SimSeconds

	if cachedTime >= uncachedTime {
		t.Errorf("software cache should reduce simulated time: %v vs %v", cachedTime, uncachedTime)
	}
}

func TestRoute(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 4})
	totalReceived := int64(0)
	m.Run(func(r *pgas.Rank) {
		// Each rank emits 100 items labelled with a destination.
		items := make([]int, 100)
		for i := range items {
			items[i] = i % 7
		}
		got := Route(r, items, func(v int) int { return v }, 8)
		for _, v := range got {
			if v%4 != r.ID() {
				t.Errorf("rank %d received item %d owned by rank %d", r.ID(), v, v%4)
			}
		}
		atomic.AddInt64(&totalReceived, int64(len(got)))
	})
	if totalReceived != 400 {
		t.Errorf("total routed items = %d, want 400", totalReceived)
	}
}

func TestStripeConfiguration(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 2})
	cases := []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {7, 8}, {8, 8}, {9, 16}, {63, 64},
	}
	for _, c := range cases {
		dm := NewMap[int, int](m, intHash, 16, WithStripes(c.in))
		if dm.Stripes() != c.want {
			t.Errorf("WithStripes(%d) -> %d stripes, want %d", c.in, dm.Stripes(), c.want)
		}
	}
	dm := NewMap[int, int](m, intHash, 16)
	if dm.Stripes() != DefaultStripes() {
		t.Errorf("default stripes = %d, want %d", dm.Stripes(), DefaultStripes())
	}
	if ds := DefaultStripes(); ds < 8 || ds&(ds-1) != 0 {
		t.Errorf("DefaultStripes() = %d, want a power of two >= 8", ds)
	}
}

func TestOwnerStripeIndependence(t *testing.T) {
	// Keys that all hash to one owner rank (low bits) must still spread over
	// the stripes (high bits): a hot rank's traffic is divided stripeCount
	// ways instead of serializing on one lock.
	m := pgas.NewMachine(pgas.Config{Ranks: 8})
	dm := NewMap[int, int](m, intHash, 16, WithStripes(16))
	perStripe := make(map[uint64]int)
	n := 0
	for k := 0; n < 4000; k++ {
		if dm.Owner(k) != 0 {
			continue
		}
		n++
		perStripe[dm.stripeOf(k)]++
	}
	if len(perStripe) != 16 {
		t.Fatalf("hot-rank keys landed on %d stripes, want all 16", len(perStripe))
	}
	for si, c := range perStripe {
		if c < 4000/16/4 || c > 4000/16*4 {
			t.Errorf("stripe %d holds %d of 4000 hot-rank keys; badly skewed", si, c)
		}
	}
}

func TestFreezeThaw(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 4})
	dm := NewMap[int, int](m, intHash, 16, WithStripes(4))
	m.Run(func(r *pgas.Rank) {
		lo, hi := r.BlockRange(400)
		for k := lo; k < hi; k++ {
			dm.Put(r, k, k*3)
		}
		r.Barrier()
		dm.Freeze() // idempotent, every rank may call it
		if !dm.Frozen() {
			t.Error("map not frozen after Freeze")
		}
		// Lock-free reads see the full table.
		for k := 0; k < 400; k++ {
			if v, ok := dm.Get(r, k); !ok || v != k*3 {
				t.Errorf("frozen Get(%d) = %d,%v", k, v, ok)
			}
		}
		c := dm.NewCachedReader(r, 1024, true)
		c.Freeze() // delegates to the map; still idempotent
		for k := 0; k < 400; k++ {
			if v, ok := c.Get(k); !ok || v != k*3 {
				t.Errorf("frozen cached Get(%d) = %d,%v", k, v, ok)
			}
		}
		n := 0
		dm.ForEachLocal(r, func(k, v int) { n++ })
		if n != dm.LocalLen(r.ID()) {
			t.Errorf("frozen ForEachLocal visited %d entries, LocalLen = %d", n, dm.LocalLen(r.ID()))
		}
	})
	if dm.Len() != 400 {
		t.Errorf("frozen Len = %d, want 400", dm.Len())
	}
	if snap := dm.Snapshot(); len(snap) != 400 || snap[7] != 21 {
		t.Errorf("frozen Snapshot wrong: len=%d snap[7]=%d", len(snap), snap[7])
	}

	// Mutating a frozen map is a phase-discipline bug and must panic. The
	// recover has to live inside the rank body: panics do not cross
	// goroutines.
	m.Run(func(r *pgas.Rank) {
		if r.ID() != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("Put on frozen map did not panic")
			}
		}()
		dm.Put(r, 12345, 1)
	})

	// Thaw re-enables writes.
	dm.Thaw()
	if dm.Frozen() {
		t.Error("map still frozen after Thaw")
	}
	m.Run(func(r *pgas.Rank) {
		if r.ID() == 0 {
			dm.Put(r, 10000, 1)
		}
	})
	if dm.Len() != 401 {
		t.Errorf("Len after thawed Put = %d, want 401", dm.Len())
	}
}

// hotRankKeys returns n keys that all hash to owner rank 0 of dm.
func hotRankKeys(dm *Map[int, int], n int) []int {
	keys := make([]int, 0, n)
	for k := 0; len(keys) < n; k++ {
		if dm.Owner(k) == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestSingleOwnerStress drives every rank's traffic at a single hot owner
// rank through all three mutation APIs and asserts the final counts are
// exact. Run with -race, this is the regression test for stripe-level
// synchronization.
func TestSingleOwnerStress(t *testing.T) {
	const (
		ranks   = 8
		nKeys   = 64
		perRank = 2000
	)
	for _, stripes := range []int{1, 4, 0} {
		m := pgas.NewMachine(pgas.Config{Ranks: ranks})
		dm := NewMap[int, int](m, intHash, 16, WithStripes(stripes))
		keys := hotRankKeys(dm, nKeys)
		add := func(e, v int, ok bool) int { return e + v }
		m.Run(func(r *pgas.Rank) {
			u := dm.NewUpdater(r, add, 128, true)
			for i := 0; i < perRank; i++ {
				key := keys[(i+r.ID())%nKeys]
				// One remote atomic, one buffered update, one direct write
				// (Put of an unrelated per-rank key) per iteration.
				Mutate(dm, r, key, func(v int, found bool) (int, bool, int) {
					return v + 1, true, 0
				})
				u.Update(key, 1)
				dm.Put(r, 1_000_000+r.ID()*perRank+i, 1)
			}
			u.Flush()
			r.Barrier()
		})
		snap := dm.Snapshot()
		total := 0
		for _, k := range keys {
			total += snap[k]
		}
		want := 2 * ranks * perRank // Mutate + Updater contributions
		if total != want {
			t.Errorf("stripes=%d: hot keys sum to %d, want %d", stripes, total, want)
		}
		if dm.Len() != nKeys+ranks*perRank {
			t.Errorf("stripes=%d: Len = %d, want %d", stripes, dm.Len(), nKeys+ranks*perRank)
		}
	}
}

// TestStripingContentionSpeedup asserts the headline claim of the striped
// layout: with enough physical parallelism for the rank goroutines to
// actually contend, Mutate throughput against a single hot owner rank is at
// least 2x higher with striping than with the historical single lock. On
// machines with fewer than 8 CPUs the goroutines are time-sliced rather than
// parallel, a single uncontended lock costs nearly nothing, and the effect
// cannot manifest — the test skips with an explanation rather than pretend.
func TestStripingContentionSpeedup(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation distorts contention timing; " +
			"run without -race for the speedup assertion")
	}
	const (
		ranks   = 8
		perRank = 300_000
	)
	// Gate on *measured* parallelism, not runtime.NumCPU(): cgroup CPU quotas
	// and loaded machines can leave far fewer effective cores than NumCPU
	// reports, and without real parallelism an uncontended single lock costs
	// almost nothing, so the striping effect cannot manifest. The threshold
	// sits well above a 4-core machine's ideal scaling so it cannot arm
	// nondeterministically at that boundary.
	if speedup := measuredParallelSpeedup(ranks); speedup < 6 {
		t.Skipf("lock-free control workload scales only %.1fx over %d goroutines; "+
			"not enough effective parallelism to exhibit lock contention "+
			"(run BenchmarkDHTContention for the per-op numbers on this machine)",
			speedup, ranks)
	}
	throughput := func(stripes int) float64 {
		best := 0.0
		for attempt := 0; attempt < 3; attempt++ {
			m := pgas.NewMachine(pgas.Config{Ranks: ranks})
			dm := NewMap[int, int](m, intHash, 16, WithStripes(stripes))
			keys := hotRankKeys(dm, 1024)
			res := m.Run(func(r *pgas.Rank) {
				for i := 0; i < perRank; i++ {
					Mutate(dm, r, keys[(i*ranks+r.ID())&1023], func(v int, found bool) (int, bool, int) {
						return v + 1, true, 0
					})
				}
			})
			if ops := float64(ranks*perRank) / res.Wall.Seconds(); ops > best {
				best = ops
			}
		}
		return best
	}
	single := throughput(1)
	striped := throughput(0)
	t.Logf("single-lock: %.1f Mops/s, striped: %.1f Mops/s (%.2fx)",
		single/1e6, striped/1e6, striped/single)
	if striped < 2*single {
		// Guard against load that arrived mid-test: if the machine can no
		// longer deliver the parallelism the gate saw, the measurement is
		// void, not a regression.
		if speedup := measuredParallelSpeedup(ranks); speedup < 6 {
			t.Skipf("parallelism degraded to %.1fx during the test (external load); measurement void", speedup)
		}
		t.Errorf("striped throughput %.1f Mops/s is less than 2x the single-lock %.1f Mops/s",
			striped/1e6, single/1e6)
	}
}

// measuredParallelSpeedup runs a lock-free, share-nothing hash workload once
// on a single goroutine and once split over n goroutines, and returns the
// observed speedup — an empirical measure of how much parallelism the
// machine can actually deliver right now.
func measuredParallelSpeedup(n int) float64 {
	const totalOps = 8_000_000
	work := func(lo, hi int) uint64 {
		var acc uint64
		for i := lo; i < hi; i++ {
			acc ^= intHash(i)
		}
		return acc
	}
	start := time.Now()
	sink := work(0, totalOps)
	seq := time.Since(start)

	var wg sync.WaitGroup
	accs := make([]uint64, n)
	start = time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			accs[g] = work(g*totalOps/n, (g+1)*totalOps/n)
		}(g)
	}
	wg.Wait()
	par := time.Since(start)
	for _, a := range accs {
		sink ^= a
	}
	runtime.KeepAlive(sink)
	return seq.Seconds() / par.Seconds()
}

// BenchmarkDHTContention measures Mutate throughput when every rank hammers
// keys owned by a single hot rank — the workload that serialized on one
// mutex before lock striping. stripes=1 reproduces the historical layout.
func BenchmarkDHTContention(b *testing.B) {
	b.Run("stripes=1", func(b *testing.B) { benchmarkContention(b, 1) })
	b.Run("striped", func(b *testing.B) { benchmarkContention(b, 0) })
}

func benchmarkContention(b *testing.B, stripes int) {
	const ranks = 8
	// Contention only manifests when the rank goroutines actually run on
	// multiple Ps. On small CI machines, pin GOMAXPROCS to the rank count
	// (the same knob `go test -cpu` turns) so the single-lock layout pays
	// its real cross-thread handoff cost.
	if runtime.GOMAXPROCS(0) < ranks {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(ranks))
	}
	m := pgas.NewMachine(pgas.Config{Ranks: ranks})
	dm := NewMap[int, int](m, intHash, 16, WithStripes(stripes))
	keys := hotRankKeys(dm, 1024)
	b.ResetTimer()
	m.Run(func(r *pgas.Rank) {
		for i := r.ID(); i < b.N; i += ranks {
			Mutate(dm, r, keys[i&1023], func(v int, found bool) (int, bool, int) {
				return v + 1, true, 0
			})
		}
	})
}

// BenchmarkDHTFrozenReads measures the read-only phase with and without
// Freeze: frozen reads skip the stripe lock entirely and hit one immutable
// map, which pays off even without physical parallelism.
func BenchmarkDHTFrozenReads(b *testing.B) {
	for _, frozen := range []bool{false, true} {
		name := "locked"
		if frozen {
			name = "frozen"
		}
		b.Run(name, func(b *testing.B) {
			const ranks = 8
			m := pgas.NewMachine(pgas.Config{Ranks: ranks})
			dm := NewMap[int, int](m, intHash, 16)
			keys := hotRankKeys(dm, 1024)
			m.Run(func(r *pgas.Rank) {
				if r.ID() == 0 {
					for _, k := range keys {
						dm.Put(r, k, k)
					}
				}
			})
			if frozen {
				dm.Freeze()
			}
			b.ResetTimer()
			m.Run(func(r *pgas.Rank) {
				for i := r.ID(); i < b.N; i += ranks {
					dm.Get(r, keys[i&1023])
				}
			})
		})
	}
}

// BenchmarkDHTUpdaterFlush measures the aggregated update phase against a
// single hot rank: striped flushes take each stripe lock once per batch.
func BenchmarkDHTUpdaterFlush(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		stripes int
	}{{"stripes=1", 1}, {"striped", 0}} {
		b.Run(cfg.name, func(b *testing.B) {
			const ranks = 8
			if runtime.GOMAXPROCS(0) < ranks {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(ranks))
			}
			m := pgas.NewMachine(pgas.Config{Ranks: ranks})
			dm := NewMap[int, int](m, intHash, 16, WithStripes(cfg.stripes))
			keys := hotRankKeys(dm, 1024)
			add := func(e, v int, ok bool) int { return e + v }
			b.ResetTimer()
			m.Run(func(r *pgas.Rank) {
				u := dm.NewUpdater(r, add, 256, true)
				for i := r.ID(); i < b.N; i += ranks {
					u.Update(keys[i&1023], 1)
				}
				u.Flush()
			})
		})
	}
}

func TestRouteNegativeOwner(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 3})
	m.Run(func(r *pgas.Rank) {
		items := []int{-1, -2, -3, 0, 1, 2}
		got := Route(r, items, func(v int) int { return v }, 8)
		for _, v := range got {
			owner := v % 3
			if owner < 0 {
				owner += 3
			}
			if owner != r.ID() {
				t.Errorf("rank %d got item %d (owner %d)", r.ID(), v, owner)
			}
		}
	})
}
