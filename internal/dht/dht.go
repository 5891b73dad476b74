// Package dht implements the distributed hash tables that are the backbone
// of every parallel algorithm in the assembler, mirroring Section II-A of
// the MetaHipMer paper.
//
// A Map partitions its entries over the ranks of a virtual PGAS machine by
// hashing each key to an owner rank. Within a rank's partition, entries are
// further divided into a power-of-two number of independently locked
// *stripes*, so that concurrent accesses to the same owner rank only contend
// when they hit the same stripe. Owner selection uses the low bits of the key
// hash (modulo the rank count) and stripe selection uses the high bits, so
// the two are independent for any well-mixed hash.
//
// The package provides dedicated APIs for the four usage phases identified in
// the paper:
//
//   - Use case 1, "Global Update-Only": Updater aggregates fine-grained
//     commutative updates into per-destination batches, dramatically reducing
//     the number of messages (and the simulated communication cost). Each
//     flushed batch is grouped by stripe so every stripe lock is taken at
//     most once per flush.
//   - Use case 2, "Global Reads & Writes": Get/Put/Mutate perform one-sided
//     reads, writes and atomic read-modify-write operations on remote entries.
//   - Use case 3, "Global Read-Only": CachedReader adds a per-rank software
//     cache in front of Get for phases where the table is no longer mutated.
//     Freeze switches the whole map into a lock-free read-only phase backed
//     by an immutable per-partition snapshot.
//   - Use case 4, "Local Reads & Writes": Route ships items to their owner
//     rank with a single all-to-all exchange so the owner can process them in
//     a purely local hash table.
package dht

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"mhmgo/internal/pgas"
)

// Map is a distributed hash table partitioned over the ranks of a machine.
// The zero value is not usable; construct with NewMap (from the coordinator,
// before Machine.Run) or NewMapCollective (from inside an SPMD region).
type Map[K comparable, V any] struct {
	machine    *pgas.Machine
	hash       func(K) uint64
	entryBytes int

	// stripeShift maps the high bits of a key hash to a stripe index:
	// stripe = hash >> stripeShift. With stripeCount a power of two this
	// selects the top log2(stripeCount) bits, which are independent of the
	// low bits used for owner-rank selection.
	stripeShift uint
	stripeCount int

	parts []partition[K, V]

	// frozen flips the whole map into the read-only phase: reads skip the
	// stripe locks and mutations panic. The stripe maps themselves are the
	// immutable snapshot — no data is copied.
	frozen atomic.Bool
}

// partition is one rank's share of the map: an array of independently locked
// stripes.
type partition[K comparable, V any] struct {
	stripes []stripe[K, V]
}

// stripe is one lock's worth of a partition. The padding keeps hot stripe
// locks on distinct cache lines so striping actually removes contention
// instead of moving it into false sharing.
type stripe[K comparable, V any] struct {
	mu   sync.Mutex
	data map[K]V
	_    [48]byte
}

// options collects the constructor options of a Map.
type options struct {
	stripes int
}

// Option configures a Map at construction time.
type Option func(*options)

// WithStripes sets the number of lock stripes per rank partition. n is
// rounded up to a power of two; n <= 0 selects DefaultStripes. Stripe count 1
// reproduces the historical one-lock-per-rank layout (used by the contention
// ablation and benchmarks).
func WithStripes(n int) Option {
	return func(o *options) { o.stripes = n }
}

// DefaultStripes returns the default stripe count per partition:
// max(8, GOMAXPROCS) rounded up to a power of two, so that on any machine the
// goroutines of all ranks can simultaneously hold distinct stripe locks of a
// single hot partition.
func DefaultStripes() int {
	n := runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	return ceilPow2(n)
}

func ceilPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// NewMap creates a distributed map on the given machine. hash must be a
// deterministic, well-mixed hash of the key; entryBytes is the approximate
// wire size of one entry, used by the communication cost model.
func NewMap[K comparable, V any](m *pgas.Machine, hash func(K) uint64, entryBytes int, opts ...Option) *Map[K, V] {
	if entryBytes <= 0 {
		entryBytes = 16
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	stripes := o.stripes
	if stripes <= 0 {
		stripes = DefaultStripes()
	}
	stripes = ceilPow2(stripes)
	dm := &Map[K, V]{
		machine:     m,
		hash:        hash,
		entryBytes:  entryBytes,
		stripeCount: stripes,
		stripeShift: uint(64 - bits.Len(uint(stripes-1))),
	}
	dm.parts = make([]partition[K, V], m.Ranks())
	for i := range dm.parts {
		dm.parts[i].stripes = make([]stripe[K, V], stripes)
		for s := range dm.parts[i].stripes {
			dm.parts[i].stripes[s].data = make(map[K]V)
		}
	}
	return dm
}

// NewMapCollective creates a distributed map from inside an SPMD region:
// rank 0 allocates the map and every rank receives the same instance.
func NewMapCollective[K comparable, V any](r *pgas.Rank, hash func(K) uint64, entryBytes int, opts ...Option) *Map[K, V] {
	var dm *Map[K, V]
	if r.ID() == 0 {
		dm = NewMap[K, V](r.Machine(), hash, entryBytes, opts...)
	}
	return pgas.Broadcast(r, dm)
}

// Owner returns the rank that owns the given key.
func (m *Map[K, V]) Owner(key K) int {
	return int(m.hash(key) % uint64(m.machine.Ranks()))
}

// Stripes returns the number of lock stripes per rank partition.
func (m *Map[K, V]) Stripes() int { return m.stripeCount }

// EntryBytes returns the configured approximate entry size.
func (m *Map[K, V]) EntryBytes() int { return m.entryBytes }

// ownerAndStripe splits one hash evaluation into the owner rank (low bits)
// and the stripe within that rank's partition (high bits).
func (m *Map[K, V]) ownerAndStripe(key K) (owner int, stripe uint64) {
	h := m.hash(key)
	return int(h % uint64(m.machine.Ranks())), h >> m.stripeShift
}

func (m *Map[K, V]) stripeOf(key K) uint64 { return m.hash(key) >> m.stripeShift }

// readPart reads key from a partition: lock-free while the map is frozen
// (concurrent Go map reads are safe and mutators panic), under the stripe
// lock otherwise.
func (m *Map[K, V]) readPart(p *partition[K, V], si uint64, key K) (V, bool) {
	s := &p.stripes[si]
	if m.frozen.Load() {
		v, ok := s.data[key]
		return v, ok
	}
	s.mu.Lock()
	v, ok := s.data[key]
	s.mu.Unlock()
	return v, ok
}

// Len returns the total number of entries across all partitions. It must not
// be called concurrently with updates.
//
// Len costs O(P·stripes) and, unless the map is frozen, takes every stripe
// lock of every partition. It is for coordinators, tests and Snapshot only:
// per-rank code inside an SPMD region must not call it, since P ranks each
// scanning all P partitions is O(P²) host work machine-wide. Count entries as
// they are built instead (dbg.Graph.Vertices does) or use LocalLen.
func (m *Map[K, V]) Len() int {
	total := 0
	for i := range m.parts {
		total += m.partLen(&m.parts[i])
	}
	return total
}

// LocalLen returns the number of entries owned by the given rank.
func (m *Map[K, V]) LocalLen(rank int) int { return m.partLen(&m.parts[rank]) }

func (m *Map[K, V]) partLen(p *partition[K, V]) int {
	frozen := m.frozen.Load()
	total := 0
	for s := range p.stripes {
		if !frozen {
			p.stripes[s].mu.Lock()
		}
		total += len(p.stripes[s].data)
		if !frozen {
			p.stripes[s].mu.Unlock()
		}
	}
	return total
}

// Lookup reads the entry for key from outside an SPMD region (no cost is
// charged). It is intended for coordinators, evaluation code and tests that
// inspect the table after a parallel phase has completed.
func (m *Map[K, V]) Lookup(key K) (V, bool) {
	owner, si := m.ownerAndStripe(key)
	return m.readPart(&m.parts[owner], si, key)
}

// Get performs a one-sided read of the entry for key, charging the
// appropriate communication cost to the calling rank.
func (m *Map[K, V]) Get(r *pgas.Rank, key K) (V, bool) {
	owner, si := m.ownerAndStripe(key)
	if owner == r.ID() {
		r.Compute(1)
	} else {
		r.ChargeGet(owner, m.entryBytes, 1)
	}
	return m.readPart(&m.parts[owner], si, key)
}

// Put performs a one-sided write of the entry for key.
func (m *Map[K, V]) Put(r *pgas.Rank, key K, val V) {
	owner, si := m.ownerAndStripe(key)
	if owner == r.ID() {
		r.Compute(1)
	} else {
		r.ChargeSend(owner, m.entryBytes, 1)
	}
	s := m.mutableStripe(&m.parts[owner], si)
	s.mu.Lock()
	s.data[key] = val
	s.mu.Unlock()
}

// Delete removes the entry for key, if present.
func (m *Map[K, V]) Delete(r *pgas.Rank, key K) {
	owner, si := m.ownerAndStripe(key)
	if owner == r.ID() {
		r.Compute(1)
	} else {
		r.ChargeSend(owner, 8, 1)
	}
	s := m.mutableStripe(&m.parts[owner], si)
	s.mu.Lock()
	delete(s.data, key)
	s.mu.Unlock()
}

// Mutate atomically applies f to the entry for key under the owner's stripe
// lock, modelling a remote atomic (e.g. compare-and-swap on a "used" flag). f
// receives the current value (and whether it exists) and returns the new
// value, whether to store it, and an arbitrary result passed back to the
// caller. The cost of a remote atomic is charged to the calling rank.
func Mutate[K comparable, V any, R any](m *Map[K, V], r *pgas.Rank, key K, f func(v V, found bool) (V, bool, R)) R {
	owner, si := m.ownerAndStripe(key)
	if owner == r.ID() {
		r.Compute(2)
	} else {
		r.ChargeGet(owner, m.entryBytes, 1)
	}
	s := m.mutableStripe(&m.parts[owner], si)
	s.mu.Lock()
	cur, ok := s.data[key]
	nv, store, res := f(cur, ok)
	if store {
		s.data[key] = nv
	}
	s.mu.Unlock()
	return res
}

// ForEachLocal iterates over the entries owned by the calling rank. The
// callback must not call back into the same Map. Iteration order is
// unspecified. One unit of compute is charged per entry.
func (m *Map[K, V]) ForEachLocal(r *pgas.Rank, f func(K, V)) {
	p := &m.parts[r.ID()]
	if m.frozen.Load() {
		n := 0
		for si := range p.stripes {
			for k, v := range p.stripes[si].data {
				n++
				f(k, v)
			}
		}
		r.Compute(float64(n))
		return
	}
	var keys []K
	var vals []V
	for si := range p.stripes {
		s := &p.stripes[si]
		s.mu.Lock()
		keys = slices.Grow(keys, len(s.data))
		vals = slices.Grow(vals, len(s.data))
		for k, v := range s.data {
			keys = append(keys, k)
			vals = append(vals, v)
		}
		s.mu.Unlock()
	}
	r.Compute(float64(len(keys)))
	for i := range keys {
		f(keys[i], vals[i])
	}
}

// UpdateLocal applies f to the entry for key, which must be owned by the
// calling rank (use case 4: local reads & writes after routing).
func (m *Map[K, V]) UpdateLocal(r *pgas.Rank, key K, f func(v V, found bool) V) {
	s := m.mutableStripe(&m.parts[r.ID()], m.stripeOf(key))
	s.mu.Lock()
	cur, ok := s.data[key]
	s.data[key] = f(cur, ok)
	s.mu.Unlock()
	r.Compute(1)
}

// SetLocal stores a value into the calling rank's partition directly (the key
// must hash to this rank; this is not checked to keep the hot path cheap).
func (m *Map[K, V]) SetLocal(r *pgas.Rank, key K, val V) {
	s := m.mutableStripe(&m.parts[r.ID()], m.stripeOf(key))
	s.mu.Lock()
	s.data[key] = val
	s.mu.Unlock()
	r.Compute(1)
}

// RangeLocal iterates over the entries owned by the given rank without
// charging the cost model — the per-partition counterpart of Lookup, for
// coordinators and the checkpoint writer, which must observe the table
// without perturbing the simulated clocks. Iteration order is unspecified;
// callers needing determinism must collect and sort. The callback must not
// call back into the same Map. Safe to call concurrently for distinct ranks;
// must not race with mutations of the same partition.
func (m *Map[K, V]) RangeLocal(rank int, f func(K, V)) {
	frozen := m.frozen.Load()
	p := &m.parts[rank]
	for si := range p.stripes {
		s := &p.stripes[si]
		if !frozen {
			s.mu.Lock()
		}
		for k, v := range s.data {
			f(k, v)
		}
		if !frozen {
			s.mu.Unlock()
		}
	}
}

// Restore stores an entry directly into the given rank's partition without
// charging the cost model. It is the checkpoint-restore path: the simulated
// cost of building the table was paid by the original run and is carried in
// the restored rank clocks, so re-materializing the entries must be free.
// The key must hash to rank (not checked, mirroring SetLocal).
func (m *Map[K, V]) Restore(rank int, key K, val V) {
	s := m.mutableStripe(&m.parts[rank], m.stripeOf(key))
	s.mu.Lock()
	s.data[key] = val
	s.mu.Unlock()
}

// Snapshot returns a copy of all entries in the map. It is intended for the
// end of a parallel phase (after a barrier) and for tests.
func (m *Map[K, V]) Snapshot() map[K]V {
	frozen := m.frozen.Load()
	out := make(map[K]V, m.Len())
	for i := range m.parts {
		p := &m.parts[i]
		for si := range p.stripes {
			s := &p.stripes[si]
			if !frozen {
				s.mu.Lock()
			}
			for k, v := range s.data {
				out[k] = v
			}
			if !frozen {
				s.mu.Unlock()
			}
		}
	}
	return out
}

// mutableStripe returns the stripe for writing, enforcing the read-only
// phase discipline: mutating a frozen map is a bug in the calling phase.
func (m *Map[K, V]) mutableStripe(p *partition[K, V], si uint64) *stripe[K, V] {
	if m.frozen.Load() {
		panic("dht: mutation of a frozen map (call Thaw before the next write phase)")
	}
	return &p.stripes[si]
}

// Freeze atomically switches the map into the lock-free read-only phase (use
// case 3, "Global Read-Only"): all subsequent reads (Get, Lookup,
// CachedReader.Get, ForEachLocal, Snapshot) skip the stripe locks, and
// mutations panic until Thaw is called. The stripe maps themselves serve as
// the immutable snapshot — nothing is copied, so freezing the pipeline's
// largest tables costs neither time nor memory.
//
// Freeze must not race with mutations: call it after the barrier that closes
// the last write phase. It is idempotent and safe to call from every rank.
func (m *Map[K, V]) Freeze() { m.frozen.Store(true) }

// Thaw leaves the read-only phase, making the map mutable again. Like Freeze
// it must be called between phases (after a barrier), not concurrently with
// reads that still expect the frozen snapshot.
func (m *Map[K, V]) Thaw() { m.frozen.Store(false) }

// Frozen reports whether the map is in the read-only phase.
func (m *Map[K, V]) Frozen() bool { return m.frozen.Load() }
