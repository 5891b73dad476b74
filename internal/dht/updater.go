package dht

import (
	"slices"

	"mhmgo/internal/pgas"
)

// kvPair is the unit buffered by an Updater. The stripe index is computed
// once at Update time (the key is hashed anyway to find its owner) so that
// flushes can group a batch by stripe without re-hashing.
type kvPair[K comparable, V any] struct {
	key    K
	val    V
	stripe uint32
}

// Updater implements the "Global Update-Only" phase: commutative updates are
// buffered per destination rank and applied in aggregated batches. When a
// batch is flushed it is grouped by stripe, so each stripe lock of the
// destination partition is taken at most once per flush instead of once per
// entry.
type Updater[K comparable, V any] struct {
	m       *Map[K, V]
	r       *pgas.Rank
	combine func(existing V, update V, found bool) V
	// batches buffers updates by destination rank. It is a map, not a
	// P-length slice: a P-slice per updater per rank is O(P²) machine-wide
	// (≈400 MB of slice headers alone at P=4096), while the map stays
	// proportional to the destinations this rank actually talks to between
	// flushes. Flush order is never derived from map iteration (FlushAll
	// sorts the destinations it collects), so determinism is unaffected.
	batches   map[int][]kvPair[K, V]
	byStripe  [][]kvPair[K, V] // reusable flush scratch, indexed by stripe
	touched   []uint32         // stripes used by the current flush
	dests     []int            // reusable FlushAll scratch: non-empty destinations
	batchSize int
	aggregate bool
	pending   int
}

// NewUpdater creates an Updater for the calling rank. combine merges an
// incoming update into the existing entry (found reports whether an entry
// already existed). batchSize is the number of buffered updates per
// destination before an automatic flush; aggregate=false disables batching
// entirely (every update becomes its own message), which is used by the
// ablation experiments and the Ray Meta baseline.
func (m *Map[K, V]) NewUpdater(r *pgas.Rank, combine func(existing V, update V, found bool) V, batchSize int, aggregate bool) *Updater[K, V] {
	if batchSize <= 0 {
		batchSize = 512
	}
	return &Updater[K, V]{
		m:         m,
		r:         r,
		combine:   combine,
		batches:   make(map[int][]kvPair[K, V]),
		byStripe:  make([][]kvPair[K, V], m.stripeCount),
		batchSize: batchSize,
		aggregate: aggregate,
	}
}

// Update buffers one commutative update for key.
func (u *Updater[K, V]) Update(key K, val V) {
	dest, si := u.m.ownerAndStripe(key)
	batch := append(u.batches[dest], kvPair[K, V]{
		key:    key,
		val:    val,
		stripe: uint32(si),
	})
	u.batches[dest] = batch
	u.pending++
	if !u.aggregate || len(batch) >= u.batchSize {
		u.flushDest(dest)
	}
}

// Flush applies all buffered updates. It must be called before the phase's
// closing barrier.
func (u *Updater[K, V]) Flush() { u.FlushAll() }

// FlushAll flushes every destination's buffered batch, starting at the
// calling rank's own partition and wrapping around. When every rank flushes
// at the end of a phase simultaneously, a fixed 0..P-1 order would march all
// ranks through partition 0's stripe locks together (a lock convoy that
// serializes the wall-clock flush); staggering the start by rank ID spreads
// the flushes across all partitions. The updates are commutative, so the
// order does not affect the table, but it does fix the order in which the
// flush charges accumulate into the rank's clock.
//
// Only the destinations holding buffered updates are visited, sorted into
// that staggered order: walking all P destinations on every rank would make
// each phase-closing flush O(P²) machine-wide, almost all of it on empty
// batches.
func (u *Updater[K, V]) FlushAll() {
	if u.pending == 0 {
		return
	}
	p := u.m.machine.Ranks()
	start := u.r.ID()
	u.dests = u.dests[:0]
	for d, batch := range u.batches {
		if len(batch) > 0 {
			u.dests = append(u.dests, d)
		}
	}
	slices.SortFunc(u.dests, func(a, b int) int {
		return (a-start+p)%p - (b-start+p)%p
	})
	for _, d := range u.dests {
		u.flushDest(d)
	}
}

// Pending returns the number of buffered (unflushed) updates.
func (u *Updater[K, V]) Pending() int { return u.pending }

func (u *Updater[K, V]) flushDest(dest int) {
	batch := u.batches[dest]
	if len(batch) == 0 {
		return
	}
	u.batches[dest] = u.batches[dest][:0]
	u.pending -= len(batch)
	if dest == u.r.ID() {
		u.r.Compute(float64(len(batch)))
	} else if u.aggregate {
		u.r.ChargeSend(dest, len(batch)*u.m.entryBytes, 1)
	} else {
		u.r.ChargeSend(dest, len(batch)*u.m.entryBytes, len(batch))
	}

	p := &u.m.parts[dest]
	if u.m.stripeCount == 1 {
		u.applyStripe(p, 0, batch)
		return
	}
	if len(batch) == 1 {
		// Common with aggregate=false (every update is its own flush): skip
		// the grouping pass.
		u.applyStripe(p, uint64(batch[0].stripe), batch)
		return
	}
	// Group the batch by stripe so each lock is taken once per flush. Only
	// the stripes this batch touches are visited and reset, keeping the
	// bookkeeping proportional to the batch, not the stripe count.
	u.touched = u.touched[:0]
	for _, kv := range batch {
		if len(u.byStripe[kv.stripe]) == 0 {
			u.touched = append(u.touched, kv.stripe)
		}
		u.byStripe[kv.stripe] = append(u.byStripe[kv.stripe], kv)
	}
	for _, si := range u.touched {
		u.applyStripe(p, uint64(si), u.byStripe[si])
		u.byStripe[si] = u.byStripe[si][:0]
	}
}

func (u *Updater[K, V]) applyStripe(p *partition[K, V], si uint64, kvs []kvPair[K, V]) {
	s := u.m.mutableStripe(p, si)
	s.mu.Lock()
	for _, kv := range kvs {
		cur, ok := s.data[kv.key]
		s.data[kv.key] = u.combine(cur, kv.val, ok)
	}
	s.mu.Unlock()
}
