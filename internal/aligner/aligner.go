// Package aligner implements a merAligner-style distributed read-to-contig
// aligner (Section II-F of the paper): a seed-and-extend algorithm over a
// distributed seed index, with a per-rank software cache for the read-only
// lookup phase. Read localization (Section II-I), which redistributes reads
// by the contig they align to so that subsequent iterations hit the cache
// instead of the network, consumes these alignments in core.
package aligner

import (
	"sort"

	"mhmgo/internal/dbg"
	"mhmgo/internal/dht"
	"mhmgo/internal/dist"
	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
)

// SeedHit records one occurrence of a seed k-mer in a contig.
type SeedHit struct {
	ContigID int
	// Pos is the offset of the seed within the contig (forward strand).
	Pos int
	// Reverse is true if the canonical form of the seed is the reverse
	// complement of the contig's forward-strand seed at Pos.
	Reverse bool
}

// Alignment is a read-to-contig alignment.
type Alignment struct {
	ReadIdx   int // index of the read in the caller's read ordering
	ReadID    string
	LibID     uint8 // library tag copied from the read (seq.Read.LibID)
	ContigID  int
	ContigLen int // length of the aligned contig, recorded at extension time
	ContigPos int // start of the read projection on the contig (may be negative)
	Reverse   bool
	Matches   int
	Mismatch  int
	AlignLen  int
}

// WireSize returns the wire bytes charged when an alignment is routed or
// gathered: seven coordinate words, the orientation flag, the library tag
// and the read identifier.
func (a Alignment) WireSize() int { return 58 + len(a.ReadID) }

// Identity returns the fraction of aligned bases that match.
func (a Alignment) Identity() float64 {
	if a.AlignLen == 0 {
		return 0
	}
	return float64(a.Matches) / float64(a.AlignLen)
}

// Options controls index construction and alignment.
type Options struct {
	// SeedLen is the seed k-mer length.
	SeedLen int
	// SeedStride is the distance between consecutive seeds taken from a read.
	SeedStride int
	// MinIdentity is the minimum identity for an alignment to be reported.
	MinIdentity float64
	// MinAlignLen is the minimum number of aligned bases.
	MinAlignLen int
	// UseCache enables the per-rank software seed cache.
	UseCache bool
	// CacheEntries bounds the software cache size.
	CacheEntries int
	// MaxHitsPerSeed skips seeds that occur in more than this many contig
	// positions (repeat seeds), 0 means no limit.
	MaxHitsPerSeed int
	// OnlyLib, when non-nil, aligns only the reads whose LibID matches:
	// the round-based scaffolder aligns one library per round against that
	// round's contig set and skips the others' reads entirely (their
	// alignments would be discarded, and alignment is independent per
	// read, so skipping changes cost but never results). Nil aligns every
	// read.
	OnlyLib *uint8
}

// DefaultOptions returns the aligner defaults for the given seed length.
func DefaultOptions(seedLen int) Options {
	return Options{
		SeedLen:        seedLen,
		SeedStride:     8,
		MinIdentity:    0.9,
		MinAlignLen:    20,
		UseCache:       true,
		CacheEntries:   1 << 17,
		MaxHitsPerSeed: 32,
	}
}

// Index is the distributed seed index over a distributed contig set. Neither
// the seeds nor the contig sequences are replicated: seed lookups go through
// the DHT and contig fetches through the set's owner-side lookup, each
// fronted by a per-rank software cache during alignment.
type Index struct {
	SeedLen int
	Seeds   *dht.Map[seq.Kmer, []SeedHit]
	Contigs *dbg.ContigSet
}

func kmerHash(k seq.Kmer) uint64 { return k.Hash() }

// BuildIndex constructs the distributed seed index. Collective: each rank
// indexes its own shard of the contig set using the aggregated update-only
// phase.
func BuildIndex(r *pgas.Rank, contigs *dbg.ContigSet, opts Options) *Index {
	if opts.SeedLen <= 0 || opts.SeedLen > seq.MaxK {
		opts.SeedLen = 31
	}
	idx := &Index{SeedLen: opts.SeedLen, Contigs: contigs}
	idx.Seeds = dht.NewMapCollective[seq.Kmer, []SeedHit](r, kmerHash, 24)
	combine := func(existing, update []SeedHit, found bool) []SeedHit {
		return append(existing, update...)
	}
	u := idx.Seeds.NewUpdater(r, combine, 512, true)
	contigs.ForEachLocal(r, func(_ int, c dbg.Contig) {
		it := seq.NewKmerIter(c.Seq, opts.SeedLen)
		for {
			km, off, ok := it.Next()
			if !ok {
				break
			}
			canon, wasRC := km.Canonical()
			u.Update(canon, []SeedHit{{ContigID: c.ID, Pos: off, Reverse: wasRC}})
		}
		r.Compute(float64(len(c.Seq)))
	})
	u.Flush()
	r.Barrier()
	// The index is never mutated after construction: switch it into the
	// lock-free read-only phase so alignment reads take no stripe locks.
	idx.Seeds.Freeze()
	return idx
}

// AlignStats summarizes an alignment pass.
type AlignStats struct {
	ReadsAligned  int
	ReadsTotal    int
	CacheHitRate  float64
	SeedLookups   uint64
	SeedCacheHits uint64
}

// AlignReads aligns the calling rank's block of reads against the index and
// returns the best alignment found for each read that aligns (at most one
// per read). Each alignment carries its read's library tag, and
// Options.OnlyLib restricts a pass to one library's reads — the round-based
// scaffolder uses this to align exactly the reads whose links it will
// consume against each round's contig set, instead of aligning everything
// and discarding the other libraries' output. Collective only in the sense
// that the seed index is shared; the work itself is independent per rank.
func AlignReads(r *pgas.Rank, idx *Index, reads []seq.Read, readOffset int, opts Options) ([]Alignment, AlignStats) {
	if opts.SeedLen <= 0 {
		opts.SeedLen = idx.SeedLen
	}
	if opts.SeedStride <= 0 {
		opts.SeedStride = 8
	}
	if opts.MinIdentity <= 0 {
		opts.MinIdentity = 0.9
	}
	if opts.MinAlignLen <= 0 {
		opts.MinAlignLen = 20
	}
	reader := idx.Seeds.NewCachedReader(r, opts.CacheEntries, opts.UseCache)
	// Remote contig sequences are fetched through the same software-caching
	// discipline as the seeds (merAligner caches contigs too); with read
	// localization most fetches are owner-local and free.
	contigCache := 0
	if opts.UseCache {
		contigCache = opts.CacheEntries
	}
	creader := idx.Contigs.NewReader(r, contigCache)
	var out []Alignment
	var stats AlignStats
	// Per-rank scratch reused across every read aligned by this call: the
	// dedup map, the sorted-hits copy, the packed read/reverse-complement
	// buffers and the packed-contig cache would otherwise be reallocated once
	// (or more) per read.
	scratch := NewScratch()
	for i, read := range reads {
		if opts.OnlyLib != nil && read.LibID != *opts.OnlyLib {
			continue
		}
		stats.ReadsTotal++
		best, found := alignOne(r, idx, reader, creader, read, opts, scratch)
		if found {
			best.ReadIdx = readOffset + i
			best.ReadID = read.ID
			best.LibID = read.LibID
			out = append(out, best)
		}
	}
	stats.ReadsAligned = len(out)
	hits, misses := reader.Stats()
	stats.SeedCacheHits = hits
	stats.SeedLookups = hits + misses
	stats.CacheHitRate = reader.HitRate()
	return out, stats
}

// Scratch holds the per-rank buffers reused across alignOne calls: the
// extension dedup map, the sorted-hits copy, the packed forms of the current
// read (forward and reverse complement, refreshed by BeginRead), the ASCII
// reverse-complement fallback buffer, and the packed-contig cache. One
// Scratch serves one AlignReads pass; it is exported (with NewScratch and
// BeginRead) so the repository-level kernel benchmarks and the
// packed-vs-ASCII equivalence tests can drive the extend kernel directly.
type Scratch struct {
	tried map[[3]int]bool // (contig, diagonal, strand) triples already extended
	hits  []SeedHit       // sorted copy of a seed's hit list

	readFwd seq.Packed // packed current read (valid when readOK)
	readRC  seq.Packed // packed reverse complement of the current read
	readOK  bool       // read is strict upper-case ACGT: packed compare == ASCII compare
	rcBytes []byte     // ASCII reverse complement, for the byte-path fallback
	rcValid bool       // rcBytes holds the current read's reverse complement

	// packs caches the packed form of every contig this pass has extended
	// against, keyed by contig ID — the packed side of the seed index. A
	// contig is packed once per pass on first use and reused by every read
	// that seeds on it (with read localization most reads hit the same few
	// owner-local contigs). ok=false records the rare non-ACGT contig so the
	// byte path is chosen without re-probing it. The last-used entry is
	// memoized outside the map: a seed's sorted hit list clusters candidates
	// by contig, so most lookups are repeats of the previous one.
	packs     map[int]packedContig
	lastID    int
	lastPack  packedContig
	lastValid bool
}

type packedContig struct {
	p  seq.Packed
	ok bool
}

// NewScratch returns an empty Scratch ready for BeginRead.
func NewScratch() *Scratch {
	return &Scratch{
		tried: make(map[[3]int]bool),
		packs: make(map[int]packedContig),
	}
}

// BeginRead points the scratch at a new read: the packed forward form and
// its reverse complement are computed once here and reused across every
// candidate extension of the read (the reverse-strand candidates previously
// allocated a fresh ASCII reverse complement each). A read that is not
// strict upper-case ACGT stays on the byte path (readOK=false), where the
// reverse complement is still computed at most once per read, into rcBytes.
func (s *Scratch) BeginRead(readSeq []byte) {
	s.rcValid = false
	s.readOK = s.readFwd.SetASCII(readSeq)
	if s.readOK {
		s.readRC.SetReverseComplementOf(s.readFwd)
	}
}

// packedFor returns the cached packed form of the contig, packing it on
// first use.
func (s *Scratch) packedFor(contig dbg.Contig) (seq.Packed, bool) {
	if s.lastValid && s.lastID == contig.ID {
		return s.lastPack.p, s.lastPack.ok
	}
	pc, cached := s.packs[contig.ID]
	if !cached {
		p, ok := seq.PackASCII(contig.Seq)
		pc = packedContig{p: p, ok: ok}
		s.packs[contig.ID] = pc
	}
	s.lastID, s.lastPack, s.lastValid = contig.ID, pc, true
	return pc.p, pc.ok
}

// alignOne seeds and extends one read, returning its best alignment.
func alignOne(r *pgas.Rank, idx *Index, reader *dht.CachedReader[seq.Kmer, []SeedHit], creader *dist.Reader[dbg.Contig], read seq.Read, opts Options, scratch *Scratch) (Alignment, bool) {
	var best Alignment
	var bestContig dbg.Contig
	found := false
	scratch.BeginRead(read.Seq)
	tried := scratch.tried
	clear(tried)
	it := seq.NewKmerIter(read.Seq, opts.SeedLen)
	nextSeedAt := 0
	for {
		km, off, ok := it.Next()
		if !ok {
			break
		}
		if off < nextSeedAt {
			continue
		}
		nextSeedAt = off + opts.SeedStride
		canon, readRC := km.Canonical()
		hits, ok := reader.Get(canon)
		if !ok {
			continue
		}
		if opts.MaxHitsPerSeed > 0 && len(hits) > opts.MaxHitsPerSeed {
			continue
		}
		// The hit list accumulates in DHT flush-arrival order, which varies
		// run to run; iterate a sorted copy so the sequence of charged
		// contig fetches (cache hits/misses and their clock costs) is
		// deterministic, not just the chosen best alignment.
		if len(hits) > 1 {
			scratch.hits = append(scratch.hits[:0], hits...)
			hits = scratch.hits
			sort.Slice(hits, func(i, j int) bool {
				if hits[i].ContigID != hits[j].ContigID {
					return hits[i].ContigID < hits[j].ContigID
				}
				if hits[i].Pos != hits[j].Pos {
					return hits[i].Pos < hits[j].Pos
				}
				return !hits[i].Reverse && hits[j].Reverse
			})
		}
		for _, h := range hits {
			contig := creader.Get(h.ContigID)
			// The read aligns to the contig's reverse strand when exactly one
			// of (read seed canonicalization, contig seed canonicalization)
			// flipped orientation.
			reverse := readRC != h.Reverse
			key := [3]int{h.ContigID, h.Pos - off, boolToInt(reverse)}
			if tried[key] {
				continue
			}
			tried[key] = true
			a, ok := extend(read.Seq, contig, h, off, reverse, opts, scratch)
			r.Compute(float64(a.AlignLen))
			if !ok {
				continue
			}
			if !found || betterAlignment(a, contig, best, bestContig) {
				best = a
				bestContig = contig
				found = true
			}
		}
	}
	return best, found
}

// betterAlignment is the total order used to select a read's best alignment.
// The seed index accumulates hits in flush-arrival order, which varies run
// to run, so the winner must be a pure function of the candidate set: most
// matches first, ties broken by the target contig's content (never by its
// ID, whose numbering depends on the rank count — a read tied between two
// rRNA copies must pick the same copy on any machine), then by coordinates.
func betterAlignment(a Alignment, ca dbg.Contig, b Alignment, cb dbg.Contig) bool {
	if a.Matches != b.Matches {
		return a.Matches > b.Matches
	}
	if a.ContigID != b.ContigID &&
		(len(ca.Seq) != len(cb.Seq) || string(ca.Seq) != string(cb.Seq)) {
		return dbg.ContigLess(ca, cb)
	}
	if a.ContigPos != b.ContigPos {
		return a.ContigPos < b.ContigPos
	}
	if a.Reverse != b.Reverse {
		return !a.Reverse
	}
	// Only reachable when the two targets are byte-identical contigs at the
	// same position and orientation: either choice is the same content, and
	// the ID comparison just makes the order total within one run.
	return a.ContigID < b.ContigID
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// extend performs ungapped extension of a seed match and scores it. When the
// read and the contig are both strict ACGT (the overwhelmingly common case)
// the comparison runs word-at-a-time over the packed forms — 32 bases per
// XOR+popcount — against the read orientation precomputed by BeginRead;
// anything else falls back to the byte loop, which is bit-identical to the
// packed path on the inputs both can handle.
func extend(readSeq []byte, contig dbg.Contig, hit SeedHit, seedOff int, reverse bool, opts Options, s *Scratch) (Alignment, bool) {
	if s != nil && s.readOK {
		if cp, ok := s.packedFor(contig); ok {
			return extendPacked(len(readSeq), cp, contig, hit, seedOff, reverse, opts, s)
		}
	}
	return extendBytes(readSeq, contig, hit, seedOff, reverse, opts, s)
}

// extendPacked scores the overlap of the oriented read projection with the
// contig using seq.MismatchCount. The ungapped alignment covers the
// contiguous read positions whose contig projection start+i lands inside the
// contig, so alignLen is an interval length and matches = alignLen −
// mismatches; the per-base loop this replaces counted the same quantities
// one byte at a time.
func extendPacked(readLen int, cp seq.Packed, contig dbg.Contig, hit SeedHit, seedOff int, reverse bool, opts Options, s *Scratch) (Alignment, bool) {
	rp := &s.readFwd
	off := seedOff
	if reverse {
		rp = &s.readRC
		off = readLen - seedOff - opts.SeedLen
	}
	// Projected start of the read on the contig's forward strand.
	start := hit.Pos - off
	lo := 0
	if start < 0 {
		lo = -start
	}
	hi := readLen
	if m := len(contig.Seq) - start; m < hi {
		hi = m
	}
	matches, mismatches, alignLen := 0, 0, 0
	if hi > lo {
		alignLen = hi - lo
		mismatches = seq.MismatchCount(*rp, cp, lo, start+lo, alignLen)
		matches = alignLen - mismatches
	}
	a := Alignment{
		ContigID:  contig.ID,
		ContigLen: len(contig.Seq),
		ContigPos: start,
		Reverse:   reverse,
		Matches:   matches,
		Mismatch:  mismatches,
		AlignLen:  alignLen,
	}
	if alignLen < opts.MinAlignLen || a.Identity() < opts.MinIdentity {
		return a, false
	}
	return a, true
}

// extendBytes is the byte-at-a-time extension used when the read or contig
// contains non-ACGT characters (whose comparison semantics the 2-bit packing
// cannot represent). The read's reverse complement is still materialized at
// most once per read, into the scratch buffer.
func extendBytes(readSeq []byte, contig dbg.Contig, hit SeedHit, seedOff int, reverse bool, opts Options, s *Scratch) (Alignment, bool) {
	oriented := readSeq
	off := seedOff
	if reverse {
		switch {
		case s == nil:
			oriented = seq.ReverseComplement(readSeq)
		case s.rcValid:
			oriented = s.rcBytes
		default:
			s.rcBytes = seq.AppendReverseComplement(s.rcBytes[:0], readSeq)
			s.rcValid = true
			oriented = s.rcBytes
		}
		off = len(readSeq) - seedOff - opts.SeedLen
	}
	// Projected start of the read on the contig's forward strand.
	start := hit.Pos - off
	matches, mismatches, alignLen := 0, 0, 0
	for i := 0; i < len(oriented); i++ {
		cpos := start + i
		if cpos < 0 || cpos >= len(contig.Seq) {
			continue
		}
		alignLen++
		if oriented[i] == contig.Seq[cpos] {
			matches++
		} else {
			mismatches++
		}
	}
	a := Alignment{
		ContigID:  contig.ID,
		ContigLen: len(contig.Seq),
		ContigPos: start,
		Reverse:   reverse,
		Matches:   matches,
		Mismatch:  mismatches,
		AlignLen:  alignLen,
	}
	if alignLen < opts.MinAlignLen || a.Identity() < opts.MinIdentity {
		return a, false
	}
	return a, true
}

// ExtendKernel exposes the seed-extension kernel for the repository-level
// per-kernel benchmarks and the equivalence tests: it scores one candidate
// (contig, hit, orientation) for the read most recently passed to
// s.BeginRead. The pipeline reaches the same code through AlignReads.
func ExtendKernel(readSeq []byte, contig dbg.Contig, hit SeedHit, seedOff int, reverse bool, opts Options, s *Scratch) (Alignment, bool) {
	return extend(readSeq, contig, hit, seedOff, reverse, opts, s)
}

// ExtendKernelASCII is the historical extension kernel — a per-base ASCII
// comparison loop with a fresh reverse-complement allocation per
// reverse-strand candidate — kept as the baseline the packed kernel is
// benchmarked and equivalence-tested against.
func ExtendKernelASCII(readSeq []byte, contig dbg.Contig, hit SeedHit, seedOff int, reverse bool, opts Options) (Alignment, bool) {
	return extendBytes(readSeq, contig, hit, seedOff, reverse, opts, nil)
}
