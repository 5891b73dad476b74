// Package dbg implements the de Bruijn graph construction and traversal
// stage of the pipeline (Section II-C of the paper).
//
// The graph is stored implicitly in a distributed hash table: each vertex is
// a canonical k-mer and its value is a two-letter extension code giving the
// unique base that precedes and follows it in the read set (or a fork /
// dead-end marker). Contigs are maximal paths of k-mers whose consecutive
// extensions agree in both directions ("UU contigs").
//
// The key metagenome-specific change relative to HipMer is the
// depth-dependent high-quality-extension threshold: a k-mer with depth d is
// extended if at most thq = max(tbase, e*d) observations contradict its most
// common extension, instead of a single global threshold. This prevents
// high-coverage genomes from fragmenting without sacrificing low-coverage
// ones, and it is what the Table I ablation exercises.
package dbg

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync/atomic"

	"mhmgo/internal/dht"
	"mhmgo/internal/dist"
	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
)

// Entry is the value stored for each canonical k-mer vertex of the graph.
type Entry struct {
	// Count is the k-mer's depth (number of occurrences in the reads).
	Count uint32
	// Ext holds the classified left/right extension characters in the
	// canonical orientation ('A','C','G','T', 'F' fork, 'X' none).
	Ext seq.ExtPair
}

// Contig is a confidently assembled sequence produced by graph traversal.
type Contig struct {
	// ID is a dense identifier assigned after traversal (unique across ranks).
	ID int
	// Seq is the contig sequence.
	Seq []byte
	// Depth is the mean depth of the contig's k-mers.
	Depth float64
}

// Len returns the contig length in bases.
func (c Contig) Len() int { return len(c.Seq) }

// WireSize returns the wire bytes charged when a contig is routed or
// gathered: the ID and depth words plus the sequence itself.
func (c Contig) WireSize() int { return 16 + len(c.Seq) }

// CanonicalSeq returns the lexicographically smaller of the contig sequence
// and its reverse complement; two contigs representing the same genomic
// locus in opposite orientations share a canonical sequence.
func CanonicalSeq(s []byte) []byte {
	rc := seq.ReverseComplement(s)
	if string(rc) < string(s) {
		return rc
	}
	return s
}

// greaterThanRC reports whether s sorts strictly after its reverse complement,
// without materializing it. Equivalent to
// string(s) > string(seq.ReverseComplement(s)) — the walk orientation check in
// Traverse only needs the comparison, not the complemented sequence, and the
// in-place form avoids an O(len) allocation per walked path.
func greaterThanRC(s []byte) bool {
	for i := range s {
		c := seq.ComplementChar(s[len(s)-1-i])
		if s[i] != c {
			return s[i] > c
		}
	}
	return false
}

// ThresholdOptions selects how the high-quality extension threshold is
// computed when classifying extensions.
type ThresholdOptions struct {
	// TBase is the hard lower limit of the threshold (tbase in the paper).
	TBase uint32
	// ErrorRate is the single-parameter sequencing error model (e in the
	// paper); the depth-dependent threshold is max(TBase, ErrorRate*depth).
	ErrorRate float64
	// GlobalTHQ, when > 0, disables the depth-dependent rule and uses this
	// fixed threshold for every k-mer (the HipMer behaviour, kept for the
	// baseline and the ablation study).
	GlobalTHQ uint32
	// MinCount is the minimum extension support for a call.
	MinCount uint32
}

// DefaultThresholds returns the MetaHipMer defaults.
func DefaultThresholds() ThresholdOptions {
	return ThresholdOptions{TBase: 2, ErrorRate: 0.015, MinCount: 1}
}

// THQFor returns the high-quality-extension threshold for a k-mer of the
// given depth.
func (t ThresholdOptions) THQFor(depth uint32) uint32 {
	if t.GlobalTHQ > 0 {
		return t.GlobalTHQ
	}
	dyn := uint32(t.ErrorRate * float64(depth))
	if dyn < t.TBase {
		return t.TBase
	}
	return dyn
}

// Graph is the distributed de Bruijn graph.
type Graph struct {
	K       int
	Entries *dht.Map[seq.Kmer, Entry]
	// vertices is the machine-wide vertex count, summed by Build from each
	// rank's local count so that no rank has to scan all P partitions.
	vertices atomic.Int64
}

// Vertices returns the number of graph vertices counted by Build, the only
// constructor of a Graph. It equals Entries.Len() without taking a single
// stripe lock.
func (g *Graph) Vertices() int { return int(g.vertices.Load()) }

func kmerHash(k seq.Kmer) uint64 { return k.Hash() }


// Build classifies the k-mer counts into graph entries. It is collective:
// each rank classifies the counts it owns (the entries land on the same
// owner, so the phase is purely local). Returns the same graph on all ranks.
func Build(r *pgas.Rank, counts *dht.Map[seq.Kmer, seq.KmerCount], k int, topts ThresholdOptions) *Graph {
	var g *Graph
	if r.ID() == 0 {
		g = &Graph{K: k, Entries: dht.NewMap[seq.Kmer, Entry](r.Machine(), kmerHash, 24)}
	}
	g = pgas.Broadcast(r, g)
	if topts.MinCount == 0 {
		topts.MinCount = 1
	}
	n := 0
	counts.ForEachLocal(r, func(km seq.Kmer, kc seq.KmerCount) {
		thq := topts.THQFor(kc.Count)
		e := Entry{Count: kc.Count}
		e.Ext.Left = kc.Left.Classify(topts.MinCount, thq)
		e.Ext.Right = kc.Right.Classify(topts.MinCount, thq)
		g.Entries.SetLocal(r, km, e)
		n++
	})
	g.vertices.Add(int64(n))
	r.Barrier()
	return g
}

// oriented is a k-mer as observed during a walk: the canonical key plus the
// strand we are reading it on (true = canonical orientation).
type oriented struct {
	key     seq.Kmer
	forward bool
}

// observedKmer returns the k-mer as read on the walk's strand.
func (o oriented) observedKmer() seq.Kmer {
	if o.forward {
		return o.key
	}
	return o.key.ReverseComplement()
}

// observedExt returns the extension pair as seen on the walk's strand.
func observedExt(e Entry, forward bool) seq.ExtPair {
	if forward {
		return e.Ext
	}
	return e.Ext.Swap()
}

// lookup fetches the entry of the canonical form of km, returning the
// oriented view and whether it exists. reader may be nil, in which case the
// graph is accessed directly.
func (g *Graph) lookup(r *pgas.Rank, km seq.Kmer) (oriented, Entry, bool) {
	canon, wasRC := km.Canonical()
	e, ok := g.Entries.Get(r, canon)
	return oriented{key: canon, forward: !wasRC}, e, ok
}

// successor returns the next oriented k-mer of a walk, or ok=false if the
// walk must stop (no extension, fork, missing vertex, or mutual-agreement
// failure).
func (g *Graph) successor(r *pgas.Rank, cur oriented, e Entry) (oriented, Entry, byte, bool) {
	ext := observedExt(e, cur.forward)
	if !seq.IsBaseExt(ext.Right) {
		return oriented{}, Entry{}, 0, false
	}
	code, _ := seq.CharToBase(ext.Right)
	obs := cur.observedKmer()
	nextObs := obs.AppendBase(code)
	next, ne, ok := g.lookup(r, nextObs)
	if !ok {
		return oriented{}, Entry{}, 0, false
	}
	// Mutual agreement: the successor's left extension must point back at
	// the first base of the current observed k-mer.
	nextExt := observedExt(ne, next.forward)
	if !seq.IsBaseExt(nextExt.Left) {
		return oriented{}, Entry{}, 0, false
	}
	backCode, _ := seq.CharToBase(nextExt.Left)
	if backCode != obs.FirstBase() {
		return oriented{}, Entry{}, 0, false
	}
	return next, ne, code, true
}

// isPathStart reports whether the oriented k-mer has no valid predecessor,
// i.e. a contig starts here when walking in this orientation.
func (g *Graph) isPathStart(r *pgas.Rank, cur oriented, e Entry) bool {
	ext := observedExt(e, cur.forward)
	if !seq.IsBaseExt(ext.Left) {
		return true
	}
	code, _ := seq.CharToBase(ext.Left)
	obs := cur.observedKmer()
	prevObs := obs.PrependBase(code)
	prev, pe, ok := g.lookup(r, prevObs)
	if !ok {
		return true
	}
	prevExt := observedExt(pe, prev.forward)
	if !seq.IsBaseExt(prevExt.Right) {
		return true
	}
	fwdCode, _ := seq.CharToBase(prevExt.Right)
	return fwdCode != obs.LastBase()
}

// TraverseOptions controls contig generation.
type TraverseOptions struct {
	// MinContigLen drops contigs shorter than this many bases (0 keeps all).
	MinContigLen int
	// MaxSteps bounds a single walk as a safeguard against cycles; 0 means
	// the total number of graph vertices plus one.
	MaxSteps int
}

// Traverse generates contigs from the graph. Collective: every rank walks
// the paths that start at k-mers it owns and returns only the contigs it
// emitted; use DistributeContigs to build the owner-distributed set. Contigs
// are emitted in canonical orientation exactly once.
//
// The walks start in sorted k-mer order, not map-iteration order: each walk
// charges a different amount of simulated work, and folding the same charges
// into the clock in a run-to-run-varying order would drift the simulated
// seconds by floating-point rounding.
func Traverse(r *pgas.Rank, g *Graph, opts TraverseOptions) []Contig {
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = g.Vertices() + 1
	}
	type vertex struct {
		km seq.Kmer
		e  Entry
	}
	var local []vertex
	g.Entries.ForEachLocal(r, func(km seq.Kmer, e Entry) {
		local = append(local, vertex{km: km, e: e})
	})
	sort.Slice(local, func(i, j int) bool { return local[i].km.Less(local[j].km) })
	var out []Contig
	ws := NewWalkScratch()
	for _, v := range local {
		km, e := v.km, v.e
		for _, forward := range []bool{true, false} {
			cur := oriented{key: km, forward: forward}
			if !g.isPathStart(r, cur, e) {
				continue
			}
			g.walk(r, cur, e, maxSteps, ws)
			n := ws.seq.Len()
			if n < g.K || (opts.MinContigLen > 0 && n < opts.MinContigLen) {
				continue
			}
			// Emit each path once: only from the end whose sequence is the
			// canonical orientation (ties broken towards emitting). The
			// comparison runs on the packed form; ASCII is materialized only
			// for the paths that survive it.
			if ws.seq.GreaterThanRC() {
				continue
			}
			contigSeq := ws.seq.AppendUnpack(make([]byte, 0, n))
			out = append(out, Contig{Seq: contigSeq, Depth: seq.MeanDepthFromCounts(ws.counts)})
		}
	}
	r.Barrier()
	return out
}

// WalkScratch holds the reusable walk buffers: the packed path sequence and
// the per-vertex depth counts. One scratch serves a whole Traverse — a walk
// appends 2-bit codes into it and unpacks to ASCII only for the paths that
// are actually emitted, so walking is allocation-free in steady state (the
// walked-from-both-ends and too-short paths that used to build and discard a
// byte slice each now cost nothing).
type WalkScratch struct {
	seq    seq.Packed
	counts []uint32
}

// NewWalkScratch returns an empty scratch ready for walking.
func NewWalkScratch() *WalkScratch { return &WalkScratch{} }

// walk extends a path from the starting oriented k-mer until it hits a fork,
// dead end, missing vertex or the step bound, filling the scratch buffers.
func (g *Graph) walk(r *pgas.Rank, start oriented, e Entry, maxSteps int, ws *WalkScratch) {
	ws.seq.Reset()
	ws.counts = ws.counts[:0]
	obs := start.observedKmer()
	ws.seq.AppendKmer(obs)
	ws.counts = append(ws.counts, e.Count)
	cur, ce := start, e
	for steps := 0; steps < maxSteps; steps++ {
		next, ne, code, ok := g.successor(r, cur, ce)
		if !ok {
			break
		}
		if next.key == start.key {
			// Cycle closed; stop without repeating the start.
			break
		}
		ws.seq.AppendCode(code)
		ws.counts = append(ws.counts, ne.Count)
		cur, ce = next, ne
		r.Compute(1)
	}
}

// walkASCII is the historical walk — one ASCII byte appended per step into a
// freshly allocated slice — kept as the baseline the packed walk is
// benchmarked and equivalence-tested against.
func (g *Graph) walkASCII(r *pgas.Rank, start oriented, e Entry, maxSteps int) ([]byte, []uint32) {
	obs := start.observedKmer()
	contigSeq := append([]byte(nil), obs.Bytes()...)
	counts := []uint32{e.Count}
	cur, ce := start, e
	for steps := 0; steps < maxSteps; steps++ {
		next, ne, code, ok := g.successor(r, cur, ce)
		if !ok {
			break
		}
		if next.key == start.key {
			break
		}
		contigSeq = append(contigSeq, seq.BaseToChar(code))
		counts = append(counts, ne.Count)
		cur, ce = next, ne
		r.Compute(1)
	}
	return contigSeq, counts
}

// WalkKernel exposes one graph walk for the repository-level per-kernel
// benchmarks and the packed-vs-ASCII equivalence tests: it walks from the
// canonical k-mer km in the given orientation into the scratch and returns
// the walked length in bases (0 if km is not a vertex). Traverse reaches the
// same code with its path-start and emit-once filters around it.
func (g *Graph) WalkKernel(r *pgas.Rank, km seq.Kmer, forward bool, maxSteps int, ws *WalkScratch) int {
	e, ok := g.Entries.Get(r, km)
	if !ok {
		return 0
	}
	g.walk(r, oriented{key: km, forward: forward}, e, maxSteps, ws)
	return ws.seq.Len()
}

// WalkKernelASCII is the ASCII-baseline counterpart of WalkKernel.
func (g *Graph) WalkKernelASCII(r *pgas.Rank, km seq.Kmer, forward bool, maxSteps int) ([]byte, []uint32) {
	e, ok := g.Entries.Get(r, km)
	if !ok {
		return nil, nil
	}
	return g.walkASCII(r, oriented{key: km, forward: forward}, e, maxSteps)
}

// Unpack exposes the scratch's walked sequence as ASCII, appended to dst.
func (ws *WalkScratch) Unpack(dst []byte) []byte { return ws.seq.AppendUnpack(dst) }

// Counts returns the scratch's per-vertex depth counts for the last walk.
func (ws *WalkScratch) Counts() []uint32 { return ws.counts }

// ContigSet is the distributed contig collection the pipeline passes between
// stages: contigs partitioned by content over the ranks, with dense global
// IDs assigned by an exclusive prefix scan.
type ContigSet = dist.Set[Contig]

// ContigOwner is the owner function of the distributed contig set: a
// well-mixed content hash, so exact duplicates (palindromic paths emitted
// from both ends, possibly on different ranks) always collide on the same
// owner and owner-local dedup is global dedup. Contigs are emitted in
// canonical orientation, so duplicates are byte-identical.
func ContigOwner(c Contig) int {
	h := fnv.New64a()
	h.Write(c.Seq)
	// Mask to a non-negative int before the modulo the Set applies.
	return int(h.Sum64() & (1<<63 - 1))
}

// ContigLess is the deterministic contig ordering used within each shard
// (descending length, then sequence). It depends only on content, never on
// IDs, so shard order — and everything downstream of it — is independent of
// the rank count.
func ContigLess(a, b Contig) bool {
	if len(a.Seq) != len(b.Seq) {
		return len(a.Seq) > len(b.Seq)
	}
	return string(a.Seq) < string(b.Seq)
}

// DistributeContigs builds the distributed contig set from the contigs each
// rank emitted, in two owner-routed exchanges and with no gather anywhere:
//
//  1. Contigs are routed to their content-hash owner, where exact duplicates
//     (always byte-identical, since contigs are emitted in canonical
//     orientation) collide and are deduplicated after a local sort.
//  2. The deduplicated shards — already size-sorted — are striped round-robin
//     over the ranks by local size rank, so every rank ends up owning an
//     even cross-section of large and small contigs. Ownership byte balance
//     matters downstream: read localization ships every read pair to its
//     contig's owner, so a byte-skewed ownership becomes a load-skewed
//     machine.
//
// The final shards are sorted and densely renumbered with an exclusive
// prefix scan. This replaces the old gather-to-all +
// sort-the-world-on-every-rank GatherContigs. Collective.
func DistributeContigs(r *pgas.Rank, local []Contig, mode dist.Mode) *ContigSet {
	home := dist.New(r, local, ContigOwner, Contig.WireSize, mode)
	home.SortLocal(r, ContigLess)
	home.DedupLocal(r, func(a, b Contig) bool { return string(a.Seq) == string(b.Seq) })
	deduped := append([]Contig(nil), home.Local(r)...)
	home.Release(r)
	s := dist.NewIndexed(r, deduped,
		func(src, i int, _ Contig) int { return i + src },
		Contig.WireSize, mode)
	s.SortLocal(r, ContigLess)
	s.Renumber(r, func(i, id int) { s.Local(r)[i].ID = id })
	return s
}

// RenumberContigs re-assigns dense global IDs after a set's shards changed
// (filtering, compaction), storing the new ID into each contig. Collective.
func RenumberContigs(r *pgas.Rank, s *ContigSet) int {
	return s.Renumber(r, func(i, id int) { s.Local(r)[i].ID = id })
}

// EmitContigs materializes the final contig list on rank 0 (nil elsewhere):
// shards are emitted in rank order, then sorted into the deterministic
// global order (descending length, then sequence) and given dense IDs, so
// the output is identical at any rank count. Collective.
func EmitContigs(r *pgas.Rank, s *ContigSet) []Contig {
	out := s.Emit(r)
	if out == nil {
		return nil
	}
	sort.Slice(out, func(i, j int) bool { return ContigLess(out[i], out[j]) })
	for i := range out {
		out[i].ID = i
	}
	r.Compute(float64(len(out)))
	return out
}

// Stats summarizes a contig set.
type Stats struct {
	Count      int
	TotalBases int
	MaxLen     int
	N50        int
}

// ComputeStats returns summary statistics of a contig set.
func ComputeStats(contigs []Contig) Stats {
	var s Stats
	s.Count = len(contigs)
	lengths := make([]int, 0, len(contigs))
	for _, c := range contigs {
		s.TotalBases += c.Len()
		if c.Len() > s.MaxLen {
			s.MaxLen = c.Len()
		}
		lengths = append(lengths, c.Len())
	}
	sort.Sort(sort.Reverse(sort.IntSlice(lengths)))
	half := s.TotalBases / 2
	acc := 0
	for _, l := range lengths {
		acc += l
		if acc >= half {
			s.N50 = l
			break
		}
	}
	return s
}

// String renders the stats in a single line.
func (s Stats) String() string {
	return fmt.Sprintf("contigs=%d bases=%d max=%d N50=%d", s.Count, s.TotalBases, s.MaxLen, s.N50)
}
