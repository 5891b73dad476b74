// Package localasm implements the local assembly stage of iterative contig
// generation (Section II-G of the paper): contigs are extended by
// "mer-walking" through the reads that align to them (or whose mates are
// projected onto them), with a dynamically adjusted mer size — upshifted at
// forks, downshifted at dead ends — and a work-sharing scheduler to balance
// the highly variable per-contig cost.
//
// Since PR 3 the contigs stay distributed: recruited reads are routed to the
// contig's owner rank with one aggregated exchange (instead of a replicated
// read pool), extension results are routed back to the owner only (instead
// of being gathered onto every rank), and the work-sharing scheduler claims
// interleaved blocks of the global ID space deterministically — each claim
// still charges a global-counter atomic, and working on a non-owned contig
// still pays the one-sided fetches of the contig and its recruited reads, so
// the cost model sees exactly what dynamic stealing would cost, while
// simulated seconds stay reproducible run to run.
package localasm

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"mhmgo/internal/aligner"
	"mhmgo/internal/dbg"
	"mhmgo/internal/dist"
	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
)

// Options controls local assembly.
type Options struct {
	// K is the base mer size used for walking (usually the pipeline's k).
	K int
	// ShiftStep is how much the mer size is shifted up or down (L in the
	// paper) when a fork or dead end is hit.
	ShiftStep int
	// MinMer and MaxMer bound the dynamic mer size. MaxMer may be at most
	// 96 bases, which covers DefaultOptions for every k up to seq.MaxK.
	MinMer, MaxMer int
	// MaxExtension bounds how many bases a contig end may be extended.
	MaxExtension int
	// MinSupport is the number of read observations required to accept an
	// extension base (lower than the global k-mer analysis threshold, as the
	// paper allows uncontested extensions of lower quality).
	MinSupport int
	// EndWindow recruits reads aligned within this many bases of a contig
	// end (plus projected mates).
	EndWindow int
	// Libraries, when non-empty, widens the recruitment window per library:
	// a read from library L is recruited within EndWindow +
	// (L.InsertSize - minInsert)/2 of a contig end, where minInsert is the
	// smallest insert size across the libraries. A long-insert read whose
	// mate lies far beyond the contig end is still useful for extension and
	// gap closing, so its recruitment radius scales with the library's
	// geometry; with zero or one library the window is exactly EndWindow
	// (the legacy behavior).
	Libraries []seq.Library
	// WorkStealing enables the dynamic work-stealing scheduler; when false
	// contigs are statically block-partitioned (ablation mode).
	WorkStealing bool
	// BlockSize is the number of contigs claimed per steal.
	BlockSize int
}

// withDefaults fills in the options Run needs that are unset or out of
// range.
func (opts Options) withDefaults() Options {
	if opts.K <= 0 {
		opts.K = 31
	}
	if opts.ShiftStep <= 0 {
		opts.ShiftStep = 4
	}
	if opts.MinMer <= 4 {
		opts.MinMer = 5
	}
	if opts.MaxMer <= opts.MinMer {
		opts.MaxMer = opts.MinMer + 8
	}
	if opts.MaxExtension <= 0 {
		opts.MaxExtension = 300
	}
	if opts.MinSupport <= 0 {
		opts.MinSupport = 2
	}
	if opts.BlockSize <= 0 {
		opts.BlockSize = 4
	}
	return opts
}

// DefaultOptions returns the local assembly defaults for mer size k.
func DefaultOptions(k int) Options {
	return Options{
		K:            k,
		ShiftStep:    4,
		MinMer:       k - 8,
		MaxMer:       k + 12,
		MaxExtension: 300,
		MinSupport:   2,
		EndWindow:    200,
		WorkStealing: true,
		BlockSize:    4,
	}
}

// Result reports the outcome of local assembly. The extended contigs are
// written back into the distributed contig set in place (each owner updates
// its own shard); only the scalar summaries are all-reduced.
type Result struct {
	ExtendedBases  int
	ContigsTouched int
	Steals         int
}

// recruit is one read sequence shipped to the owner of the contig it may
// extend.
type recruit struct {
	ContigID int
	Seq      []byte
}

// WireSize returns the wire bytes of one recruit record.
func (rc recruit) WireSize() int { return 8 + len(rc.Seq) }

// extRecord is one extension result routed back to the contig's owner.
type extRecord struct {
	ID  int
	Seq []byte
}

// WireSize returns the wire bytes of one extension record.
func (e extRecord) WireSize() int { return 8 + len(e.Seq) }

// Run extends the distributed contigs using the reads aligned to them.
// Collective: every rank passes its local reads and the alignments computed
// for them; extensions are applied in place to the set's shards, and the
// scalar Result is identical on every rank.
//
// Reads must be distributed in whole pairs (use pgas.PairBlockRange) so that
// a read's mate is available on the same rank for recruitment.
func Run(r *pgas.Rank, cs *dbg.ContigSet, reads []seq.Read, readOffset int, alignments []aligner.Alignment, opts Options) Result {
	opts = opts.withDefaults()
	ext := NewExtender(opts)
	creader := cs.NewReader(r, 1<<16)

	// Step 1: recruitment. A read is useful for a contig if it aligns near
	// one of the contig's ends; its mate is also recruited since it may
	// extend past the end. Recruits are routed to the contig's owner rank
	// with one aggregated exchange (use case 4, "Local Reads & Writes") —
	// the owner-routed replacement of the old replicated read pool.
	// Per-library recruitment radius: EndWindow plus half the library's
	// insert-size excess over the shortest library (zero for single-library
	// inputs, so legacy behavior is bit-preserved).
	libWindow := libraryWindows(opts)
	var recs []recruit
	for _, a := range alignments {
		w := opts.EndWindow
		if int(a.LibID) < len(libWindow) {
			w = libWindow[a.LibID]
		}
		// The contig length rides along in the alignment record (set at
		// extension time), so end-proximity needs no remote fetch.
		nearStart := a.ContigPos <= w
		nearEnd := a.ContigPos+a.AlignLen >= a.ContigLen-w
		if !nearStart && !nearEnd {
			continue
		}
		li := a.ReadIdx - readOffset
		if li < 0 || li >= len(reads) {
			continue
		}
		recs = append(recs, recruit{ContigID: a.ContigID, Seq: reads[li].Seq})
		// Recruit the mate: reads are interleaved pairs in *global* order
		// (global indices 2i and 2i+1 are mates).
		mateLocal := (a.ReadIdx ^ 1) - readOffset
		if mateLocal >= 0 && mateLocal < len(reads) {
			recs = append(recs, recruit{ContigID: a.ContigID, Seq: reads[mateLocal].Seq})
		}
		r.Compute(1)
	}
	mine := dist.Exchange(r, recs,
		func(rc recruit) int { owner, _ := cs.Locate(rc.ContigID); return owner },
		recruit.WireSize, cs.Mode())

	// Bundle the recruits per owned contig and publish the per-rank bundles
	// so the work-sharing scheduler can fetch a non-owned contig's reads
	// (charged as a one-sided get).
	myBundle := make(map[int][][]byte, len(mine))
	for _, rc := range mine {
		myBundle[rc.ContigID] = append(myBundle[rc.ContigID], rc.Seq)
	}
	r.Compute(float64(len(mine)))
	var bundles []map[int][][]byte
	if r.ID() == 0 {
		bundles = make([]map[int][][]byte, r.NRanks())
	}
	bundles = pgas.Broadcast(r, bundles)
	bundles[r.ID()] = myBundle
	r.Barrier()

	// Step 2: walk the contigs. With work sharing enabled, ranks claim
	// interleaved blocks of the dense global ID space — every claim charges
	// the global counter's atomic cost, and processing a non-owned contig
	// pays the one-sided fetches of the contig and its bundle. The
	// interleaved schedule is deterministic, so simulated seconds are
	// reproducible run to run; the charged costs match what the racy
	// counter-based scheduler paid.
	n := cs.GlobalLen(r)
	counterHandle := -1
	if opts.WorkStealing {
		var h int
		if r.ID() == 0 {
			h = r.Machine().NewAtomic(0)
		}
		counterHandle = pgas.Broadcast(r, h)
	} else {
		r.Barrier()
	}

	var exts []extRecord
	var sorted [][]byte
	extendedBases := 0
	touched := 0
	steals := 0

	processContig := func(id int) {
		owner, idx := cs.Locate(id)
		var c dbg.Contig
		var rds [][]byte
		if owner == r.ID() {
			c = cs.Local(r)[idx]
			rds = myBundle[id]
			r.Compute(1)
		} else {
			c = creader.Get(id)
			rds = bundles[owner][id]
			if len(rds) > 0 {
				if cs.Mode() == dist.Replicated {
					r.Compute(1)
				} else {
					total := 0
					for _, rd := range rds {
						total += len(rd)
					}
					r.ChargeGet(owner, total, 1)
				}
			}
		}
		if len(rds) == 0 {
			return
		}
		// Sort for determinism: the exchange accumulates read batches in
		// source-rank order, but the walk must not depend on any arrival
		// order at all. Sort a copy — the bundle is shared.
		sorted = append(sorted[:0], rds...)
		slices.SortFunc(sorted, bytes.Compare)
		r.Compute(float64(len(sorted) * 8))
		newSeq, added := ext.Extend(c.Seq, sorted)
		if added > 0 {
			exts = append(exts, extRecord{ID: id, Seq: newSeq})
			extendedBases += added
			touched++
		}
	}

	if opts.WorkStealing {
		for start := r.ID() * opts.BlockSize; start < n; start += r.NRanks() * opts.BlockSize {
			// One remote atomic per claimed block, exactly as the dynamic
			// counter would charge.
			r.AtomicFetchAdd(counterHandle, int64(opts.BlockSize))
			steals++
			end := start + opts.BlockSize
			if end > n {
				end = n
			}
			for id := start; id < end; id++ {
				processContig(id)
			}
		}
	} else {
		cs.ForEachLocal(r, func(_ int, c dbg.Contig) { processContig(c.ID) })
	}
	r.Barrier()

	// Step 3: route the extensions to the contigs' owners only — no rank
	// materializes the full extension set — and apply them owner-side.
	got := dist.Exchange(r, exts,
		func(e extRecord) int { owner, _ := cs.Locate(e.ID); return owner },
		extRecord.WireSize, cs.Mode())
	slices.SortFunc(got, func(a, b extRecord) int { return cmp.Compare(a.ID, b.ID) })
	for _, e := range got {
		_, idx := cs.Locate(e.ID)
		c := cs.Local(r)[idx]
		c.Seq = e.Seq
		cs.SetLocal(r, idx, c)
	}
	r.Barrier()

	var res Result
	res.ExtendedBases = pgas.AllReduce(r, extendedBases, pgas.ReduceSum)
	res.ContigsTouched = pgas.AllReduce(r, touched, pgas.ReduceSum)
	res.Steals = pgas.AllReduce(r, steals, pgas.ReduceSum)
	r.Barrier()
	return res
}

// libraryWindows returns the per-library recruitment window (indexed by
// LibID), or nil when no library list was provided (every read then uses
// opts.EndWindow).
func libraryWindows(opts Options) []int {
	if len(opts.Libraries) == 0 {
		return nil
	}
	minInsert := opts.Libraries[0].InsertSize
	for _, lib := range opts.Libraries[1:] {
		if lib.InsertSize < minInsert {
			minInsert = lib.InsertSize
		}
	}
	out := make([]int, len(opts.Libraries))
	for i, lib := range opts.Libraries {
		extra := (lib.InsertSize - minInsert) / 2
		if extra < 0 {
			extra = 0
		}
		out[i] = opts.EndWindow + extra
	}
	return out
}

// maxMerLen is the longest mer a merKey holds: three 64-bit words of 2-bit
// codes. It must cover DefaultOptions(seq.MaxK).MaxMer; the array length
// below fails to compile otherwise.
const maxMerLen = 96

var _ [maxMerLen - (seq.MaxK + 12)]struct{}

// merKey is a mer of up to maxMerLen bases packed two bits per base, the
// last base in the lowest bits of word 0. Each mer size has its own table,
// so the key needs no length.
type merKey [3]uint64

// merKeyMask returns the mask of the 2m bits a key of m bases uses.
func merKeyMask(m int) merKey {
	var mask merKey
	for w := range mask {
		switch bits := 2*m - 64*w; {
		case bits >= 64:
			mask[w] = ^uint64(0)
		case bits > 0:
			mask[w] = uint64(1)<<uint(bits) - 1
		}
	}
	return mask
}

// push shifts base code c in as the last base of the key.
func (k merKey) push(c byte, mask *merKey) merKey {
	return merKey{
		(k[0]<<2 | uint64(c)) & mask[0],
		(k[1]<<2 | k[0]>>62) & mask[1],
		(k[2]<<2 | k[1]>>62) & mask[2],
	}
}

// Read bases are coded once per contig: upper-case ACGT as 0-3, lower-case
// acgt as code|lowerCase, anything else as noBase. Only upper-case bases
// form table keys, since walk queries come from upper-case contigs; a
// following base counts in either case.
const (
	lowerCase byte = 4
	noBase    byte = 0xFF
)

func merCode(c byte) byte {
	code, ok := seq.CharToBase(c)
	switch {
	case !ok:
		return noBase
	case c >= 'a':
		return code | lowerCase
	}
	return code
}

// merTable counts, for every upper-case mer of one size in the recruited
// reads (both strands), how many times each base follows it. The value
// indexes the Extender's count slab.
type merTable struct {
	built bool
	mask  merKey
	idx   map[merKey]int32
}

// Extender mer-walks contig ends through their recruited reads. It builds
// the mer table of a size only when a walk first asks for it, and keeps its
// tables and buffers across contigs, so one Extender per rank makes warm
// extensions allocate only the extended sequence (and, rarely, a map table
// split when a large table is refilled). Not safe for concurrent use.
type Extender struct {
	opts   Options
	codes  []byte // merCode of every recruited read, forward then reverse strand
	ends   []int  // end offset in codes of each strand
	tables []merTable
	counts [][4]int32
	right  []byte // walk buffers for the right and left contig ends
	left   []byte
}

// NewExtender returns an Extender for opts, with unset options defaulted as
// Run defaults them. It panics if MaxMer exceeds the 96 bases a table key
// holds.
func NewExtender(opts Options) *Extender {
	opts = opts.withDefaults()
	if opts.MaxMer > maxMerLen {
		panic(fmt.Sprintf("localasm: MaxMer %d exceeds the %d-base mer key", opts.MaxMer, maxMerLen))
	}
	tables := make([]merTable, opts.MaxMer-opts.MinMer+1)
	for i := range tables {
		tables[i].mask = merKeyMask(opts.MinMer + i)
	}
	return &Extender{opts: opts, tables: tables}
}

// Extend mer-walks both ends of a contig using the recruited reads and
// returns the (possibly longer) sequence and the number of bases added.
func (e *Extender) Extend(contigSeq []byte, reads [][]byte) ([]byte, int) {
	e.reset(reads)
	// A walk reads only the last MaxMer bases of its sequence, so each end
	// starts from at most MaxMer bases; the left end walks the reverse
	// complement of the contig's head.
	n := min(len(contigSeq), e.opts.MaxMer)
	e.right = e.walk(append(e.right[:0], contigSeq[len(contigSeq)-n:]...))
	e.left = e.walk(seq.AppendReverseComplement(e.left[:0], contigSeq[:n]))
	right, left := e.right[n:], e.left[n:]
	if len(right) == 0 && len(left) == 0 {
		return contigSeq, 0
	}
	newSeq := make([]byte, 0, len(contigSeq)+len(left)+len(right))
	newSeq = seq.AppendReverseComplement(newSeq, left)
	newSeq = append(newSeq, contigSeq...)
	newSeq = append(newSeq, right...)
	return newSeq, len(left) + len(right)
}

// reset drops the previous contig's tables and codes the reads' strands.
// The reverse strand is coded as seq.ReverseComplement would write it:
// upper case, non-ACGT as N.
func (e *Extender) reset(reads [][]byte) {
	for i := range e.tables {
		if e.tables[i].built {
			clear(e.tables[i].idx)
			e.tables[i].built = false
		}
	}
	e.counts = e.counts[:0]
	e.codes, e.ends = e.codes[:0], e.ends[:0]
	for _, rd := range reads {
		start := len(e.codes)
		for _, c := range rd {
			e.codes = append(e.codes, merCode(c))
		}
		e.ends = append(e.ends, len(e.codes))
		for i := len(e.codes) - 1; i >= start; i-- {
			c := e.codes[i]
			if c != noBase {
				c = seq.ComplementCode(c)
			}
			e.codes = append(e.codes, c)
		}
		e.ends = append(e.ends, len(e.codes))
	}
}

// table returns the mer table of size m, building it on first use by
// rolling an m-base key over each strand once.
func (e *Extender) table(m int) *merTable {
	t := &e.tables[m-e.opts.MinMer]
	if t.built {
		return t
	}
	if t.idx == nil {
		t.idx = make(map[merKey]int32)
	}
	start := 0
	for _, end := range e.ends {
		s := e.codes[start:end]
		start = end
		var key merKey
		run := 0 // upper-case bases ending at j
		for j := 0; j+1 < len(s); j++ {
			if s[j] > 3 {
				run = 0
				continue
			}
			key = key.push(s[j], &t.mask)
			if run++; run < m || s[j+1] == noBase {
				continue
			}
			i, ok := t.idx[key]
			if !ok {
				i = int32(len(e.counts))
				e.counts = append(e.counts, [4]int32{})
				t.idx[key] = i
			}
			e.counts[i][s[j+1]&3]++
		}
	}
	t.built = true
	return t
}

// walkState classifies one extension attempt.
type walkState int

const (
	stateExtend walkState = iota
	stateFork
	stateDeadEnd
)

// nextBase inspects the mer table for the unique supported continuation of
// the current mer. A mer with any base other than upper-case ACGT is a dead
// end.
func (e *Extender) nextBase(mer []byte) (byte, walkState) {
	t := e.table(len(mer))
	var key merKey
	for _, c := range mer {
		code := merCode(c)
		if code > 3 {
			return 0, stateDeadEnd
		}
		key = key.push(code, &t.mask)
	}
	i, ok := t.idx[key]
	if !ok {
		return 0, stateDeadEnd
	}
	best, second, bestCode := int32(0), int32(0), -1
	for code, c := range e.counts[i] {
		if c > best {
			second = best
			best = c
			bestCode = code
		} else if c > second {
			second = c
		}
	}
	if best < int32(e.opts.MinSupport) {
		return 0, stateDeadEnd
	}
	if second >= int32(e.opts.MinSupport) {
		return 0, stateFork
	}
	return byte(bestCode), stateExtend
}

// walk extends the right end of cur by mer-walking with dynamic mer-size
// shifting: upshift on forks, downshift on dead ends; terminate on a fork
// after a downshift, a dead end after an upshift, or the extension cap. It
// appends the added bases to cur and returns it.
func (e *Extender) walk(cur []byte) []byte {
	opts := &e.opts
	start := len(cur)
	m := opts.K
	if m > opts.MaxMer {
		m = opts.MaxMer
	}
	if m < opts.MinMer {
		m = opts.MinMer
	}
	lastShift := 0 // +1 upshift, -1 downshift, 0 none
	for len(cur)-start < opts.MaxExtension {
		if len(cur) < m {
			break
		}
		code, state := e.nextBase(cur[len(cur)-m:])
		switch state {
		case stateExtend:
			cur = append(cur, seq.BaseToChar(code))
			lastShift = 0
		case stateFork:
			if lastShift == -1 || m+opts.ShiftStep > opts.MaxMer {
				return cur
			}
			m += opts.ShiftStep
			lastShift = 1
		case stateDeadEnd:
			if lastShift == 1 || m-opts.ShiftStep < opts.MinMer {
				return cur
			}
			m -= opts.ShiftStep
			lastShift = -1
		}
	}
	return cur
}
