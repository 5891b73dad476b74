package localasm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mhmgo/internal/aligner"
	"mhmgo/internal/dbg"
	"mhmgo/internal/dist"
	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
)

// genome returns a synthetic genome with no long repeats.
func genome() string {
	return "ACGTTGCAAGCTTACGGATCCGTAAACTGGTCCATTGGCAACGGTATTCCAGGAATTCACAGGCTTAAGCCTGAATCGTAGGCATCAGTTGACCAATTCGGA"
}

// pairedReads tiles the genome with interleaved forward/reverse read pairs.
func pairedReads(g string, readLen, frag, step int) []seq.Read {
	var reads []seq.Read
	for start := 0; start+frag <= len(g); start += step {
		fwd := g[start : start+readLen]
		rev := seq.ReverseComplementString(g[start+frag-readLen : start+frag])
		reads = append(reads,
			seq.Read{ID: "p/1", Seq: []byte(fwd)},
			seq.Read{ID: "p/2", Seq: []byte(rev)},
		)
	}
	return reads
}

// asmOut is the scalar Result plus the extended contigs emitted to rank 0
// (sorted by descending length, then sequence).
type asmOut struct {
	Result
	Contigs []dbg.Contig
}

func runLocalAssembly(t *testing.T, contigs []dbg.Contig, reads []seq.Read, ranks int, opts Options) asmOut {
	t.Helper()
	m := pgas.NewMachine(pgas.Config{Ranks: ranks})
	aopts := aligner.DefaultOptions(15)
	var res asmOut
	m.Run(func(r *pgas.Rank) {
		lo, hi := r.BlockRange(len(contigs))
		cs := dbg.DistributeContigs(r, contigs[lo:hi], dist.Distributed)
		idx := aligner.BuildIndex(r, cs, aopts)
		plo, phi := r.PairBlockRange(len(reads))
		aligns, _ := aligner.AlignReads(r, idx, reads[plo:phi], plo, aopts)
		got := Run(r, cs, reads[plo:phi], plo, aligns, opts)
		all := dbg.EmitContigs(r, cs)
		if r.ID() == 0 {
			res = asmOut{Result: got, Contigs: all}
		}
	})
	return res
}

func TestExtendsTruncatedContig(t *testing.T) {
	g := genome()
	// The contig covers only the middle of the genome; reads cover all of it,
	// so mer-walking should extend the contig toward both genome ends.
	contig := dbg.Contig{ID: 0, Seq: []byte(g[30:70]), Depth: 20}
	reads := pairedReads(g, 30, 60, 2)
	opts := DefaultOptions(21)
	opts.MinSupport = 2
	res := runLocalAssembly(t, []dbg.Contig{contig}, reads, 3, opts)
	if res.ExtendedBases == 0 || res.ContigsTouched != 1 {
		t.Fatalf("no extension happened: %+v", res)
	}
	ext := string(res.Contigs[0].Seq)
	if len(ext) <= 40 {
		t.Fatalf("contig not extended: %d bases", len(ext))
	}
	// The extended contig must remain a substring of the genome (or its
	// reverse complement): mer-walking must not invent sequence.
	if !strings.Contains(g, ext) && !strings.Contains(g, seq.ReverseComplementString(ext)) {
		t.Errorf("extended contig is not a substring of the genome:\n%s", ext)
	}
}

func TestNoReadsMeansNoExtension(t *testing.T) {
	contig := dbg.Contig{ID: 0, Seq: []byte(genome()[10:60]), Depth: 20}
	opts := DefaultOptions(21)
	res := runLocalAssembly(t, []dbg.Contig{contig}, nil, 2, opts)
	if res.ExtendedBases != 0 || res.ContigsTouched != 0 {
		t.Errorf("extension without reads: %+v", res)
	}
	if string(res.Contigs[0].Seq) != genome()[10:60] {
		t.Error("contig modified without reads")
	}
}

func TestWorkStealingMatchesStatic(t *testing.T) {
	g := genome()
	contigs := []dbg.Contig{
		{ID: 0, Seq: []byte(g[20:60]), Depth: 20},
		{ID: 1, Seq: []byte(seq.ReverseComplementString(g[40:90])), Depth: 20},
	}
	reads := pairedReads(g, 30, 60, 2)
	dynamic := DefaultOptions(21)
	static := DefaultOptions(21)
	static.WorkStealing = false
	resDyn := runLocalAssembly(t, contigs, reads, 4, dynamic)
	resStat := runLocalAssembly(t, contigs, reads, 4, static)
	if resDyn.ExtendedBases != resStat.ExtendedBases {
		t.Errorf("work stealing changed the result: %d vs %d extended bases",
			resDyn.ExtendedBases, resStat.ExtendedBases)
	}
	for i := range contigs {
		if string(resDyn.Contigs[i].Seq) != string(resStat.Contigs[i].Seq) {
			t.Errorf("contig %d differs between schedulers", i)
		}
	}
	if resDyn.Steals == 0 {
		t.Error("dynamic scheduler should record at least one steal")
	}
	if resStat.Steals != 0 {
		t.Error("static scheduler should record zero steals")
	}
}

func TestRankIndependence(t *testing.T) {
	g := genome()
	contigs := []dbg.Contig{{ID: 0, Seq: []byte(g[25:75]), Depth: 20}}
	reads := pairedReads(g, 30, 60, 3)
	opts := DefaultOptions(21)
	base := runLocalAssembly(t, contigs, reads, 1, opts)
	for _, ranks := range []int{2, 5} {
		got := runLocalAssembly(t, contigs, reads, ranks, opts)
		if string(got.Contigs[0].Seq) != string(base.Contigs[0].Seq) {
			t.Errorf("ranks=%d: extension differs from single-rank run", ranks)
		}
	}
}

func TestWalkStopsAtFork(t *testing.T) {
	// Reads diverge after a shared prefix: the walk must stop at (or shortly
	// after) the fork rather than picking a branch arbitrarily when both
	// branches are well supported at every mer size.
	prefix := "ACGTTGCAAGCTTACGGATCCGTAAACTGG"
	branchA := prefix + "AAACCCGGGTTTACGATC"
	branchB := prefix + "TTTGGGCCCAAATGCTAG"
	var reads [][]byte
	for i := 0; i < 5; i++ {
		reads = append(reads, []byte(branchA), []byte(branchB))
	}
	opts := DefaultOptions(15)
	opts.MinMer = 9
	opts.MaxMer = 17
	added := walkFrom(NewExtender(opts), reads, []byte(prefix[:25]))
	// The walk may reach the fork point but must not run deep into either
	// branch (the branches diverge right after the prefix).
	if len(added) > len(prefix)-25+4 {
		t.Errorf("walk continued %d bases past its start despite the fork", len(added))
	}
}

func TestWalkRespectsMaxExtension(t *testing.T) {
	g := strings.Repeat("ACGTTGCAAGCTTACGGATC", 20)
	var reads [][]byte
	for start := 0; start+40 <= len(g); start += 3 {
		reads = append(reads, []byte(g[start:start+40]))
	}
	opts := DefaultOptions(15)
	opts.MaxExtension = 10
	added := walkFrom(NewExtender(opts), reads, []byte(g[:30]))
	if len(added) > 10 {
		t.Errorf("walk exceeded MaxExtension: %d", len(added))
	}
}

func TestDefaultOptionsSane(t *testing.T) {
	opts := DefaultOptions(31)
	if opts.MinMer >= opts.MaxMer || opts.MaxExtension <= 0 || !opts.WorkStealing {
		t.Errorf("bad defaults: %+v", opts)
	}
}

// walkFrom builds e's tables from reads and returns the bases a walk adds to
// the right end of s.
func walkFrom(e *Extender, reads [][]byte, s []byte) []byte {
	e.reset(reads)
	return e.walk(append([]byte(nil), s...))[len(s):]
}

// naiveMerTable is the reference mer table: every mer of every size in
// [minMer, maxMer], keyed by its string, counted eagerly over both strands.
type naiveMerTable map[string]*[4]int

func buildNaiveMerTable(reads [][]byte, minMer, maxMer int) naiveMerTable {
	t := make(naiveMerTable)
	add := func(s []byte) {
		for m := minMer; m <= maxMer; m++ {
			for i := 0; i+m < len(s); i++ {
				code, ok := seq.CharToBase(s[i+m])
				if !ok {
					continue
				}
				window := s[i : i+m]
				if !seq.ValidBases(window) {
					continue
				}
				key := string(window)
				counts, exists := t[key]
				if !exists {
					counts = &[4]int{}
					t[key] = counts
				}
				counts[code]++
			}
		}
	}
	for _, rd := range reads {
		add(rd)
		add(seq.ReverseComplement(rd))
	}
	return t
}

func (t naiveMerTable) nextBase(mer []byte, minSupport int) (byte, walkState) {
	counts, ok := t[string(mer)]
	if !ok {
		return 0, stateDeadEnd
	}
	best, second, bestCode := 0, 0, -1
	total := 0
	for code, c := range counts {
		total += c
		if c > best {
			second = best
			best = c
			bestCode = code
		} else if c > second {
			second = c
		}
	}
	if total == 0 || best < minSupport {
		return 0, stateDeadEnd
	}
	if second >= minSupport {
		return 0, stateFork
	}
	return byte(bestCode), stateExtend
}

// walk is the reference walk over the whole of s; query, when non-nil, sees
// every mer looked up and the table's answer.
func (t naiveMerTable) walk(s []byte, opts Options, query func(mer []byte, code byte, state walkState)) []byte {
	cur := append([]byte(nil), s...)
	var added []byte
	m := opts.K
	if m > opts.MaxMer {
		m = opts.MaxMer
	}
	if m < opts.MinMer {
		m = opts.MinMer
	}
	lastShift := 0
	for len(added) < opts.MaxExtension {
		if len(cur) < m {
			break
		}
		mer := cur[len(cur)-m:]
		code, state := t.nextBase(mer, opts.MinSupport)
		if query != nil {
			query(mer, code, state)
		}
		switch state {
		case stateExtend:
			base := seq.BaseToChar(code)
			cur = append(cur, base)
			added = append(added, base)
			lastShift = 0
		case stateFork:
			if lastShift == -1 || m+opts.ShiftStep > opts.MaxMer {
				return added
			}
			m += opts.ShiftStep
			lastShift = 1
		case stateDeadEnd:
			if lastShift == 1 || m-opts.ShiftStep < opts.MinMer {
				return added
			}
			m -= opts.ShiftStep
			lastShift = -1
		}
	}
	return added
}

// checkMatchesNaive requires the Extender to answer every mer the reference
// walk queries exactly as the naive table does, and both contig ends to walk
// to the same bases. It returns the number of bases the walks added.
func checkMatchesNaive(t testing.TB, contig []byte, reads [][]byte, opts Options) int {
	t.Helper()
	e := NewExtender(opts)
	opts = e.opts
	naive := buildNaiveMerTable(reads, opts.MinMer, opts.MaxMer)
	e.reset(reads)
	var ends [2][]byte
	for i, s := range [][]byte{contig, seq.ReverseComplement(contig)} {
		ends[i] = naive.walk(s, opts, func(mer []byte, code byte, state walkState) {
			if gc, gs := e.nextBase(mer); gc != code || gs != state {
				t.Fatalf("nextBase(%s) = (%d, %d), naive (%d, %d)", mer, gc, gs, code, state)
			}
		})
		if got := e.walk(append([]byte(nil), s...))[len(s):]; string(got) != string(ends[i]) {
			t.Fatalf("walk of end %d = %q, naive %q", i, got, ends[i])
		}
	}
	want := string(seq.ReverseComplement(ends[1])) + string(contig) + string(ends[0])
	got, added := e.Extend(contig, reads)
	if string(got) != want || added != len(ends[0])+len(ends[1]) {
		t.Fatalf("Extend = %q (+%d), naive %q", got, added, want)
	}
	return added
}

// randomMerCase draws a contig and reads from a random genome with a planted
// repeat (so walks meet forks), sequencing errors, lower-case runs, Ns and
// reads shorter than any mer. The contig is upper case, as contigs are, but
// may carry an N.
func randomMerCase(r *rand.Rand) (contig []byte, reads [][]byte) {
	g := make([]byte, 150+r.Intn(350))
	for i := range g {
		g[i] = seq.BaseToChar(byte(r.Intn(4)))
	}
	rep := 10 + r.Intn(70)
	src, dst := r.Intn(len(g)-rep), r.Intn(len(g)-rep)
	copy(g[dst:dst+rep], g[src:src+rep])
	for n := 20 + r.Intn(60); n > 0; n-- {
		start := r.Intn(len(g))
		rd := append([]byte(nil), g[start:min(len(g), start+1+r.Intn(150))]...)
		if r.Intn(2) == 0 {
			rd = seq.ReverseComplement(rd)
		}
		for i := range rd {
			if r.Intn(100) == 0 {
				rd[i] = seq.BaseToChar(byte(r.Intn(4)))
			}
		}
		if r.Intn(4) == 0 {
			lo := r.Intn(len(rd))
			for i := lo; i < min(len(rd), lo+1+r.Intn(30)); i++ {
				rd[i] |= 0x20
			}
		}
		if r.Intn(8) == 0 {
			rd[r.Intn(len(rd))] = 'N'
		}
		reads = append(reads, rd)
	}
	start := r.Intn(len(g) - 1)
	contig = append([]byte(nil), g[start:min(len(g), start+1+r.Intn(120))]...)
	if r.Intn(10) == 0 {
		contig[r.Intn(len(contig))] = 'N'
	}
	return contig, reads
}

// merCaseOptions covers the default geometry at several k (K=63 reaches
// 75-base mers), a short and wide MinMer..MaxMer range, K outside its
// bounds, and supports from 1 to 3.
var merCaseOptions = []Options{
	DefaultOptions(21),
	DefaultOptions(31),
	DefaultOptions(63),
	{K: 15, ShiftStep: 3, MinMer: 9, MaxMer: 17, MaxExtension: 300, MinSupport: 1},
	{K: 40, ShiftStep: 5, MinMer: 11, MaxMer: 30, MaxExtension: 50, MinSupport: 3},
	{K: 47, ShiftStep: 7, MinMer: 50, MaxMer: 96, MaxExtension: 200, MinSupport: 2},
}

func TestMerTableMatchesNaive(t *testing.T) {
	for _, opts := range merCaseOptions {
		t.Run(fmt.Sprintf("K=%d,step=%d,mer=%d..%d", opts.K, opts.ShiftStep, opts.MinMer, opts.MaxMer), func(t *testing.T) {
			added := 0
			for seed := int64(1); seed <= 12; seed++ {
				contig, reads := randomMerCase(rand.New(rand.NewSource(seed)))
				added += checkMatchesNaive(t, contig, reads, opts)
			}
			if added == 0 {
				t.Error("no case extended a contig; the comparison is vacuous")
			}
		})
	}
	// A following base counts in either case: the contig's next base is
	// supported only by lower-case bases, so the walk takes exactly that
	// base, then finds no upper-case window to continue from.
	t.Run("lower-case following base", func(t *testing.T) {
		g := genome()
		rd := []byte(g[10:40] + strings.ToLower(g[40:60]))
		if added := checkMatchesNaive(t, []byte(g[:40]), [][]byte{rd, rd}, DefaultOptions(21)); added != 1 {
			t.Errorf("added %d bases, want 1", added)
		}
	})
}

func FuzzMerTableEquivalence(f *testing.F) {
	for i, opts := range merCaseOptions {
		f.Add(int64(i), uint8(opts.K), uint8(opts.ShiftStep), uint8(opts.MaxMer-opts.MinMer), uint8(opts.MinSupport))
	}
	f.Fuzz(func(t *testing.T, seed int64, k, step, span, support uint8) {
		opts := DefaultOptions(int(k%64) + 1)
		opts.ShiftStep = int(step%8) + 1
		opts.MinMer = max(5, opts.K-int(span%16))
		opts.MaxMer = min(maxMerLen, opts.MinMer+int(span%32)+1)
		opts.MinSupport = int(support%4) + 1
		contig, reads := randomMerCase(rand.New(rand.NewSource(seed)))
		checkMatchesNaive(t, contig, reads, opts)
	})
}

// TestWalkPastSixtyFourBaseMers plants a 64-base repeat: at K=63 the walk
// forks at the end of the first copy and must upshift to 67-base mers, whose
// leading bases tell the copies apart, to walk through it. A key holding
// fewer than 67 bases would still see the fork and stop.
func TestWalkPastSixtyFourBaseMers(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	randBases := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = seq.BaseToChar(byte(r.Intn(4)))
		}
		return string(b)
	}
	repeat := randBases(64)
	g := randBases(150) + repeat + "A" + randBases(200) + repeat + "C" + randBases(200)
	var reads [][]byte
	for start := 0; start+150 <= len(g); start += 5 {
		reads = append(reads, []byte(g[start:start+150]))
	}
	opts := DefaultOptions(63)
	contig := []byte(g[50 : 150+len(repeat)])
	e := NewExtender(opts)
	e.reset(reads)
	if _, state := e.nextBase(contig[len(contig)-63:]); state != stateFork {
		t.Fatalf("63-mer at the repeat end: state %d, want a fork", state)
	}
	right := walkFrom(e, reads, contig)
	if len(right) <= 2*64 || !strings.HasPrefix(g[len(contig)+50:], string(right)) {
		t.Fatalf("walk added %d bases %q; want a walk through the repeat", len(right), right)
	}
	checkMatchesNaive(t, contig, reads, opts)
}

// TestExtendWarmAllocs pins the scratch reuse: once an Extender has walked a
// contig, extending it again allocates only the returned sequence.
func TestExtendWarmAllocs(t *testing.T) {
	g := genome()
	contig := []byte(g[30:70])
	var reads [][]byte
	for _, rd := range pairedReads(g, 30, 60, 2) {
		reads = append(reads, rd.Seq)
	}
	e := NewExtender(DefaultOptions(21))
	if _, added := e.Extend(contig, reads); added == 0 {
		t.Fatal("fixture contig was not extended")
	}
	if allocs := testing.AllocsPerRun(20, func() { e.Extend(contig, reads) }); allocs != 1 {
		t.Errorf("warm Extend made %.1f allocations, want 1 (the extended sequence)", allocs)
	}
}
