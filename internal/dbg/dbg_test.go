package dbg

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mhmgo/internal/dist"
	"mhmgo/internal/kmeranalysis"
	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
	"mhmgo/internal/sim"
)

// buildFromReads runs k-mer analysis and graph construction over the reads
// on a machine with the given rank count, returning the contigs.
func buildFromReads(t *testing.T, reads []seq.Read, k, ranks int, topts ThresholdOptions) []Contig {
	t.Helper()
	m := pgas.NewMachine(pgas.Config{Ranks: ranks})
	opts := kmeranalysis.DefaultOptions(k)
	opts.UseBloom = false
	opts.MinCount = 2
	var contigs []Contig
	m.Run(func(r *pgas.Rank) {
		lo, hi := r.BlockRange(len(reads))
		res := kmeranalysis.Run(r, reads[lo:hi], opts, nil)
		g := Build(r, res.Counts, k, topts)
		local := Traverse(r, g, TraverseOptions{})
		cs := DistributeContigs(r, local, dist.Distributed)
		if all := EmitContigs(r, cs); r.ID() == 0 {
			contigs = all
		}
	})
	return contigs
}

func coverWithReads(genome string, readLen, step, copies int) []seq.Read {
	var reads []seq.Read
	for c := 0; c < copies; c++ {
		for start := 0; start+readLen <= len(genome); start += step {
			reads = append(reads, seq.Read{ID: "r", Seq: []byte(genome[start : start+readLen])})
		}
		// Also cover the tail.
		if len(genome) > readLen {
			reads = append(reads, seq.Read{ID: "t", Seq: []byte(genome[len(genome)-readLen:])})
		}
	}
	return reads
}

func TestThresholdOptions(t *testing.T) {
	topts := ThresholdOptions{TBase: 2, ErrorRate: 0.01}
	if got := topts.THQFor(10); got != 2 {
		t.Errorf("THQFor(10) = %d, want tbase 2", got)
	}
	if got := topts.THQFor(10000); got != 100 {
		t.Errorf("THQFor(10000) = %d, want 100", got)
	}
	global := ThresholdOptions{GlobalTHQ: 5, TBase: 2, ErrorRate: 0.01}
	if got := global.THQFor(10000); got != 5 {
		t.Errorf("global THQFor = %d, want 5", got)
	}
	def := DefaultThresholds()
	if def.TBase == 0 || def.ErrorRate <= 0 {
		t.Error("defaults should be non-zero")
	}
}

func TestSingleGenomeAssemblesToOneContig(t *testing.T) {
	// An error-free, well-covered random-ish sequence with no repeats of
	// length >= k should assemble into a single contig equal to the genome.
	genome := "ACGTTGCAAGCTTACGGATCCGTAAACTGGTCCATTGGCAACGGTATTCCAGGAATTCACAGGCTTAAGCCTGAATCGTA"
	reads := coverWithReads(genome, 30, 3, 3)
	contigs := buildFromReads(t, reads, 15, 4, DefaultThresholds())
	if len(contigs) != 1 {
		t.Fatalf("got %d contigs, want 1: %+v", len(contigs), summarize(contigs))
	}
	got := string(contigs[0].Seq)
	want := genome
	if got != want && got != seq.ReverseComplementString(want) {
		t.Errorf("assembled contig does not match genome:\n got %s\nwant %s", got, want)
	}
	if contigs[0].Depth < 2 {
		t.Errorf("contig depth %v too low", contigs[0].Depth)
	}
}

func summarize(contigs []Contig) []string {
	var out []string
	for _, c := range contigs {
		out = append(out, string(c.Seq))
	}
	return out
}

func TestAssemblyIndependentOfRankCount(t *testing.T) {
	genome := "ACGTTGCAAGCTTACGGATCCGTAAACTGGTCCATTGGCAACGGTATTCCAGGAATTCACAGGCTTAAGCCTGAATCGTAGGCATCAGTT"
	reads := coverWithReads(genome, 32, 4, 3)
	base := buildFromReads(t, reads, 17, 1, DefaultThresholds())
	for _, ranks := range []int{2, 5, 8} {
		got := buildFromReads(t, reads, 17, ranks, DefaultThresholds())
		if len(got) != len(base) {
			t.Fatalf("ranks=%d: %d contigs vs %d with 1 rank", ranks, len(got), len(base))
		}
		for i := range got {
			if string(got[i].Seq) != string(base[i].Seq) {
				t.Errorf("ranks=%d: contig %d differs", ranks, i)
			}
		}
	}
}

func TestForkSplitsContigs(t *testing.T) {
	// Two genomes share a long identical core but diverge on both sides:
	// the shared core plus the four unique arms should appear as separate
	// contigs because the junctions are forks.
	core := "GGATCCGTAAACTGGTCCATTGGCAACGGTATTCCA"
	g1 := "ACGTTGCAAGCTTAC" + core + "TTACGCATGACCGGT"
	g2 := "TTGGCCAATTGGCAT" + core + "AACCGTTGCAATCCG"
	reads := append(coverWithReads(g1, 25, 2, 3), coverWithReads(g2, 25, 2, 3)...)
	contigs := buildFromReads(t, reads, 13, 4, DefaultThresholds())
	if len(contigs) < 3 {
		t.Fatalf("expected the shared core to split the assembly, got %d contigs", len(contigs))
	}
	// The core must be present (possibly extended by k-1 bases on each side).
	foundCore := false
	for _, c := range contigs {
		s := string(c.Seq)
		rc := seq.ReverseComplementString(s)
		if strings.Contains(s, core[2:len(core)-2]) || strings.Contains(rc, core[2:len(core)-2]) {
			foundCore = true
		}
	}
	if !foundCore {
		t.Error("shared core not represented in any contig")
	}
}

func TestDepthDependentThresholdHelpsHighCoverage(t *testing.T) {
	// A high-coverage genome with sequencing errors: with a strict global
	// threshold the erroneous extensions fragment the assembly; the
	// depth-dependent threshold should tolerate them and produce longer
	// contigs.
	comm := sim.GenerateCommunity(sim.CommunityConfig{
		NumGenomes: 1, MeanGenomeLen: 4000, RRNALen: 200, Seed: 21, StrainFraction: 0,
	})
	reads := sim.SimulateReads(comm, sim.ReadConfig{
		ReadLen: 80, InsertSize: 200, ErrorRate: 0.02, Coverage: 150, Seed: 22,
	})

	k := 21
	metaTopts := ThresholdOptions{TBase: 2, ErrorRate: 0.025, MinCount: 1}
	globalTopts := ThresholdOptions{GlobalTHQ: 1, MinCount: 1}

	meta := ComputeStats(buildFromReads(t, reads, k, 4, metaTopts))
	global := ComputeStats(buildFromReads(t, reads, k, 4, globalTopts))

	if meta.N50 <= global.N50 {
		t.Errorf("depth-dependent threshold should give longer contigs on high-coverage data: N50 %d vs %d",
			meta.N50, global.N50)
	}
}

func TestTraverseMinContigLen(t *testing.T) {
	genome := "ACGTTGCAAGCTTACGGATCCGTAAACTGGTCCATTGGCA"
	reads := coverWithReads(genome, 20, 2, 3)
	m := pgas.NewMachine(pgas.Config{Ranks: 2})
	opts := kmeranalysis.DefaultOptions(11)
	opts.UseBloom = false
	var all, filtered []Contig
	m.Run(func(r *pgas.Rank) {
		lo, hi := r.BlockRange(len(reads))
		res := kmeranalysis.Run(r, reads[lo:hi], opts, nil)
		g := Build(r, res.Counts, 11, DefaultThresholds())
		a := EmitContigs(r, DistributeContigs(r, Traverse(r, g, TraverseOptions{}), dist.Distributed))
		f := EmitContigs(r, DistributeContigs(r, Traverse(r, g, TraverseOptions{MinContigLen: 10000}), dist.Distributed))
		if r.ID() == 0 {
			all, filtered = a, f
		}
	})
	if len(all) == 0 {
		t.Fatal("no contigs at all")
	}
	if len(filtered) != 0 {
		t.Errorf("MinContigLen filter kept %d contigs", len(filtered))
	}
}

func TestComputeStats(t *testing.T) {
	contigs := []Contig{
		{Seq: make([]byte, 100)},
		{Seq: make([]byte, 50)},
		{Seq: make([]byte, 10)},
	}
	s := ComputeStats(contigs)
	if s.Count != 3 || s.TotalBases != 160 || s.MaxLen != 100 {
		t.Errorf("stats = %+v", s)
	}
	if s.N50 != 100 {
		t.Errorf("N50 = %d, want 100", s.N50)
	}
	if !strings.Contains(s.String(), "N50=100") {
		t.Errorf("String() = %q", s.String())
	}
	empty := ComputeStats(nil)
	if empty.Count != 0 || empty.N50 != 0 {
		t.Errorf("empty stats = %+v", empty)
	}
}

func TestCanonicalSeq(t *testing.T) {
	s := []byte("TTGC")
	c := CanonicalSeq(s)
	rc := seq.ReverseComplement(s)
	if string(c) != string(s) && string(c) != string(rc) {
		t.Error("canonical sequence must be the sequence or its reverse complement")
	}
	if string(CanonicalSeq(s)) != string(CanonicalSeq(rc)) {
		t.Error("canonical sequence must be orientation-invariant")
	}
}

func TestDistributeContigsDeduplicatesAndAssignsIDs(t *testing.T) {
	m := pgas.NewMachine(pgas.Config{Ranks: 3})
	var got []Contig
	var ids []int
	m.Run(func(r *pgas.Rank) {
		var local []Contig
		// Every rank emits the same palindrome-ish duplicate plus a unique contig.
		local = append(local, Contig{Seq: []byte("AACCGGTT")})
		local = append(local, Contig{Seq: []byte(strings.Repeat("ACGT", r.ID()+3))})
		cs := DistributeContigs(r, local, dist.Distributed)
		// Shard IDs must be dense, in rank order, and unique across ranks.
		var localIDs []int
		cs.ForEachLocal(r, func(i int, c Contig) { localIDs = append(localIDs, c.ID) })
		gathered := pgas.GatherV(r, localIDs, 8)
		all := EmitContigs(r, cs)
		if r.ID() == 0 {
			got = all
			for _, batch := range gathered {
				ids = append(ids, batch...)
			}
		}
	})
	if len(got) != 4 {
		t.Fatalf("got %d contigs, want 4 (3 unique + 1 deduplicated)", len(got))
	}
	for i, c := range got {
		if c.ID != i {
			t.Errorf("contig %d has ID %d", i, c.ID)
		}
		if i > 0 && len(got[i-1].Seq) < len(c.Seq) {
			t.Error("contigs not sorted by descending length")
		}
	}
	// The ExScan renumbering hands out exactly 0..3, in rank order.
	if len(ids) != 4 {
		t.Fatalf("shards hold %d contigs, want 4", len(ids))
	}
	for i, id := range ids {
		if id != i {
			t.Errorf("shard IDs not dense in rank order: %v", ids)
			break
		}
	}
}

// TestVerticesMatchesEntriesLen pins Graph.Vertices, the vertex count Build
// sums from each rank's local classification, against the stripe-scanning
// Entries.Len, and checks that Traverse's default step bound (which reads
// Vertices) walks exactly as an explicit Entries.Len()+1 bound does: same
// contigs on every rank, same simulated seconds and communication counters.
// P=64 on a short genome leaves many ranks owning no vertex at all.
func TestVerticesMatchesEntriesLen(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	genome := make([]byte, 120)
	for i := range genome {
		genome[i] = seq.BaseToChar(byte(rng.Intn(4)))
	}
	reads := coverWithReads(string(genome), 40, 3, 3)
	const k = 15
	for _, ranks := range []int{1, 3, 64} {
		t.Run(fmt.Sprintf("P=%d", ranks), func(t *testing.T) {
			m := pgas.NewMachine(pgas.Config{Ranks: ranks})
			opts := kmeranalysis.DefaultOptions(k)
			opts.UseBloom = false
			var g *Graph
			m.Run(func(r *pgas.Rank) {
				lo, hi := r.BlockRange(len(reads))
				res := kmeranalysis.Run(r, reads[lo:hi], opts, nil)
				if built := Build(r, res.Counts, k, DefaultThresholds()); r.ID() == 0 {
					g = built
				}
			})
			n := g.Entries.Len()
			if n == 0 {
				t.Fatal("fixture graph has no vertices")
			}
			if got := g.Vertices(); got != n {
				t.Fatalf("Vertices() = %d, Entries.Len() = %d", got, n)
			}
			if ranks == 64 {
				empty := 0
				for rank := 0; rank < ranks; rank++ {
					if g.Entries.LocalLen(rank) == 0 {
						empty++
					}
				}
				if empty == 0 {
					t.Fatalf("every one of %d ranks owns a vertex; the fixture must leave some empty", ranks)
				}
			}
			traverse := func(topts TraverseOptions) ([][]Contig, pgas.RunResult) {
				out := make([][]Contig, ranks)
				res := m.Run(func(r *pgas.Rank) { out[r.ID()] = Traverse(r, g, topts) })
				return out, res
			}
			gotContigs, gotRun := traverse(TraverseOptions{})
			wantContigs, wantRun := traverse(TraverseOptions{MaxSteps: n + 1})
			if !reflect.DeepEqual(gotContigs, wantContigs) {
				t.Errorf("default Traverse differs from MaxSteps=Entries.Len()+1")
			}
			if math.Float64bits(gotRun.SimSeconds) != math.Float64bits(wantRun.SimSeconds) {
				t.Errorf("sim seconds %v, want %v", gotRun.SimSeconds, wantRun.SimSeconds)
			}
			if gotRun.Stats != wantRun.Stats {
				t.Errorf("comm stats %+v, want %+v", gotRun.Stats, wantRun.Stats)
			}
		})
	}
}
