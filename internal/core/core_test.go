package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mhmgo/internal/aligner"
	"mhmgo/internal/dbg"
	"mhmgo/internal/dist"
	"mhmgo/internal/eval"
	"mhmgo/internal/hmm"
	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
	"mhmgo/internal/sim"
)

// smallCommunity returns a small community and reads suitable for fast
// end-to-end assembly tests.
func smallCommunity(t *testing.T, genomes int, coverage float64) (*sim.Community, []seq.Read) {
	t.Helper()
	comm := sim.GenerateCommunity(sim.CommunityConfig{
		NumGenomes:     genomes,
		MeanGenomeLen:  4000,
		LenVariation:   0.2,
		AbundanceSigma: 0.6,
		RRNALen:        200,
		RRNADivergence: 0.02,
		StrainFraction: 0,
		Seed:           101,
	})
	reads := sim.SimulateReads(comm, sim.ReadConfig{
		ReadLen:    80,
		InsertSize: 220,
		InsertStd:  15,
		ErrorRate:  0.005,
		Coverage:   coverage,
		Seed:       102,
	})
	return comm, reads
}

func testConfig(ranks int) Config {
	cfg := DefaultConfig(ranks)
	cfg.KMin, cfg.KMax, cfg.KStep = 21, 33, 12
	cfg.InsertSize, cfg.InsertStd = 220, 15
	return cfg
}

func TestKValues(t *testing.T) {
	cfg := Config{KMin: 21, KMax: 55, KStep: 12}
	ks := cfg.KValues()
	want := []int{21, 33, 45}
	if len(ks) != len(want) {
		t.Fatalf("KValues = %v, want %v", ks, want)
	}
	for i := range want {
		if ks[i] != want[i] {
			t.Errorf("KValues = %v, want %v", ks, want)
			break
		}
	}
	// Even k values are bumped to odd ones.
	cfg = Config{KMin: 20, KMax: 20, KStep: 2}
	ks = cfg.KValues()
	if len(ks) != 1 || ks[0] != 21 {
		t.Errorf("even k not adjusted: %v", ks)
	}
}

func TestAssembleErrors(t *testing.T) {
	if _, err := Assemble(nil, DefaultConfig(2)); err == nil {
		t.Error("empty read set should fail")
	}
	cfg := DefaultConfig(2)
	cfg.KMin, cfg.KMax = 200, 300
	if _, err := Assemble([]seq.Read{{ID: "r", Seq: []byte("ACGT")}}, cfg); err == nil {
		t.Error("k out of range should fail")
	}

	// Malformed reads are refused at the boundary, naming index and ID.
	good := seq.Read{ID: "ok", Seq: []byte("ACGTACGT"), Qual: []byte("IIIIIIII")}
	for _, tc := range []struct {
		name string
		bad  seq.Read
	}{
		{"empty sequence", seq.Read{ID: "empty"}},
		{"short quality", seq.Read{ID: "shortq", Seq: []byte("ACGTACGT"), Qual: []byte("IIII")}},
	} {
		_, err := Assemble([]seq.Read{good, tc.bad}, DefaultConfig(2))
		if err == nil {
			t.Errorf("%s: malformed read accepted", tc.name)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "read 1") || !strings.Contains(msg, tc.bad.ID) {
			t.Errorf("%s: error %q does not name read index 1 and ID %q", tc.name, msg, tc.bad.ID)
		}
	}
}

func TestEndToEndAssemblyQuality(t *testing.T) {
	comm, reads := smallCommunity(t, 3, 18)
	cfg := testConfig(4)
	cfg.RRNAProfile = hmm.BuildProfile([][]byte{comm.RRNAMarker}, 0.9)
	res, err := Assemble(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contigs) == 0 {
		t.Fatal("no contigs assembled")
	}
	if res.SimSeconds <= 0 || res.WallSeconds <= 0 {
		t.Error("timings not recorded")
	}
	if len(res.Stages) < 5 {
		t.Errorf("expected stage timings for all stages, got %v", res.Stages)
	}
	if res.AlignedReadFrac < 0.8 {
		t.Errorf("only %v of reads aligned back to contigs", res.AlignedReadFrac)
	}

	// Reference-based quality: most of each genome should be recovered and
	// nothing should be badly misassembled.
	eopts := eval.DefaultOptions()
	eopts.RRNAProfile = cfg.RRNAProfile
	report := eval.Evaluate("MetaHipMer", res.FinalSequences(), comm, eopts)
	if report.GenomeFraction < 0.85 {
		t.Errorf("genome fraction %v too low", report.GenomeFraction)
	}
	// Metagenome assemblies do contain some misassemblies (Table I reports
	// hundreds for real assemblers); just require that they stay a small
	// minority of the output sequences.
	if limit := 3 + report.NumSeqs/5; report.Misassemblies > limit {
		t.Errorf("too many misassemblies: %d of %d sequences", report.Misassemblies, report.NumSeqs)
	}
	if report.RRNACount == 0 {
		t.Error("no rRNA regions recovered")
	}
	// Scaffolds/contigs should cover a large portion of the 3-genome
	// community in total length.
	if report.TotalLen < comm.TotalBases()*3/4 {
		t.Errorf("assembly length %d much smaller than community %d", report.TotalLen, comm.TotalBases())
	}
}

func TestAssemblyDeterministicAcrossRankCounts(t *testing.T) {
	_, reads := smallCommunity(t, 2, 15)
	// Localization changes read ordering and the Bloom prefilter drops the
	// first sighting of each k-mer (whose identity depends on arrival
	// order), so both are disabled for a bit-identical comparison.
	cfgA := testConfig(2)
	cfgA.ReadLocalization = false
	cfgA.UseBloom = false
	cfgB := testConfig(6)
	cfgB.ReadLocalization = false
	cfgB.UseBloom = false
	resA, err := Assemble(reads, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Assemble(reads, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if len(resA.Contigs) != len(resB.Contigs) {
		t.Fatalf("contig count differs across rank counts: %d vs %d", len(resA.Contigs), len(resB.Contigs))
	}
	for i := range resA.Contigs {
		if string(resA.Contigs[i].Seq) != string(resB.Contigs[i].Seq) {
			t.Errorf("contig %d differs across rank counts", i)
		}
	}
}

func TestScalingReducesSimulatedTime(t *testing.T) {
	_, reads := smallCommunity(t, 2, 12)
	times := map[int]float64{}
	// One rank per node in both runs so that the on-node/off-node mix is
	// comparable and only the degree of parallelism changes.
	for _, ranks := range []int{2, 8} {
		cfg := testConfig(ranks)
		cfg.RanksPerNode = 1
		res, err := Assemble(reads, cfg)
		if err != nil {
			t.Fatal(err)
		}
		times[ranks] = res.SimSeconds
	}
	if times[8] >= times[2] {
		t.Errorf("simulated time should drop with more ranks: %v", times)
	}
}

func TestFreeCommunicationAblation(t *testing.T) {
	// CostSet with a zero cost model must run the whole pipeline with zero
	// simulated time (every operation still executes and is counted), and
	// must produce the same assembly as the default-cost run.
	_, reads := smallCommunity(t, 2, 12)
	free := testConfig(4)
	free.CostSet = true
	freeRes, err := Assemble(reads, free)
	if err != nil {
		t.Fatal(err)
	}
	if freeRes.SimSeconds != 0 {
		t.Errorf("free-communication run charged %v simulated seconds, want 0", freeRes.SimSeconds)
	}
	if freeRes.Stats.Messages == 0 {
		t.Error("free-communication run should still count its messages")
	}
	paidRes, err := Assemble(reads, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if paidRes.SimSeconds <= 0 {
		t.Error("default-cost run should charge simulated time")
	}
	if len(freeRes.FinalSequences()) != len(paidRes.FinalSequences()) {
		t.Errorf("cost model must not change assembly results: %d vs %d sequences",
			len(freeRes.FinalSequences()), len(paidRes.FinalSequences()))
	}
}

func TestDepthDependentThresholdBeatsGlobalOnQuality(t *testing.T) {
	comm, reads := smallCommunity(t, 3, 25)
	meta := testConfig(4)
	hip := testConfig(4)
	hip.GlobalTHQ = 1 // HipMer-style fixed threshold
	metaRes, err := Assemble(reads, meta)
	if err != nil {
		t.Fatal(err)
	}
	hipRes, err := Assemble(reads, hip)
	if err != nil {
		t.Fatal(err)
	}
	eopts := eval.DefaultOptions()
	metaRep := eval.Evaluate("meta", metaRes.FinalSequences(), comm, eopts)
	hipRep := eval.Evaluate("hip", hipRes.FinalSequences(), comm, eopts)
	if metaRep.GenomeFraction+0.02 < hipRep.GenomeFraction {
		t.Errorf("depth-dependent threshold should not lose coverage: %v vs %v",
			metaRep.GenomeFraction, hipRep.GenomeFraction)
	}
}

func TestScaffoldingDisabled(t *testing.T) {
	_, reads := smallCommunity(t, 2, 12)
	cfg := testConfig(3)
	cfg.Scaffolding = false
	res, err := Assemble(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scaffolds) != 0 {
		t.Error("scaffolds produced despite Scaffolding=false")
	}
	if len(res.FinalSequences()) != len(res.Contigs) {
		t.Error("FinalSequences should fall back to contigs")
	}
}

func TestMinContigLenFilter(t *testing.T) {
	_, reads := smallCommunity(t, 2, 12)
	cfg := testConfig(2)
	cfg.Scaffolding = false
	cfg.MinContigLen = 500
	res, err := Assemble(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Contigs {
		if len(c.Seq) < 500 {
			t.Errorf("contig of length %d survived the MinContigLen filter", len(c.Seq))
		}
	}
}

// TestLocalizePairsGroupsByContig pins read localization (Section II-I):
// every aligned pair lands on the rank owning its contig with its mates
// adjacent, the unaligned pair stays in the pipeline, no read is lost, and
// the returned offsets are the exclusive prefix sums of the new shard sizes.
func TestLocalizePairsGroupsByContig(t *testing.T) {
	contigs := []dbg.Contig{
		{Seq: []byte("ACGTTGCAAGCTTACGGATCCGTAAACTGGTCCATTGGCAACGGTATTCCAGGAATTCACAGG"), Depth: 20},
		{Seq: []byte("TTGGCCAATCGGATTACCGGTTAAGGCCTTGACCGGTATGCCAGTTGGAACCTT"), Depth: 15},
	}
	var reads []seq.Read
	for ci, c := range contigs {
		for i := 0; i+50 <= len(c.Seq); i += 4 {
			id := fmt.Sprintf("c%d.%d", ci, i)
			reads = append(reads,
				seq.Read{ID: id + "/1", Seq: c.Seq[i : i+40]},
				seq.Read{ID: id + "/2", Seq: seq.ReverseComplement(c.Seq[i+10 : i+50])})
		}
	}
	junk := []byte(strings.Repeat("ACAC", 10))
	reads = append(reads, seq.Read{ID: "junk/1", Seq: junk}, seq.Read{ID: "junk/2", Seq: junk})

	const ranks = 4
	var got [ranks][]seq.Read
	var offsets [ranks]int
	owner := map[string]int{}
	m := pgas.NewMachine(pgas.Config{Ranks: ranks})
	m.Run(func(r *pgas.Rank) {
		lo, hi := r.BlockRange(len(contigs))
		cs := dbg.DistributeContigs(r, contigs[lo:hi], dist.Distributed)
		opts := aligner.DefaultOptions(15)
		idx := aligner.BuildIndex(r, cs, opts)
		plo, phi := r.PairBlockRange(len(reads))
		aligns, _ := aligner.AlignReads(r, idx, reads[plo:phi], plo, opts)
		got[r.ID()], offsets[r.ID()], _ = localizePairs(r, cs, reads[plo:phi], plo, aligns)
		n := cs.GlobalLen(r) // collective: every rank calls it
		for id := 0; r.ID() == 0 && id < n; id++ {
			c := cs.GetByID(r, id)
			for ci := range contigs {
				if bytes.Equal(c.Seq, contigs[ci].Seq) {
					owner[fmt.Sprintf("c%d", ci)] = cs.RankOfID(id)
				}
			}
		}
	})

	if len(owner) != len(contigs) {
		t.Fatalf("contig owners %v, want one per contig", owner)
	}
	total, wantOffset := 0, 0
	for rank, rds := range got {
		if offsets[rank] != wantOffset {
			t.Errorf("rank %d offset %d, want exclusive prefix sum %d", rank, offsets[rank], wantOffset)
		}
		wantOffset += len(rds)
		for i := 0; i+1 < len(rds); i += 2 {
			pair, _, _ := strings.Cut(rds[i].ID, "/")
			if rds[i+1].ID != pair+"/2" {
				t.Errorf("rank %d: mates of %s not adjacent (next is %s)", rank, rds[i].ID, rds[i+1].ID)
			}
			if src, _, _ := strings.Cut(pair, "."); src != "junk" && owner[src] != rank {
				t.Errorf("rank %d holds pair %s whose contig is owned by rank %d", rank, pair, owner[src])
			}
		}
		total += len(rds)
	}
	if total != len(reads) {
		t.Errorf("localization kept %d reads, want %d", total, len(reads))
	}
}
