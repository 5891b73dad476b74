// Package experiments regenerates every table and figure of the paper's
// evaluation section on the simulated substrate. Each experiment is a
// function that runs the necessary assemblies and returns a printable
// result; cmd/mhmbench and the repository-level benchmarks are thin wrappers
// around these functions.
//
// The datasets are scaled-down analogues of the paper's (see DESIGN.md);
// absolute numbers therefore differ from the paper, but the qualitative
// shapes — which assembler wins which metric, how efficiency degrades with
// scale, where the optimizations matter — are the reproduction targets and
// are recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"mhmgo/internal/aligner"
	"mhmgo/internal/baseline"
	"mhmgo/internal/core"
	"mhmgo/internal/dbg"
	"mhmgo/internal/dist"
	"mhmgo/internal/eval"
	"mhmgo/internal/hmm"
	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
	"mhmgo/internal/sim"
)

// Scale controls how large the experiment datasets are. The default Scale
// keeps every experiment in the seconds range on a laptop.
type Scale struct {
	// Genomes is the community size for the quality experiments.
	Genomes int
	// GenomeLen is the mean genome length.
	GenomeLen int
	// Coverage is the mean read coverage.
	Coverage float64
	// Ranks/RanksPerNode describe the default virtual machine.
	Ranks        int
	RanksPerNode int
	// NodeCounts is the virtual node sweep for the scaling figures.
	NodeCounts []int
	// Seed makes the experiments deterministic.
	Seed int64
}

// DefaultScale returns the default experiment scale. The node sweep starts
// at 2 nodes because the paper's baselines are themselves multi-node runs
// (32 nodes for the strong-scaling study): comparing a single node (no
// network at all) against multi-node runs would conflate parallel speedup
// with the appearance of off-node traffic.
func DefaultScale() Scale {
	return Scale{
		Genomes:      24,
		GenomeLen:    3000,
		Coverage:     12,
		Ranks:        8,
		RanksPerNode: 4,
		NodeCounts:   []int{2, 4, 8, 16},
		Seed:         1,
	}
}

// QuickScale returns a minimal scale for smoke tests and benchmarks.
func QuickScale() Scale {
	return Scale{
		Genomes:      5,
		GenomeLen:    2500,
		Coverage:     12,
		Ranks:        4,
		RanksPerNode: 2,
		NodeCounts:   []int{2, 4},
		Seed:         1,
	}
}

func (s Scale) withDefaults() Scale {
	d := DefaultScale()
	if s.Genomes <= 0 {
		s.Genomes = d.Genomes
	}
	if s.GenomeLen <= 0 {
		s.GenomeLen = d.GenomeLen
	}
	if s.Coverage <= 0 {
		s.Coverage = d.Coverage
	}
	if s.Ranks <= 0 {
		s.Ranks = d.Ranks
	}
	if s.RanksPerNode <= 0 {
		s.RanksPerNode = d.RanksPerNode
	}
	if len(s.NodeCounts) == 0 {
		s.NodeCounts = d.NodeCounts
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// mg64Dataset builds the MG64-like community and reads for the quality
// experiments.
func mg64Dataset(s Scale) (*sim.Community, []seq.Read, *hmm.Profile) {
	comm := sim.GenerateCommunity(sim.CommunityConfig{
		NumGenomes:     s.Genomes,
		MeanGenomeLen:  s.GenomeLen,
		LenVariation:   0.4,
		AbundanceSigma: 1.2,
		RRNALen:        250,
		RRNACopies:     1,
		RRNADivergence: 0.03,
		RepeatLen:      200,
		RepeatCopies:   min(6, s.Genomes/4),
		StrainFraction: 0.08,
		StrainSNPRate:  0.01,
		Seed:           s.Seed,
	})
	reads := sim.SimulateReads(comm, sim.ReadConfig{
		ReadLen:    100,
		InsertSize: 280,
		InsertStd:  25,
		ErrorRate:  0.01,
		Coverage:   s.Coverage,
		Seed:       s.Seed + 1,
	})
	profile := hmm.BuildProfile([][]byte{comm.RRNAMarker}, 0.9)
	return comm, reads, profile
}

// wetlandsDataset builds the Wetlands-like dataset used by the scaling
// experiments: a skewed community where some genomes end up at low coverage.
func wetlandsDataset(s Scale, organisms int, coverage float64, seed int64) (*sim.Community, []seq.Read) {
	comm := sim.WetlandsLikeCommunity(organisms, float64(s.GenomeLen)/8000.0, seed)
	reads := sim.SimulateReads(comm, sim.ReadConfig{
		ReadLen:    100,
		InsertSize: 280,
		InsertStd:  25,
		ErrorRate:  0.01,
		Coverage:   coverage,
		Seed:       seed + 1,
	})
	return comm, reads
}

// ---------------------------------------------------------------------------
// Table I: comparative assembly quality on the MG64-like dataset.
// ---------------------------------------------------------------------------

// Table1Result holds one evaluation report per assembler.
type Table1Result struct {
	Thresholds []int
	Reports    []eval.Report
}

// Format renders the result like the paper's Table I.
func (t Table1Result) Format() string {
	return "Table I — comparative assembly quality (MG64-like synthetic community)\n" +
		eval.FormatTable(t.Reports, t.Thresholds)
}

// Table1Quality runs every comparison assembler on the MG64-like dataset and
// evaluates the assemblies against the known references.
func Table1Quality(s Scale) Table1Result {
	s = s.withDefaults()
	comm, reads, profile := mg64Dataset(s)
	eopts := eval.DefaultOptions()
	eopts.LengthThresholds = []int{s.GenomeLen / 4, s.GenomeLen / 2, s.GenomeLen}
	eopts.RRNAProfile = profile

	var out Table1Result
	out.Thresholds = eopts.LengthThresholds
	for _, a := range baseline.All() {
		res, err := baseline.Run(a, reads, baseline.RunOptions{
			Ranks:        s.Ranks,
			RanksPerNode: s.RanksPerNode,
			InsertSize:   280,
			RRNAProfile:  profile,
		})
		if err != nil {
			continue
		}
		rep := eval.Evaluate(a.Name, res.FinalSequences(), comm, eopts)
		rep.RuntimeSimSecs = res.SimSeconds
		rep.RuntimeWallSecs = res.WallSeconds
		out.Reports = append(out.Reports, rep)
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 3: impact of read localization on k-mer analysis and alignment.
// ---------------------------------------------------------------------------

// Fig3Row is one node count of the read-localization study.
type Fig3Row struct {
	Nodes            int
	KmerAnalysisOn   float64
	KmerAnalysisOff  float64
	AlignmentOn      float64
	AlignmentOff     float64
	AlignmentSpeedup float64
}

// Fig3Result is the full read-localization study.
type Fig3Result struct {
	Rows []Fig3Row
}

// Format renders the study as a table.
func (f Fig3Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 3 — impact of read localization (simulated seconds per stage)\n")
	b.WriteString("Nodes  kmer(on)   kmer(off)  align(on)  align(off)  align speedup\n")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-6d %-10.4f %-10.4f %-10.4f %-11.4f %.2fx\n",
			r.Nodes, r.KmerAnalysisOn, r.KmerAnalysisOff, r.AlignmentOn, r.AlignmentOff, r.AlignmentSpeedup)
	}
	return b.String()
}

// Fig3ReadLocalization measures the k-mer analysis and alignment stage times
// with and without the read-localization optimization across node counts.
func Fig3ReadLocalization(s Scale) Fig3Result {
	s = s.withDefaults()
	_, reads, profile := mg64Dataset(s)
	var out Fig3Result
	for _, nodes := range s.NodeCounts {
		ranks := nodes * s.RanksPerNode
		run := func(localize bool) map[string]float64 {
			cfg := core.DefaultConfig(ranks)
			cfg.RanksPerNode = s.RanksPerNode
			cfg.ReadLocalization = localize
			cfg.RRNAProfile = profile
			cfg.Scaffolding = false
			res, err := core.Assemble(reads, cfg)
			if err != nil {
				return nil
			}
			stages := map[string]float64{}
			for _, st := range res.Stages {
				stages[st.Name] = st.Seconds
			}
			return stages
		}
		on := run(true)
		off := run(false)
		if on == nil || off == nil {
			continue
		}
		row := Fig3Row{
			Nodes:           nodes,
			KmerAnalysisOn:  on[core.StageKmerAnalysis],
			KmerAnalysisOff: off[core.StageKmerAnalysis],
			AlignmentOn:     on[core.StageAlignment],
			AlignmentOff:    off[core.StageAlignment],
		}
		if row.AlignmentOn > 0 {
			row.AlignmentSpeedup = row.AlignmentOff / row.AlignmentOn
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// ---------------------------------------------------------------------------
// Figures 4 and 5: strong scaling and per-stage breakdown on the
// Wetlands-like subset.
// ---------------------------------------------------------------------------

// StrongScalingRow is one node count of the strong-scaling study.
type StrongScalingRow struct {
	Nodes      int
	Ranks      int
	SimSeconds float64
	Speedup    float64
	Efficiency float64
	Stages     []pgas.StageTime
}

// StrongScalingResult is the Figure 4 / Figure 5 study.
type StrongScalingResult struct {
	Rows []StrongScalingRow
}

// Format renders Figure 4 (scaling) and Figure 5 (stage fractions).
func (r StrongScalingResult) Format() string {
	var b strings.Builder
	b.WriteString("Figure 4 — strong scaling on the Wetlands-like subset\n")
	b.WriteString("Nodes  Ranks  SimSeconds  Speedup  Efficiency\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-6d %-6d %-11.4f %-8.2f %.2f\n",
			row.Nodes, row.Ranks, row.SimSeconds, row.Speedup, row.Efficiency)
	}
	b.WriteString("\nFigure 5 — runtime fraction per stage\n")
	for _, row := range r.Rows {
		total := 0.0
		for _, st := range row.Stages {
			total += st.Seconds
		}
		fmt.Fprintf(&b, "nodes=%d:", row.Nodes)
		for _, st := range pgas.SortStages(row.Stages) {
			if total > 0 {
				fmt.Fprintf(&b, " %s=%.0f%%", st.Name, 100*st.Seconds/total)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig4StrongScaling runs the pipeline on a fixed Wetlands-like dataset over
// a sweep of virtual node counts.
func Fig4StrongScaling(s Scale) StrongScalingResult {
	s = s.withDefaults()
	_, reads := wetlandsDataset(s, s.Genomes*2, s.Coverage, s.Seed+10)
	var out StrongScalingResult
	for _, nodes := range s.NodeCounts {
		ranks := nodes * s.RanksPerNode
		cfg := core.DefaultConfig(ranks)
		cfg.RanksPerNode = s.RanksPerNode
		res, err := core.Assemble(reads, cfg)
		if err != nil {
			continue
		}
		out.Rows = append(out.Rows, StrongScalingRow{
			Nodes:      nodes,
			Ranks:      ranks,
			SimSeconds: res.SimSeconds,
			Stages:     res.Stages,
		})
	}
	if len(out.Rows) > 0 {
		base := out.Rows[0]
		for i := range out.Rows {
			r := &out.Rows[i]
			if r.SimSeconds > 0 {
				r.Speedup = base.SimSeconds / r.SimSeconds
				r.Efficiency = r.Speedup * float64(base.Nodes) / float64(r.Nodes)
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Ray Meta comparison (Section IV-C text).
// ---------------------------------------------------------------------------

// RayMetaRow is one node count of the Ray Meta comparison.
type RayMetaRow struct {
	Nodes          int
	MetaHipMerSecs float64
	RayMetaSecs    float64
	SpeedupOverRay float64
}

// RayMetaResult compares MetaHipMer and the Ray Meta proxy at two scales.
type RayMetaResult struct {
	Rows          []RayMetaRow
	MetaHipMerEff float64
	RayMetaEff    float64
}

// Format renders the comparison.
func (r RayMetaResult) Format() string {
	var b strings.Builder
	b.WriteString("Ray Meta comparison — MG64-like dataset\n")
	b.WriteString("Nodes  MetaHipMer(s)  RayMeta(s)  MetaHipMer speedup over RayMeta\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-6d %-14.4f %-11.4f %.1fx\n", row.Nodes, row.MetaHipMerSecs, row.RayMetaSecs, row.SpeedupOverRay)
	}
	fmt.Fprintf(&b, "parallel efficiency (small->large): MetaHipMer %.0f%%, RayMeta %.0f%%\n",
		100*r.MetaHipMerEff, 100*r.RayMetaEff)
	return b.String()
}

// RayMetaComparison reproduces the paper's 16-vs-64-node comparison (scaled
// down) between MetaHipMer and the Ray Meta proxy.
func RayMetaComparison(s Scale) RayMetaResult {
	s = s.withDefaults()
	_, reads, profile := mg64Dataset(s)
	nodes := []int{s.NodeCounts[0], s.NodeCounts[len(s.NodeCounts)-1]}
	if nodes[0] == nodes[1] && nodes[0] > 1 {
		nodes[0] = nodes[1] / 2
	}
	var out RayMetaResult
	for _, n := range nodes {
		ranks := n * s.RanksPerNode
		opts := baseline.RunOptions{Ranks: ranks, RanksPerNode: s.RanksPerNode, InsertSize: 280, RRNAProfile: profile}
		mhm, err1 := baseline.Run(baseline.MetaHipMer(), reads, opts)
		ray, err2 := baseline.Run(baseline.RayMeta(), reads, opts)
		if err1 != nil || err2 != nil {
			continue
		}
		row := RayMetaRow{Nodes: n, MetaHipMerSecs: mhm.SimSeconds, RayMetaSecs: ray.SimSeconds}
		if row.MetaHipMerSecs > 0 {
			row.SpeedupOverRay = row.RayMetaSecs / row.MetaHipMerSecs
		}
		out.Rows = append(out.Rows, row)
	}
	if len(out.Rows) == 2 {
		scale := float64(out.Rows[1].Nodes) / float64(out.Rows[0].Nodes)
		if out.Rows[1].MetaHipMerSecs > 0 {
			out.MetaHipMerEff = out.Rows[0].MetaHipMerSecs / out.Rows[1].MetaHipMerSecs / scale
		}
		if out.Rows[1].RayMetaSecs > 0 {
			out.RayMetaEff = out.Rows[0].RayMetaSecs / out.Rows[1].RayMetaSecs / scale
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Table II: weak scaling with the MGSim series.
// ---------------------------------------------------------------------------

// WeakScalingRow is one point of the weak-scaling series.
type WeakScalingRow struct {
	Nodes          int
	Taxa           int
	ReadPairs      int
	SimSeconds     float64
	KBasesPerSecPN float64
}

// WeakScalingResult is the Table II reproduction.
type WeakScalingResult struct {
	Rows       []WeakScalingRow
	Efficiency float64
}

// Format renders Table II.
func (w WeakScalingResult) Format() string {
	var b strings.Builder
	b.WriteString("Table II — weak scaling (MGSim series)\n")
	b.WriteString("Nodes  Taxa  ReadPairs  SimSeconds  KBases/sec/node\n")
	for _, r := range w.Rows {
		fmt.Fprintf(&b, "%-6d %-5d %-10d %-11.4f %.2f\n", r.Nodes, r.Taxa, r.ReadPairs, r.SimSeconds, r.KBasesPerSecPN)
	}
	fmt.Fprintf(&b, "weak scaling efficiency (first->last): %.0f%%\n", 100*w.Efficiency)
	return b.String()
}

// Table2WeakScaling grows the dataset proportionally with the node count and
// reports the assembly rate per node, as in the paper's Table II.
func Table2WeakScaling(s Scale) WeakScalingResult {
	s = s.withDefaults()
	// Read pairs per taxon chosen so that coverage stays constant as the
	// community grows with the node count (the definition of weak scaling).
	pairsPerTaxon := s.GenomeLen * int(s.Coverage) / 200
	series := sim.WeakScalingSeries(128/max(1, s.NodeCounts[0]), pairsPerTaxon)
	var out WeakScalingResult
	for _, p := range series {
		comm := sim.GenerateCommunity(sim.CommunityConfig{
			NumGenomes:     p.Taxa,
			MeanGenomeLen:  s.GenomeLen,
			LenVariation:   0.3,
			AbundanceSigma: 1.0,
			RRNALen:        250,
			RRNADivergence: 0.03,
			StrainFraction: 0,
			Seed:           s.Seed + 20,
		})
		reads := sim.SimulateReads(comm, sim.ReadConfig{
			ReadLen: 100, InsertSize: 280, InsertStd: 25, ErrorRate: 0.01,
			TotalPairs: p.ReadPairs, Seed: s.Seed + 21,
		})
		ranks := p.Nodes * s.RanksPerNode
		cfg := core.DefaultConfig(ranks)
		cfg.RanksPerNode = s.RanksPerNode
		res, err := core.Assemble(reads, cfg)
		if err != nil {
			continue
		}
		assembledKBases := float64(res.ContigStats.TotalBases) / 1000.0
		row := WeakScalingRow{
			Nodes: p.Nodes, Taxa: p.Taxa, ReadPairs: len(reads) / 2,
			SimSeconds: res.SimSeconds,
		}
		if res.SimSeconds > 0 {
			row.KBasesPerSecPN = assembledKBases / res.SimSeconds / float64(p.Nodes)
		}
		out.Rows = append(out.Rows, row)
	}
	if len(out.Rows) > 1 && out.Rows[0].KBasesPerSecPN > 0 {
		out.Efficiency = out.Rows[len(out.Rows)-1].KBasesPerSecPN / out.Rows[0].KBasesPerSecPN
	}
	return out
}

// ---------------------------------------------------------------------------
// Grand challenge: full Wetlands-like assembly vs a subset of lanes.
// ---------------------------------------------------------------------------

// GrandChallengeResult compares assembling the full dataset against a subset.
type GrandChallengeResult struct {
	SubsetAssemblyBases int
	FullAssemblyBases   int
	LengthRatio         float64
	SubsetMapFraction   float64
	FullMapFraction     float64
}

// Format renders the grand-challenge comparison.
func (g GrandChallengeResult) Format() string {
	return fmt.Sprintf("Grand challenge — full vs subset assembly (Wetlands-like)\n"+
		"subset assembly: %d bases, %.1f%% of all reads map back\n"+
		"full assembly:   %d bases (%.1fx larger), %.1f%% of all reads map back\n",
		g.SubsetAssemblyBases, 100*g.SubsetMapFraction,
		g.FullAssemblyBases, g.LengthRatio, 100*g.FullMapFraction)
}

// GrandChallengeFullVsSubset assembles a skewed community from a subset of
// the reads (a few "lanes") and from the full read set, then measures how
// much larger the full assembly is and what fraction of all reads map back
// to each assembly — the paper's 18x / 42%-vs-7.6% comparison.
func GrandChallengeFullVsSubset(s Scale) GrandChallengeResult {
	s = s.withDefaults()
	// A very uneven community: with only a subset of the reads most genomes
	// are below the assembly coverage threshold.
	comm, fullReads := wetlandsDataset(s, s.Genomes*3, s.Coverage, s.Seed+30)
	subsetReads := fullReads[:len(fullReads)/7/2*2] // ~3 of 21 lanes

	cfg := core.DefaultConfig(s.Ranks)
	cfg.RanksPerNode = s.RanksPerNode
	var out GrandChallengeResult
	subRes, err1 := core.Assemble(subsetReads, cfg)
	fullRes, err2 := core.Assemble(fullReads, cfg)
	if err1 != nil || err2 != nil {
		return out
	}
	out.SubsetAssemblyBases = totalBases(subRes.FinalSequences())
	out.FullAssemblyBases = totalBases(fullRes.FinalSequences())
	if out.SubsetAssemblyBases > 0 {
		out.LengthRatio = float64(out.FullAssemblyBases) / float64(out.SubsetAssemblyBases)
	}
	out.SubsetMapFraction = mapBackFraction(fullReads, subRes, s)
	out.FullMapFraction = mapBackFraction(fullReads, fullRes, s)
	_ = comm
	return out
}

func totalBases(seqs [][]byte) int {
	n := 0
	for _, s := range seqs {
		n += len(s)
	}
	return n
}

// mapBackFraction measures the fraction of all reads that align to the
// assembly, using the distributed aligner on a small machine.
func mapBackFraction(reads []seq.Read, res *core.Result, s Scale) float64 {
	contigs := make([]dbg.Contig, 0, len(res.FinalSequences()))
	for i, sq := range res.FinalSequences() {
		contigs = append(contigs, dbg.Contig{ID: i, Seq: sq})
	}
	if len(contigs) == 0 {
		return 0
	}
	m := pgas.NewMachine(pgas.Config{Ranks: s.Ranks, RanksPerNode: s.RanksPerNode})
	var aligned int64
	m.Run(func(r *pgas.Rank) {
		opts := aligner.DefaultOptions(21)
		clo, chi := r.BlockRange(len(contigs))
		cs := dbg.DistributeContigs(r, contigs[clo:chi], dist.Distributed)
		idx := aligner.BuildIndex(r, cs, opts)
		lo, hi := r.PairBlockRange(len(reads))
		got, _ := aligner.AlignReads(r, idx, reads[lo:hi], lo, opts)
		total := pgas.AllReduce(r, int64(len(got)), pgas.ReduceSum)
		if r.ID() == 0 {
			aligned = total
		}
	})
	return float64(aligned) / float64(len(reads))
}

// ---------------------------------------------------------------------------
// Figure 6: per-genome NGA50, MetaHipMer vs MetaSPAdes.
// ---------------------------------------------------------------------------

// Fig6Row is one genome's NGA50 under both assemblers.
type Fig6Row struct {
	Genome          string
	MetaHipMerNGA50 int
	MetaSPAdesNGA50 int
}

// Fig6Result is the per-genome NGA50 comparison.
type Fig6Result struct {
	Rows []Fig6Row
}

// Format renders the comparison sorted by MetaHipMer NGA50.
func (f Fig6Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 6 — per-genome NGA50, MetaHipMer vs MetaSPAdes proxy\n")
	b.WriteString("Genome       MetaHipMer  MetaSPAdes\n")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-12s %-11d %d\n", r.Genome, r.MetaHipMerNGA50, r.MetaSPAdesNGA50)
	}
	return b.String()
}

// Fig6NGA50PerGenome evaluates MetaHipMer and the MetaSPAdes proxy per
// genome of the MG64-like community.
func Fig6NGA50PerGenome(s Scale) Fig6Result {
	s = s.withDefaults()
	comm, reads, profile := mg64Dataset(s)
	eopts := eval.DefaultOptions()
	run := func(a baseline.Assembler) map[string]int {
		res, err := baseline.Run(a, reads, baseline.RunOptions{
			Ranks: s.Ranks, RanksPerNode: s.RanksPerNode, InsertSize: 280, RRNAProfile: profile,
		})
		if err != nil {
			return nil
		}
		rep := eval.Evaluate(a.Name, res.FinalSequences(), comm, eopts)
		out := map[string]int{}
		for _, g := range rep.PerGenome {
			out[g.Name] = g.NGA50
		}
		return out
	}
	mhm := run(baseline.MetaHipMer())
	spades := run(baseline.MetaSPAdes())
	var out Fig6Result
	for _, g := range comm.Genomes {
		out.Rows = append(out.Rows, Fig6Row{Genome: g.Name, MetaHipMerNGA50: mhm[g.Name], MetaSPAdesNGA50: spades[g.Name]})
	}
	sort.Slice(out.Rows, func(i, j int) bool { return out.Rows[i].MetaHipMerNGA50 > out.Rows[j].MetaHipMerNGA50 })
	return out
}

// ---------------------------------------------------------------------------
// Ablation study over the design choices listed in DESIGN.md.
// ---------------------------------------------------------------------------

// AblationRow compares a metric with a feature on vs off.
type AblationRow struct {
	Feature string
	Metric  string
	On      float64
	Off     float64
}

// AblationResult is the ablation study.
type AblationResult struct {
	Rows []AblationRow
}

// Format renders the ablations.
func (a AblationResult) Format() string {
	var b strings.Builder
	b.WriteString("Ablations — effect of individual design choices\n")
	b.WriteString("Feature                     Metric                 On         Off\n")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%-27s %-22s %-10.4f %-10.4f\n", r.Feature, r.Metric, r.On, r.Off)
	}
	return b.String()
}

// Ablations toggles the major optimizations one at a time and reports their
// effect on simulated runtime (and genome fraction for the threshold rule).
func Ablations(s Scale) AblationResult {
	s = s.withDefaults()
	comm, reads, profile := mg64Dataset(s)
	eopts := eval.DefaultOptions()

	base := core.DefaultConfig(s.Ranks)
	base.RanksPerNode = s.RanksPerNode
	base.RRNAProfile = profile

	runTime := func(mod func(*core.Config)) float64 {
		cfg := base
		mod(&cfg)
		res, err := core.Assemble(reads, cfg)
		if err != nil {
			return 0
		}
		return res.SimSeconds
	}
	runFrac := func(mod func(*core.Config)) float64 {
		cfg := base
		mod(&cfg)
		res, err := core.Assemble(reads, cfg)
		if err != nil {
			return 0
		}
		return eval.Evaluate("abl", res.FinalSequences(), comm, eopts).GenomeFraction
	}

	var out AblationResult
	out.Rows = append(out.Rows, AblationRow{
		Feature: "message aggregation", Metric: "sim seconds",
		On:  runTime(func(c *core.Config) { c.Aggregate = true }),
		Off: runTime(func(c *core.Config) { c.Aggregate = false }),
	})
	out.Rows = append(out.Rows, AblationRow{
		Feature: "software cache", Metric: "sim seconds",
		On:  runTime(func(c *core.Config) { c.SoftwareCache = true }),
		Off: runTime(func(c *core.Config) { c.SoftwareCache = false }),
	})
	out.Rows = append(out.Rows, AblationRow{
		Feature: "read localization", Metric: "sim seconds",
		On:  runTime(func(c *core.Config) { c.ReadLocalization = true }),
		Off: runTime(func(c *core.Config) { c.ReadLocalization = false }),
	})
	out.Rows = append(out.Rows, AblationRow{
		Feature: "depth-dependent thq", Metric: "genome fraction",
		On:  runFrac(func(c *core.Config) { c.GlobalTHQ = 0 }),
		Off: runFrac(func(c *core.Config) { c.GlobalTHQ = 1 }),
	})
	out.Rows = append(out.Rows, AblationRow{
		Feature: "local assembly", Metric: "genome fraction",
		On:  runFrac(func(c *core.Config) { c.LocalAssembly = true }),
		Off: runFrac(func(c *core.Config) { c.LocalAssembly = false }),
	})
	return out
}
