// Repository-level benchmarks: one benchmark per table and figure of the
// paper's evaluation section. Each benchmark runs the corresponding
// experiment at the quick scale and reports the headline quantity as a
// custom metric, so `go test -bench=. -benchmem` regenerates every result.
// Run `go run ./cmd/mhmbench` for the full formatted tables at the default
// scale.
package mhmgo_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"mhmgo"
	"mhmgo/internal/dht"
	"mhmgo/internal/experiments"
	"mhmgo/internal/pgas"
	"mhmgo/internal/sim"
)

func benchScale() experiments.Scale { return experiments.QuickScale() }

// BenchmarkTable1QualityMG64 regenerates Table I: comparative assembly
// quality of MetaHipMer vs the baseline proxies on the MG64-like community.
func BenchmarkTable1QualityMG64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table1Quality(benchScale())
		if len(res.Reports) == 0 {
			b.Fatal("no reports produced")
		}
		for _, rep := range res.Reports {
			if rep.Assembler == "MetaHipMer" {
				b.ReportMetric(rep.GenomeFraction*100, "genome_fraction_%")
				b.ReportMetric(float64(rep.Misassemblies), "misassemblies")
				b.ReportMetric(float64(rep.RRNACount), "rRNAs")
			}
		}
	}
}

// BenchmarkFig3ReadLocalization regenerates Figure 3: the impact of read
// localization on the k-mer analysis and alignment stages.
func BenchmarkFig3ReadLocalization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig3ReadLocalization(benchScale())
		if len(res.Rows) == 0 {
			b.Fatal("no rows produced")
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.AlignmentSpeedup, "align_speedup_x")
	}
}

// BenchmarkFig4StrongScaling regenerates Figure 4: strong scaling of the
// pipeline on the Wetlands-like subset.
func BenchmarkFig4StrongScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig4StrongScaling(benchScale())
		if len(res.Rows) < 2 {
			b.Fatal("insufficient scaling rows")
		}
		b.ReportMetric(res.Rows[len(res.Rows)-1].Efficiency*100, "efficiency_%")
	}
}

// BenchmarkFig5StageBreakdown regenerates Figure 5: the per-stage runtime
// fraction as concurrency grows (same runs as Figure 4).
func BenchmarkFig5StageBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig4StrongScaling(benchScale())
		if len(res.Rows) == 0 {
			b.Fatal("no rows produced")
		}
		last := res.Rows[len(res.Rows)-1]
		var alignFrac, total float64
		for _, st := range last.Stages {
			total += st.Seconds
		}
		for _, st := range last.Stages {
			if st.Name == "alignment" && total > 0 {
				alignFrac = st.Seconds / total
			}
		}
		b.ReportMetric(alignFrac*100, "alignment_fraction_%")
	}
}

// BenchmarkRayMetaComparison regenerates the Section IV-C comparison between
// MetaHipMer and Ray Meta at two machine sizes.
func BenchmarkRayMetaComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RayMetaComparison(benchScale())
		if len(res.Rows) == 0 {
			b.Fatal("no rows produced")
		}
		b.ReportMetric(res.Rows[len(res.Rows)-1].SpeedupOverRay, "speedup_over_raymeta_x")
	}
}

// BenchmarkTable2WeakScaling regenerates Table II: weak scaling rate in
// kilobases assembled per second per node over the MGSim series.
func BenchmarkTable2WeakScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table2WeakScaling(benchScale())
		if len(res.Rows) == 0 {
			b.Fatal("no rows produced")
		}
		b.ReportMetric(res.Efficiency*100, "weak_scaling_efficiency_%")
	}
}

// BenchmarkGrandChallengeFullVsSubset regenerates the grand-challenge
// comparison: assembly size and read-mapping fraction of the full dataset vs
// a subset of lanes.
func BenchmarkGrandChallengeFullVsSubset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.GrandChallengeFullVsSubset(benchScale())
		b.ReportMetric(res.LengthRatio, "full_vs_subset_length_x")
		b.ReportMetric(res.FullMapFraction*100, "full_map_%")
		b.ReportMetric(res.SubsetMapFraction*100, "subset_map_%")
	}
}

// BenchmarkFig6NGA50PerGenome regenerates Figure 6: per-genome NGA50 of
// MetaHipMer vs the MetaSPAdes proxy.
func BenchmarkFig6NGA50PerGenome(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig6NGA50PerGenome(benchScale())
		if len(res.Rows) == 0 {
			b.Fatal("no rows produced")
		}
		b.ReportMetric(float64(res.Rows[0].MetaHipMerNGA50), "best_genome_NGA50")
	}
}

// BenchmarkAblationOptimizations regenerates the ablation table for the
// design choices called out in DESIGN.md.
func BenchmarkAblationOptimizations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Ablations(benchScale())
		if len(res.Rows) == 0 {
			b.Fatal("no ablation rows")
		}
		for _, row := range res.Rows {
			if row.Feature == "message aggregation" && row.On > 0 {
				b.ReportMetric(row.Off/row.On, "aggregation_speedup_x")
			}
		}
	}
}

// BenchmarkDHTHotRankPipeline measures the distributed hash table under the
// worst-case skew of Section II-A at pipeline altitude: every rank directs a
// mixed workload (aggregated Updater traffic, remote atomics, one-sided
// reads — the mix the assembler's stages actually produce) at a single hot
// owner rank. stripes=1 reproduces the historical one-lock-per-rank layout;
// striped is the current default. internal/dht has the isolated
// single-operation variants (BenchmarkDHTContention, BenchmarkDHTUpdaterFlush,
// BenchmarkDHTFrozenReads) and the speedup assertion
// (TestStripingContentionSpeedup); the gap widens with physical core count.
func BenchmarkDHTHotRankPipeline(b *testing.B) {
	intHash := func(k int) uint64 {
		x := uint64(k) * 0x9e3779b97f4a7c15
		x ^= x >> 32
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 29
		return x
	}
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
			dm := dht.NewMap[int, int](m, intHash, 16, dht.WithStripes(cfg.stripes))
			var keys []int
			for k := 0; len(keys) < 1024; k++ {
				if dm.Owner(k) == 0 {
					keys = append(keys, k)
				}
			}
			add := func(e, v int, ok bool) int { return e + v }
			b.ResetTimer()
			m.Run(func(r *pgas.Rank) {
				u := dm.NewUpdater(r, add, 256, true)
				for i := r.ID(); i < b.N; i += ranks {
					key := keys[i&1023]
					switch i % 3 {
					case 0:
						u.Update(key, 1)
					case 1:
						dht.Mutate(dm, r, key, func(v int, found bool) (int, bool, int) {
							return v + 1, true, 0
						})
					default:
						dm.Get(r, key)
					}
				}
				u.Flush()
			})
		})
	}
}

// BenchmarkEndToEndPipeline measures a single end-to-end assembly through the
// public API (not tied to a specific paper table; useful for profiling).
func BenchmarkEndToEndPipeline(b *testing.B) {
	commCfg := mhmgo.DefaultCommunityConfig()
	commCfg.NumGenomes = 4
	commCfg.MeanGenomeLen = 3000
	comm := mhmgo.SimulateCommunity(commCfg)
	readCfg := mhmgo.DefaultReadConfig()
	readCfg.Coverage = 10
	reads := mhmgo.SimulateReads(comm, readCfg)
	cfg := mhmgo.DefaultConfig(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mhmgo.Assemble(reads, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistributedOwnership compares the distributed-ownership pipeline
// (PR 3) against the gather-to-all baseline it replaced, at P=64: identical
// assembly by construction, but the baseline materializes every gathered
// collection on every rank. It reports the worst rank's peak resident
// collective bytes and the simulated seconds for both modes, and writes the
// comparison to BENCH_dist.json so the perf trajectory has a machine-readable
// data point per CI run.
func BenchmarkDistributedOwnership(b *testing.B) {
	commCfg := mhmgo.CommunityConfig{
		NumGenomes:     24,
		MeanGenomeLen:  2000,
		LenVariation:   0.2,
		AbundanceSigma: 0.3,
		RRNALen:        150,
		Seed:           71,
	}
	comm := mhmgo.SimulateCommunity(commCfg)
	reads := mhmgo.SimulateReads(comm, mhmgo.ReadConfig{
		ReadLen: 80, InsertSize: 220, InsertStd: 15,
		ErrorRate: 0.005, Coverage: 8, Seed: 72,
	})
	const ranks = 64
	run := func(gatherToAll bool) *mhmgo.Result {
		cfg := mhmgo.DefaultConfig(ranks)
		cfg.InsertSize, cfg.InsertStd = 220, 15
		cfg.GatherToAll = gatherToAll
		res, err := mhmgo.Assemble(reads, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		distRes := run(false)
		gatherRes := run(true)
		distPeak := float64(distRes.Stats.PeakResidentBytes)
		gatherPeak := float64(gatherRes.Stats.PeakResidentBytes)
		b.ReportMetric(distPeak, "dist_peak_resident_B")
		b.ReportMetric(gatherPeak, "gather_peak_resident_B")
		b.ReportMetric(gatherPeak/distPeak, "peak_reduction_x")
		b.ReportMetric(distRes.SimSeconds, "dist_sim_s")
		b.ReportMetric(gatherRes.SimSeconds, "gather_sim_s")
		report := map[string]any{
			"ranks":                  ranks,
			"reads":                  len(reads),
			"scaffolds":              len(distRes.Scaffolds),
			"dist_peak_resident_b":   distRes.Stats.PeakResidentBytes,
			"gather_peak_resident_b": gatherRes.Stats.PeakResidentBytes,
			"peak_reduction_x":       gatherPeak / distPeak,
			"dist_sim_seconds":       distRes.SimSeconds,
			"gather_sim_seconds":     gatherRes.SimSeconds,
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_dist.json", append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWallclockScaling measures the cost of SIMULATING large machines,
// not the simulated machines themselves: it sweeps the virtual rank count P
// under the pooled scheduler on a fixed workload and records host wall-clock
// per P, host reads processed per second per core, and the largest P that
// finished inside the per-point time budget. The pre-scheduler engine fell
// over well before P=4096 (a goroutine per rank, O(P) scratch per collective
// call per rank); this benchmark is the regression guard for that capability.
// Writes BENCH_wallclock.json so CI keeps a machine-readable trajectory.
func BenchmarkWallclockScaling(b *testing.B) {
	// Per-point budget: a point that blows this is recorded as infeasible and
	// ends the sweep, instead of stalling CI.
	const pointBudget = 10 * time.Minute
	comm := sim.WetlandsLikeCommunity(4, 0.3, 7)
	reads := sim.SimulateReads(comm, sim.ReadConfig{
		ReadLen: 100, InsertSize: 280, InsertStd: 25, ErrorRate: 0.01, Coverage: 4, Seed: 9,
	})
	cores := runtime.GOMAXPROCS(0)
	type point struct {
		Ranks           int     `json:"ranks"`
		Nodes           int     `json:"nodes"`
		WallSeconds     float64 `json:"wall_seconds"`
		SimSeconds      float64 `json:"sim_seconds"`
		ReadsPerSecCore float64 `json:"reads_per_sec_per_core"`
		Scaffolds       int     `json:"scaffolds"`
		// WallRatioVsPrev is this point's wall time over the previous
		// point's, which had a quarter of the ranks: about 4 or less is
		// linear, well above 4 is an O(P²) host loop. The first point
		// has no predecessor and omits it.
		WallRatioVsPrev float64 `json:"wall_ratio_vs_prev,omitempty"`
	}
	for i := 0; i < b.N; i++ {
		var points []point
		maxFeasible := 0
		for _, ranks := range []int{64, 256, 1024, 4096} {
			cfg := mhmgo.DefaultConfig(ranks)
			cfg.RanksPerNode = 16
			// One k iteration per point: the sweep probes scheduler overhead
			// versus P, which is iteration-count independent.
			cfg.KMin, cfg.KMax = 21, 21
			start := time.Now()
			res, err := mhmgo.Assemble(reads, cfg)
			wall := time.Since(start)
			if err != nil {
				b.Fatal(err)
			}
			pt := point{
				Ranks:           ranks,
				Nodes:           ranks / cfg.RanksPerNode,
				WallSeconds:     wall.Seconds(),
				SimSeconds:      res.SimSeconds,
				ReadsPerSecCore: float64(len(reads)) / wall.Seconds() / float64(cores),
				Scaffolds:       len(res.FinalSequences()),
			}
			if len(points) > 0 {
				pt.WallRatioVsPrev = pt.WallSeconds / points[len(points)-1].WallSeconds
			}
			points = append(points, pt)
			if wall > pointBudget {
				break
			}
			maxFeasible = ranks
		}
		last := points[len(points)-1]
		b.ReportMetric(float64(maxFeasible), "max_feasible_ranks")
		b.ReportMetric(last.WallSeconds, "wall_s_at_largest_P")
		b.ReportMetric(last.ReadsPerSecCore, "reads_per_sec_per_core")
		report := map[string]any{
			"reads":              len(reads),
			"cores":              cores,
			"workers":            cores,
			"max_feasible_ranks": maxFeasible,
			"points":             points,
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_wallclock.json", append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoassembly measures what pooling samples buys: for 1, 2 and 4
// samples of the CoassemblyScenario community it assembles the pooled read
// set and each sample alone, and reports the rare genome's reference
// coverage for the co-assembly versus the best single sample, plus the
// co-assembly N50. The comparison is written to BENCH_coassembly.json so
// each CI run records the recovery margin.
func BenchmarkCoassembly(b *testing.B) {
	type point struct {
		Samples        int     `json:"samples"`
		Reads          int     `json:"reads"`
		CoRareFraction float64 `json:"co_rare_fraction"`
		BestSingleRare float64 `json:"best_single_rare_fraction"`
		Margin         float64 `json:"margin"`
		CoN50          int     `json:"co_n50"`
		CoSimSeconds   float64 `json:"co_sim_seconds"`
	}
	cfg := mhmgo.DefaultConfig(4)
	cfg.KMin, cfg.KMax, cfg.KStep = 21, 33, 12
	cfg.InsertSize, cfg.InsertStd = 280, 25
	for i := 0; i < b.N; i++ {
		var points []point
		for _, n := range []int{1, 2, 4} {
			comm, rc := mhmgo.CoassemblyScenario(n, 42)
			reads := mhmgo.SimulateReads(comm, rc)
			rare := ""
			for _, g := range comm.Genomes {
				if rare == "" || g.Abundance < comm.GenomeByName(rare).Abundance {
					rare = g.Name
				}
			}
			rareFrac := func(rd []mhmgo.Read) (float64, int, float64) {
				res, err := mhmgo.Assemble(rd, cfg)
				if err != nil {
					b.Fatal(err)
				}
				rep := mhmgo.Evaluate("co", res.FinalSequences(), comm)
				for _, g := range rep.PerGenome {
					if g.Name == rare {
						return g.GenomeFraction, rep.N50, res.SimSeconds
					}
				}
				return 0, rep.N50, res.SimSeconds
			}
			coFrac, coN50, coSim := rareFrac(reads)
			perSample := make([][]mhmgo.Read, n)
			for _, r := range reads {
				perSample[r.SampleID] = append(perSample[r.SampleID], r)
			}
			best := 0.0
			for _, sub := range perSample {
				if f, _, _ := rareFrac(sub); f > best {
					best = f
				}
			}
			points = append(points, point{
				Samples: n, Reads: len(reads),
				CoRareFraction: coFrac, BestSingleRare: best, Margin: coFrac - best,
				CoN50: coN50, CoSimSeconds: coSim,
			})
		}
		last := points[len(points)-1]
		b.ReportMetric(last.CoRareFraction, "co_rare_fraction")
		b.ReportMetric(last.BestSingleRare, "best_single_rare_fraction")
		b.ReportMetric(last.Margin, "recovery_margin")
		b.ReportMetric(float64(last.CoN50), "co_N50")
		report := map[string]any{
			"ranks":  4,
			"points": points,
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_coassembly.json", append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiLibraryScaffolding compares round-based multi-library
// scaffolding (a 300 bp paired-end plus a 1500 bp jumping library, one round
// per library in ascending insert order) against the legacy single-library
// treatment of the same reads, which applies the short-insert geometry to
// every pair. It reports scaffold N50 and simulated seconds for both and
// writes the comparison to BENCH_multilib.json so the workload has a
// machine-readable data point per CI run.
func BenchmarkMultiLibraryScaffolding(b *testing.B) {
	commCfg := mhmgo.DefaultCommunityConfig()
	commCfg.NumGenomes = 4
	commCfg.MeanGenomeLen = 12000
	comm := mhmgo.SimulateCommunity(commCfg)
	readCfg := mhmgo.TwoLibraryReadConfig(16, 5)
	reads := mhmgo.SimulateReads(comm, readCfg)
	norm := readCfg.Normalized()

	const ranks = 8
	multiCfg := mhmgo.DefaultConfig(ranks)
	for _, lib := range norm.Libraries {
		multiCfg.Libraries = append(multiCfg.Libraries, mhmgo.Library{
			Name: lib.Name, ReadLen: lib.ReadLen,
			InsertSize: lib.InsertSize, InsertStd: lib.InsertStd,
		})
	}
	singleCfg := mhmgo.DefaultConfig(ranks)
	singleCfg.InsertSize = norm.Libraries[0].InsertSize
	singleCfg.InsertStd = norm.Libraries[0].InsertStd

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		multiRes, err := mhmgo.Assemble(reads, multiCfg)
		if err != nil {
			b.Fatal(err)
		}
		singleRes, err := mhmgo.Assemble(reads, singleCfg)
		if err != nil {
			b.Fatal(err)
		}
		multiRep := mhmgo.Evaluate("multilib", multiRes.FinalSequences(), comm)
		singleRep := mhmgo.Evaluate("singlelib", singleRes.FinalSequences(), comm)
		b.ReportMetric(float64(multiRep.N50), "multi_N50")
		b.ReportMetric(float64(singleRep.N50), "single_N50")
		b.ReportMetric(multiRes.SimSeconds, "multi_sim_s")
		b.ReportMetric(singleRes.SimSeconds, "single_sim_s")
		report := map[string]any{
			"ranks":                  ranks,
			"reads":                  len(reads),
			"libraries":              len(multiCfg.Libraries),
			"rounds":                 len(multiRes.ScaffoldRounds),
			"multi_n50":              multiRep.N50,
			"single_n50":             singleRep.N50,
			"multi_genome_fraction":  multiRep.GenomeFraction,
			"single_genome_fraction": singleRep.GenomeFraction,
			"multi_sim_seconds":      multiRes.SimSeconds,
			"single_sim_seconds":     singleRes.SimSeconds,
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_multilib.json", append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}
