package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"time"

	"mhmgo/internal/core"
	"mhmgo/internal/eval"
	"mhmgo/internal/fastx"
	"mhmgo/internal/seq"
	"mhmgo/internal/sim"
)

// asmWorkload is a deep or wide input: one assembly, run the way a user of
// the command line or the library would run it.
type asmWorkload struct {
	name string
	comm *sim.Community
	cfg  core.Config // Workers = 2; Progress unset
	// libFiles are the FASTQ files each run parses (deep), one per library
	// in LibID order; reads is the in-memory input when libFiles is empty
	// (wide).
	libFiles   []string
	reads      []seq.Read
	checkpoint bool
	workdir    string
	// gfFloor is the lowest genome fraction accepted as a correct assembly.
	gfFloor float64
}

// communitySeed fixes the simulated organisms of every workload: --seed draws
// a new sequencing run (reads, errors, pairing) of the same community, so
// runs at different seeds measure comparable work.
const communitySeed = 20180101

// minContigLen drops contigs shorter than this before scaffolding, as a user
// would to keep isolated error k-mers out of the output and its N50.
const minContigLen = 200

// setupDeep simulates a deep-coverage community sequenced with two libraries
// (300 bp and 1500 bp inserts) and writes one FASTQ file per library.
func setupDeep(size string, seed int64, dir string) (*asmWorkload, error) {
	genomes, cov, floor := 24, 10.0, 0.7
	if size == "tiny" {
		genomes, cov, floor = 4, 8, 0.4
	}
	// Every genome carries an identical 400 bp marker, a conserved region
	// the assembly breaks at in every organism.
	comm := sim.GenerateCommunity(sim.CommunityConfig{
		NumGenomes: genomes, MeanGenomeLen: 3000, LenVariation: 0.3,
		AbundanceSigma: 0.3, RRNALen: 400, RRNACopies: 1, Seed: communitySeed,
	})
	rc := sim.TwoLibraryReadConfig(cov, seed)
	libs := rc.Normalized().Libraries
	reads := sim.SimulateReads(comm, rc)

	cfg := core.DefaultConfig(4)
	cfg.RanksPerNode = 4
	cfg.Workers = 2
	cfg.MinContigLen = minContigLen
	for _, lib := range libs {
		cfg.Libraries = append(cfg.Libraries, seq.Library{
			Name: lib.Name, ReadLen: lib.ReadLen, InsertSize: lib.InsertSize, InsertStd: lib.InsertStd,
		})
	}
	byLib := make([][]seq.Read, len(libs))
	for _, r := range reads {
		byLib[r.LibID] = append(byLib[r.LibID], r)
	}
	w := &asmWorkload{name: "deep", comm: comm, cfg: cfg, checkpoint: true, workdir: dir, gfFloor: floor}
	for i, block := range byLib {
		path := filepath.Join(dir, fmt.Sprintf("deep.lib%d.fastq", i))
		if err := fastx.WriteReadsFASTQ(path, block); err != nil {
			return nil, fmt.Errorf("writing %s: %w", path, err)
		}
		w.libFiles = append(w.libFiles, path)
	}
	return w, nil
}

// setupWide simulates a Wetlands-like, very uneven community at low
// coverage: a few dominant organisms carry nearly all reads and a long tail
// of rare ones stays far below assemblable coverage. It is assembled in
// memory on a 4096-rank virtual machine.
func setupWide(size string, seed int64, dir string) (*asmWorkload, error) {
	organisms, dominant, pairs, ranks, floor := 48, 4, 368, 4096, 0.05
	if size == "tiny" {
		organisms, dominant, pairs, ranks, floor = 12, 2, 120, 256, 0.05
	}
	comm := sim.GenerateCommunity(sim.CommunityConfig{
		NumGenomes: organisms, MeanGenomeLen: 1600, LenVariation: 0.2,
		RRNALen: 400, RRNACopies: 1, RRNADivergence: 0.1, Seed: communitySeed,
	})
	// Dominant organisms are 250 times as abundant as rare ones.
	total := float64(dominant) + float64(organisms-dominant)/250
	for i := range comm.Genomes {
		comm.Genomes[i].Abundance = 1 / 250.0 / total
		if i < dominant {
			comm.Genomes[i].Abundance = 1 / total
		}
	}
	reads := sim.SimulateReads(comm, sim.ReadConfig{
		ReadLen: 100, InsertSize: 280, InsertStd: 25, ErrorRate: 0.01, TotalPairs: pairs, Seed: seed,
	})
	cfg := core.DefaultConfig(ranks)
	cfg.RanksPerNode = 16
	cfg.Workers = 2
	cfg.MinContigLen = minContigLen
	return &asmWorkload{name: "wide", comm: comm, cfg: cfg, reads: reads, workdir: dir, gfFloor: floor}, nil
}

// asmRun is the record of one assembly.
type asmRun struct {
	span       span // ingest to final sequences
	parseS     float64
	parseBytes float64
	res        *core.Result
	seqs       [][]byte
	sha        string
	ckptBytes  float64
	ckptFiles  float64
}

// run performs one assembly with the given worker count. With a non-nil
// ledger the run is traced through the Progress hook.
func (w *asmWorkload) run(workers int, ledger *stageLedger) (asmRun, error) {
	var out asmRun
	cfg := w.cfg
	cfg.Workers = workers
	if w.checkpoint {
		dir, err := os.MkdirTemp(w.workdir, "ckpt-")
		if err != nil {
			return out, err
		}
		defer os.RemoveAll(dir)
		cfg.CheckpointDir = dir
	}
	if ledger != nil {
		cfg.Progress = ledger.hook
	}

	start := readMeters()
	reads := w.reads
	if len(w.libFiles) > 0 {
		reads = nil
		for lib, path := range w.libFiles {
			block, err := fastx.ReadReadsFile(path)
			if err != nil {
				return out, fmt.Errorf("parsing %s: %w", path, err)
			}
			for i := range block {
				block[i].LibID = uint8(lib)
			}
			reads = append(reads, block...)
		}
		out.parseS = time.Since(start.at).Seconds()
	}
	if ledger != nil {
		ledger.start()
	}
	res, err := core.Assemble(reads, cfg)
	if err != nil {
		return out, fmt.Errorf("%s assembly: %w", w.name, err)
	}
	out.seqs = res.FinalSequences()
	out.span = readMeters().since(start)
	out.res = res

	for _, path := range w.libFiles {
		if st, err := os.Stat(path); err == nil {
			out.parseBytes += float64(st.Size())
		}
	}
	if cfg.CheckpointDir != "" {
		err := filepath.WalkDir(cfg.CheckpointDir, func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			out.ckptBytes += float64(info.Size())
			out.ckptFiles++
			return nil
		})
		if err != nil {
			return out, fmt.Errorf("measuring checkpoint: %w", err)
		}
	}
	out.sha = outputHash(out.seqs)
	return out, nil
}

// outputHash is the SHA-256 of the final sequences, one per line.
func outputHash(seqs [][]byte) string {
	h := sha256.New()
	for _, s := range seqs {
		h.Write(s)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sameOutput reports whether two runs produced the same sequences and the
// same simulated time, bit for bit.
func sameOutput(a, b asmRun) error {
	if a.sha != b.sha {
		return fmt.Errorf("output_sha256 %s != %s", a.sha, b.sha)
	}
	if math.Float64bits(a.res.SimSeconds) != math.Float64bits(b.res.SimSeconds) {
		return fmt.Errorf("sim_s bits %x != %x", math.Float64bits(a.res.SimSeconds), math.Float64bits(b.res.SimSeconds))
	}
	return nil
}

// measure runs assemblies back to back for about the given number of
// seconds (at least one), checks that every run reproduces the first, and
// returns the end-to-end metrics.
func (w *asmWorkload) measure(seconds float64, vals map[string]float64, out *report) error {
	var first asmRun
	var walls, cpus, allocs []float64
	start := time.Now()
	for {
		r, err := w.run(w.cfg.Workers, nil)
		if err != nil {
			return err
		}
		if len(walls) == 0 {
			first = r
			w.checkQuality(first, vals, out)
		} else if err := sameOutput(first, r); err != nil {
			out.fail("run %d differs from run 1: %v", len(walls)+1, err)
		}
		walls = append(walls, r.span.wallS)
		cpus = append(cpus, r.span.cpuS)
		allocs = append(allocs, r.span.alloc)
		// Stop when a further run would end past the window by more than
		// half a run.
		if time.Since(start).Seconds()+r.span.wallS/2 >= seconds {
			break
		}
	}
	elapsed := time.Since(start).Seconds()

	vals["wall_s"] = median(walls)
	vals["cpu_s"] = median(cpus)
	vals["alloc_bytes"] = median(allocs)
	vals["sim_s"] = first.res.SimSeconds
	vals["sim_peak_resident_bytes"] = float64(first.res.Stats.PeakResidentBytes)
	out.printf("%s: %d assemblies in %.2f s, walls %.3f s", w.name, len(walls), elapsed, walls)
	out.attempted = len(walls)
	vals["heap_retained_bytes"] = retainedHeap()
	return nil
}

// checkQuality evaluates an assembly against the simulated references,
// prints its output identity, and enforces the genome-fraction floor.
func (w *asmWorkload) checkQuality(r asmRun, vals map[string]float64, out *report) {
	rep := eval.Evaluate(w.name, r.seqs, w.comm, eval.DefaultOptions())
	vals["genome_fraction"] = rep.GenomeFraction
	vals["n50"] = float64(rep.N50)
	out.printf("output_sha256=%s sim_s_bits=%016x sequences=%d genome_fraction=%.6f n50=%d",
		r.sha, math.Float64bits(r.res.SimSeconds), len(r.seqs), rep.GenomeFraction, rep.N50)
	if rep.GenomeFraction < w.gfFloor {
		out.fail("genome_fraction %.4f is below the floor %.4f", rep.GenomeFraction, w.gfFloor)
	}
	if rep.N50 <= 0 {
		out.fail("n50 is %d", rep.N50)
	}
}

// traced runs the assembly untraced, traced and on one worker, checks that
// all three produce the same output, and writes the per-layer metrics. It
// returns the traced run's wall time.
func (w *asmWorkload) traced(vals map[string]float64, out *report) (float64, error) {
	plain, err := w.run(w.cfg.Workers, nil)
	if err != nil {
		return 0, err
	}
	var ledger stageLedger
	tr, err := w.run(w.cfg.Workers, &ledger)
	if err != nil {
		return 0, err
	}
	if err := sameOutput(plain, tr); err != nil {
		out.fail("traced run differs from untraced run: %v", err)
	}
	one, err := w.run(1, nil)
	if err != nil {
		return 0, err
	}
	if err := sameOutput(plain, one); err != nil {
		out.fail("Workers=1 run differs from Workers=2 run: %v", err)
	}
	w.checkQuality(tr, map[string]float64{}, out)
	out.attempted += 3

	assembleWall := tr.span.wallS - tr.parseS
	putAssemblyLayers(vals, tr.res, &ledger, assembleWall)
	vals["pgas.w1_wall_s"] = one.span.wallS
	vals["pgas.worker_speedup"] = one.span.wallS / plain.span.wallS
	vals["fastx.parse_s"] = tr.parseS
	vals["fastx.mb_per_s"] = 0
	if tr.parseS > 0 {
		vals["fastx.mb_per_s"] = tr.parseBytes / 1e6 / tr.parseS
	}
	vals["checkpoint.bytes"] = tr.ckptBytes
	vals["checkpoint.files"] = tr.ckptFiles
	vals["gc.cycles"] = tr.span.gcCycles
	vals["gc.cpu_s"] = tr.span.gcCPUS
	vals["trace.overhead_s"] = tr.span.wallS - plain.span.wallS
	vals["trace.stage_share"] = ledger.total.wallS / tr.span.wallS
	return tr.span.wallS, nil
}

// putAssemblyLayers writes the stage ledger and the per-layer counters one
// traced assembly reports.
func putAssemblyLayers(vals map[string]float64, res *core.Result, ledger *stageLedger, assembleWall float64) {
	ledger.put(vals, res.Stages)
	st := res.Stats
	vals["pgas.compute_ops"] = st.ComputeOps
	vals["pgas.messages"] = float64(st.Messages)
	vals["pgas.bytes_sent"] = float64(st.BytesSent)
	vals["pgas.off_node_bytes"] = float64(st.OffNodeBytes)
	vals["pgas.remote_gets"] = float64(st.RemoteGets)
	vals["pgas.barriers"] = float64(st.Barriers)
	vals["pgas.us_per_barrier"] = 0
	if st.Barriers > 0 {
		vals["pgas.us_per_barrier"] = assembleWall / float64(st.Barriers) * 1e6
	}
	vals["dht.cache_hit_rate"] = res.CacheHitRate
	vals["aligner.aligned_frac"] = res.AlignedReadFrac
	vals["kmeranalysis.distinct_kmers"] = float64(res.DistinctKmers)
	vals["dbg.contigs"] = float64(len(res.Contigs))
	vals["localasm.extended_bases"] = float64(res.LocalAsmBases)
	vals["localasm.bases_per_cpu_s"] = 0
	if cpu := vals[core.StageLocalAssembly+".cpu_s"]; cpu > 0 {
		vals["localasm.bases_per_cpu_s"] = float64(res.LocalAsmBases) / cpu
	}
	sc := res.ScaffoldSummary
	vals["scaffold.accepted_links"] = float64(sc.AcceptedLinks)
	vals["scaffold.gaps_closed_frac"] = 0
	if sc.GapsTotal > 0 {
		vals["scaffold.gaps_closed_frac"] = float64(sc.GapsClosed) / float64(sc.GapsTotal)
	}
}
