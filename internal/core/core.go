// Package core implements the end-to-end MetaHipMer pipeline (Algorithm 1 +
// Algorithm 3 of the paper): iterative contig generation over a range of
// k-mer sizes followed by metagenome-aware scaffolding, executed SPMD-style
// on a virtual PGAS machine.
package core

import (
	"context"
	"fmt"
	"sort"

	"mhmgo/internal/aligner"
	"mhmgo/internal/cgraph"
	"mhmgo/internal/checkpoint"
	"mhmgo/internal/dbg"
	"mhmgo/internal/dht"
	"mhmgo/internal/dist"
	"mhmgo/internal/hmm"
	"mhmgo/internal/kmeranalysis"
	"mhmgo/internal/localasm"
	"mhmgo/internal/pgas"
	"mhmgo/internal/scaffold"
	"mhmgo/internal/seq"
)

// Stage name constants used in timing breakdowns (Figure 5).
const (
	StageKmerAnalysis  = "kmer_analysis"
	StageKmerMerge     = "kmer_merge"
	StageDBGTraversal  = "dbg_traversal"
	StageContigRefine  = "contig_refine"
	StageAlignment     = "alignment"
	StageLocalAssembly = "local_assembly"
	StageScaffolding   = "scaffolding"
)

// Config controls a MetaHipMer assembly.
type Config struct {
	// Machine shape.
	Ranks        int
	RanksPerNode int
	Cost         pgas.CostModel
	// CostSet uses Cost verbatim even when it is the zero model (the
	// free-communication ablation); see pgas.Config.CostSet.
	CostSet bool
	// Workers bounds how many simulated ranks run concurrently as OS
	// threads (see pgas.Config.Workers). It is an execution knob, not a
	// simulation parameter: results, simulated time, and checkpoint
	// identity (configHash) are independent of it, so a run checkpointed
	// under one worker count can resume under another.
	Workers int

	// Iterative contig generation: k runs from KMin to KMax in steps of
	// KStep (Algorithm 1).
	KMin, KMax, KStep int

	// K-mer analysis parameters.
	MinKmerCount uint32
	UseBloom     bool

	// De Bruijn graph extension thresholds: the metagenome depth-dependent
	// rule uses TBase and ErrorRate; setting GlobalTHQ > 0 switches to the
	// HipMer single-genome rule (used by the baseline and the ablation).
	TBase     uint32
	ErrorRate float64
	GlobalTHQ uint32

	// Library geometry. Libraries lists the paired-end libraries of the
	// input reads, in the order their LibID tags index (seq.Read.LibID = i
	// refers to Libraries[i] — match the order the reads were simulated or
	// loaded with). Scaffolding runs one round per library in ascending
	// insert-size order, splicing each round's scaffolds back in as the
	// next round's contigs; local assembly widens its recruitment radius
	// per library.
	//
	// The legacy InsertSize/InsertStd pair remains a fully backward
	// compatible one-library shorthand: when Libraries is empty it is
	// promoted to a single-entry list, and a one-library config produces
	// byte-identical output to the pre-multi-library pipeline.
	Libraries  []seq.Library
	InsertSize int
	InsertStd  int

	// Optimization toggles (each is an ablation axis).
	Aggregate        bool
	SoftwareCache    bool
	ReadLocalization bool
	WorkStealing     bool
	UseComponents    bool
	// GatherToAll reverts the pipeline's record collections (contigs,
	// alignments, extensions, links, scaffolds) to the legacy gather-to-all
	// pattern: every collection is charged — and its memory footprint
	// accounted — as if materialized on every rank. Results are bit-identical
	// to the distributed-ownership default; only cost and peak resident
	// bytes differ. This is the baseline of the distributed-ownership
	// ablation.
	GatherToAll bool

	// Pipeline stage toggles.
	BubbleMerging bool
	HairRemoval   bool
	Pruning       bool
	Compaction    bool
	LocalAssembly bool
	Scaffolding   bool

	// RRNAProfile enables the ribosomal-region scaffolding rule and rRNA
	// counting.
	RRNAProfile *hmm.Profile

	// MinContigLen drops contigs shorter than this from the final output.
	MinContigLen int

	// Checkpoint/restart (the robustness pillar: production HipMer/MetaHipMer
	// runs survive multi-hour assemblies by checkpointing between stages).
	//
	// CheckpointDir, when non-empty, makes the run serialize every rank's
	// surviving pipeline state after each stage into that directory, chained
	// into a content-hashed manifest (see the checkpoint package). ResumeFrom,
	// when non-empty, restores the run from the last completed stage recorded
	// in that directory; the resume is refused — with a distinct error per
	// failure mode — if the configuration hash, input reads hash or rank
	// count differ from the checkpointed run, or if the manifest chain or any
	// shard file fails verification. A resumed run reproduces the
	// uninterrupted run bit-for-bit: final sequences, simulated seconds and
	// manifest head hash are all identical.
	CheckpointDir string
	ResumeFrom    string

	// Progress, when non-nil, receives one event after every completed
	// pipeline stage (and scaffolding round), emitted by rank 0's goroutine
	// immediately after the stage-end barrier. The callback runs outside
	// simulated time — it charges nothing and cannot perturb results — but it
	// executes synchronously on the SPMD critical path, so it should return
	// quickly (hand the event to a channel or buffer, don't block on I/O).
	// Progress is an observation hook, not a simulation parameter: it is
	// excluded from the checkpoint configuration hash.
	Progress func(ProgressEvent)

	// Fault injection (testing). FailAfterStage kills the run (Assemble
	// returns ErrFaultInjected) immediately after the named stage of
	// iteration FailAtIteration completed and its checkpoint was written.
	// FailAtBarrier > 0 kills the run abruptly in the middle of rank 0's n-th
	// barrier entry — mid-collective, the worst possible moment. Neither knob
	// participates in the configuration hash: a resume with the fault cleared
	// must still match the killed run's identity.
	FailAfterStage  string
	FailAtIteration int
	FailAtBarrier   int
}

// DefaultConfig returns the standard MetaHipMer configuration for the given
// machine shape.
func DefaultConfig(ranks int) Config {
	return Config{
		Ranks:            ranks,
		RanksPerNode:     4,
		KMin:             21,
		KMax:             33,
		KStep:            12,
		MinKmerCount:     2,
		UseBloom:         true,
		TBase:            2,
		ErrorRate:        0.015,
		InsertSize:       seq.DefaultInsertSize,
		InsertStd:        seq.DefaultInsertStd,
		Aggregate:        true,
		SoftwareCache:    true,
		ReadLocalization: true,
		WorkStealing:     true,
		UseComponents:    true,
		BubbleMerging:    true,
		HairRemoval:      true,
		Pruning:          true,
		Compaction:       true,
		LocalAssembly:    true,
		Scaffolding:      true,
		MinContigLen:     0,
	}
}

func (c Config) withDefaults() Config {
	if c.Ranks <= 0 {
		c.Ranks = 4
	}
	if c.RanksPerNode <= 0 {
		c.RanksPerNode = c.Ranks
	}
	if c.KMin <= 0 {
		c.KMin = 21
	}
	if c.KMax < c.KMin {
		c.KMax = c.KMin
	}
	if c.KStep <= 0 {
		c.KStep = 12
	}
	if c.MinKmerCount == 0 {
		c.MinKmerCount = 2
	}
	if c.ErrorRate <= 0 {
		c.ErrorRate = 0.015
	}
	if c.TBase == 0 {
		c.TBase = 2
	}
	if c.InsertSize <= 0 {
		c.InsertSize = seq.DefaultInsertSize
	}
	if c.InsertStd <= 0 {
		c.InsertStd = c.InsertSize / 10
	}
	// The legacy single-library shorthand: an empty library list is one
	// library with the flat InsertSize/InsertStd geometry. Explicit lists
	// get the same per-entry defaulting.
	if len(c.Libraries) == 0 {
		c.Libraries = []seq.Library{{Name: "pe", InsertSize: c.InsertSize, InsertStd: c.InsertStd}}
	} else {
		libs := append([]seq.Library(nil), c.Libraries...)
		for i := range libs {
			if libs[i].Name == "" {
				libs[i].Name = fmt.Sprintf("lib%d", i)
			}
			if libs[i].InsertSize <= 0 {
				libs[i].InsertSize = seq.DefaultInsertSize
			}
			if libs[i].InsertStd <= 0 {
				libs[i].InsertStd = libs[i].InsertSize / 10
			}
		}
		c.Libraries = libs
	}
	return c
}

// scaffoldOrder returns the library indices in scaffolding-round order:
// ascending insert size, ties broken by name and then by index, so the round
// schedule is a pure function of the library list.
func scaffoldOrder(libs []seq.Library) []int {
	order := make([]int, len(libs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		la, lb := libs[order[a]], libs[order[b]]
		if la.InsertSize != lb.InsertSize {
			return la.InsertSize < lb.InsertSize
		}
		if la.Name != lb.Name {
			return la.Name < lb.Name
		}
		return order[a] < order[b]
	})
	return order
}

// KValues returns the k values of the iterative contig generation.
func (c Config) KValues() []int {
	c = c.withDefaults()
	var ks []int
	for k := c.KMin; k <= c.KMax; k += c.KStep {
		if k%2 == 0 {
			k++
		}
		if len(ks) > 0 && ks[len(ks)-1] >= k {
			continue
		}
		if k > seq.MaxK {
			break
		}
		ks = append(ks, k)
	}
	return ks
}

// ProgressEvent describes one completed pipeline stage of a running
// assembly, as delivered to Config.Progress. Events arrive in pipeline
// order; SimSeconds and ResidentBytes are rank 0's view at the stage-end
// barrier (the clock is identical on every rank there).
type ProgressEvent struct {
	// Stage is the completed stage's name (the Stage* constants).
	Stage string `json:"stage"`
	// Iteration is the k-iteration index the stage ran in; K its k-mer size.
	// Scaffolding reports the final iteration.
	Iteration int `json:"iteration"`
	K         int `json:"k"`
	// SimSeconds is the simulated clock at the stage boundary.
	SimSeconds float64 `json:"sim_seconds"`
	// ResidentBytes is rank 0's resident collective-payload meter at the
	// boundary (see pgas.CommStats.PeakResidentBytes for the run-wide peak).
	ResidentBytes uint64 `json:"resident_bytes"`
}

// Result is the outcome of an assembly.
type Result struct {
	// Contigs are the final contigs of iterative contig generation.
	Contigs []dbg.Contig
	// Scaffolds are the final gap-closed scaffolds (empty when scaffolding
	// is disabled).
	Scaffolds []scaffold.Scaffold
	// SimSeconds is the simulated parallel runtime; WallSeconds is the real
	// elapsed time of the (single-process) execution.
	SimSeconds  float64
	WallSeconds float64
	// Stages is the simulated time per pipeline stage (summed over
	// iterations).
	Stages []pgas.StageTime
	// Stats aggregates communication statistics over all ranks.
	Stats pgas.CommStats
	// Per-stage substatistics.
	TotalReads       int
	DistinctKmers    int
	HeavyHitterMax   int64
	AlignedReadFrac  float64
	LocalAsmBases    int
	ScaffoldSummary  scaffold.Result
	ContigStats      dbg.Stats
	ScaffoldStats    scaffold.Stats
	CacheHitRate     float64
	ReadsLocalizedTo int
	// ScaffoldRounds records one entry per scaffolding round, in execution
	// order (ascending library insert size). A single-library assembly has
	// exactly one round.
	ScaffoldRounds []RoundStats
	// ManifestHead is the checkpoint manifest's chain head hash (empty when
	// the run neither wrote checkpoints nor resumed from one). Two runs with
	// equal heads executed the identical pipeline over identical inputs.
	ManifestHead string
}

// RoundStats summarizes one scaffolding round: which library drove it and
// what it consumed and produced. A round's scaffolds re-enter the next round
// as its contigs, so InputContigs of round i+1 reflects (deduplicated)
// Scaffolds of round i.
type RoundStats struct {
	// Library is the library's name; LibIndex its position in
	// Config.Libraries (the LibID the round's alignments were filtered by).
	Library  string
	LibIndex int
	// InsertSize is the library geometry the round scaffolded with.
	InsertSize int
	// InputContigs is the global contig count entering the round; Scaffolds
	// the global scaffold count it produced; AcceptedLinks the accepted
	// contig-graph edges of the round.
	InputContigs  int
	Scaffolds     int
	AcceptedLinks int
}

// FinalSequences returns the assembly output: scaffold sequences when
// scaffolding ran, contig sequences otherwise.
func (r *Result) FinalSequences() [][]byte {
	if len(r.Scaffolds) > 0 {
		out := make([][]byte, len(r.Scaffolds))
		for i, s := range r.Scaffolds {
			out[i] = s.Seq
		}
		return out
	}
	out := make([][]byte, len(r.Contigs))
	for i, c := range r.Contigs {
		out[i] = c.Seq
	}
	return out
}

// Assemble runs the full MetaHipMer pipeline over the reads. Reads must be
// interleaved paired-end (mates at indices 2i and 2i+1); single-end data
// still assembles but produces no span links.
func Assemble(reads []seq.Read, cfg Config) (*Result, error) {
	return AssembleContext(context.Background(), reads, cfg)
}

// AssembleContext is Assemble with cancellation: when ctx is cancelled the
// virtual machine aborts (every rank unwinds at its next barrier) and the
// call returns an error wrapping pgas.ErrAborted together with the context's
// cause. Cancellation is prompt — collectives are barrier-synchronized, so
// no rank can block waiting for a peer that already unwound — and clean: the
// machine's worker pool drains, no goroutines leak, and checkpoints written
// before the abort remain durable and resumable. This is the serving layer's
// entry point: each job runs on its own machine under its own context.
func AssembleContext(ctx context.Context, reads []seq.Read, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	ks := cfg.KValues()
	if len(ks) == 0 {
		return nil, fmt.Errorf("core: no valid k values in [%d,%d]", cfg.KMin, cfg.KMax)
	}
	if len(reads) == 0 {
		return nil, fmt.Errorf("core: no reads to assemble")
	}
	for i := range reads {
		if err := reads[i].Validate(); err != nil {
			return nil, fmt.Errorf("core: read %d: %w", i, err)
		}
	}
	if len(cfg.Libraries) > 256 {
		return nil, fmt.Errorf("core: %d libraries exceed the 256 the uint8 LibID tag can address", len(cfg.Libraries))
	}

	if cfg.FailAfterStage != "" {
		if _, ok := stageIndexOf(cfg.FailAfterStage); !ok {
			return nil, fmt.Errorf("core: FailAfterStage names unknown stage %q", cfg.FailAfterStage)
		}
	}

	machine := pgas.NewMachine(pgas.Config{Ranks: cfg.Ranks, RanksPerNode: cfg.RanksPerNode, Cost: cfg.Cost, CostSet: cfg.CostSet, Workers: cfg.Workers})
	res := &Result{TotalReads: len(reads)}

	// Checkpoint/restart context. Resume validation, shard decoding and the
	// reconstruction of the distributed structures all happen here — outside
	// the SPMD region and charge-free, because the uninterrupted run never
	// performs them; their simulated cost lives in the restored rank clocks.
	ck := &ckptRun{}
	if cfg.ResumeFrom != "" {
		rs, err := loadResume(cfg.ResumeFrom, reads, cfg, ks, machine)
		if err != nil {
			return nil, err
		}
		ck.resume = rs
	}
	if cfg.CheckpointDir != "" {
		man := checkpoint.New(configHash(cfg, ks), inputHash(reads), cfg.Ranks)
		if ck.resume != nil {
			// Continue the resumed run's chain: the head hash must end up
			// identical to an uninterrupted run's.
			man = ck.resume.man
		}
		w, err := newCkptWriter(cfg.CheckpointDir, cfg.Ranks, man)
		if err != nil {
			return nil, err
		}
		ck.writer = w
	}
	if cfg.FailAtBarrier > 0 {
		machine.InjectBarrierFailure(uint64(cfg.FailAtBarrier),
			fmt.Errorf("%w: killed inside barrier %d", ErrFaultInjected, cfg.FailAtBarrier))
	}

	stopWatch := machine.AbortOnCancel(ctx)
	// Rank 0's pipeline carries the run's results: the replicated fields are
	// identical on every rank, and the final emit lands on rank 0.
	var out *pipeline
	runRes := machine.Run(func(r *pgas.Rank) {
		if p := runPipeline(r, reads, &cfg, ks, ck); r.ID() == 0 {
			out = p
		}
	})
	stopWatch()
	if runRes.Err != nil {
		return nil, runRes.Err
	}
	if ck.writer != nil {
		if err := ck.writer.firstErr(); err != nil {
			return nil, fmt.Errorf("core: checkpoint write failed: %w", err)
		}
	}
	if out.failed {
		return nil, fmt.Errorf("%w: killed after stage %s of iteration %d",
			ErrFaultInjected, cfg.FailAfterStage, cfg.FailAtIteration)
	}
	if ck.writer != nil {
		res.ManifestHead = ck.writer.head()
	} else if ck.resume != nil {
		res.ManifestHead = ck.resume.man.Head()
	}

	res.SimSeconds = runRes.SimSeconds
	res.WallSeconds = runRes.Wall.Seconds()
	res.Stages = runRes.Stages
	res.Stats = runRes.Stats

	st := &out.st
	res.Contigs = out.contigs
	res.Scaffolds = st.scaffold.Scaffolds
	res.ScaffoldSummary = st.scaffold
	res.ScaffoldRounds = st.rounds
	res.DistinctKmers = st.distinctKmers
	res.HeavyHitterMax = st.heavyHitterMax
	res.AlignedReadFrac = st.alignedFrac
	res.LocalAsmBases = st.localAsmBases
	res.CacheHitRate = st.cacheHitRate
	res.ContigStats = dbg.ComputeStats(res.Contigs)
	res.ScaffoldStats = scaffold.ComputeStats(res.Scaffolds)
	return res, nil
}

// accumulateScaffoldResult folds one round's counters into the assembly-wide
// scaffold summary (counters are summed over rounds; the scaffold lists are
// the final round's).
func accumulateScaffoldResult(total *scaffold.Result, round scaffold.Result) {
	sums, adds := scaffoldCounters(total), scaffoldCounters(&round)
	for i := range sums {
		*sums[i] += *adds[i]
	}
	total.Scaffolds = round.Scaffolds
	total.Local = round.Local
}

// scaffoldCounters lists the summary counters of a scaffold.Result in their
// checkpoint wire order.
func scaffoldCounters(sr *scaffold.Result) [8]*int {
	return [8]*int{&sr.SplintLinks, &sr.SpanLinks, &sr.AcceptedLinks, &sr.RepeatsSuspended,
		&sr.Components, &sr.RRNAHits, &sr.GapsTotal, &sr.GapsClosed}
}

// contigMode is how the pipeline's distributed contig sets move and account
// their data.
func (c Config) contigMode() dist.Mode {
	if c.GatherToAll {
		return dist.Replicated
	}
	return dist.Distributed
}

// stage is one row of the pipeline's stage table: its name (the Stage*
// constant used in timing breakdowns, Progress events and manifest steps)
// and its body, which receives the iteration's k.
type stage struct {
	name string
	run  func(p *pipeline, k int)
}

// stages is the pipeline in order (Algorithm 1, then Algorithm 3). A stage's
// index is its checkpoint identity: a step is (iteration, index), ordered
// lexicographically. Every row but the last runs once per k; the last,
// scaffolding, runs once after the k loop under the final iteration's index.
var stages = [...]stage{
	{StageKmerAnalysis, (*pipeline).kmerAnalysis},
	{StageKmerMerge, (*pipeline).kmerMerge},
	{StageDBGTraversal, (*pipeline).dbgTraversal},
	{StageContigRefine, (*pipeline).contigRefine},
	{StageAlignment, (*pipeline).alignment},
	{StageLocalAssembly, (*pipeline).localAssembly},
	{StageScaffolding, (*pipeline).scaffolding},
}

// stageIndexOf resolves a stage name to its index in the stage table.
func stageIndexOf(name string) (int, bool) {
	for i, s := range stages {
		if s.name == name {
			return i, true
		}
	}
	return 0, false
}

// pipeline is one rank's view of a running assembly. st is the rank's live
// state and, with the header and snapshots filled in, its checkpoint payload;
// the distributed structures live beside it.
type pipeline struct {
	r   *pgas.Rank
	cfg *Config // shared, read-only
	ks  []int
	ck  *ckptRun

	st     rankState
	cset   *dbg.ContigSet
	counts *dht.Map[seq.Kmer, seq.KmerCount]
	// contigs is the final emitted contig list (rank 0 only).
	contigs []dbg.Contig
	// failed marks a run killed by Config.FailAfterStage; identical on all
	// ranks (the kill condition is a pure function of the stage schedule).
	failed bool
}

// runPipeline is the SPMD body executed by every rank. ck carries the run's
// checkpoint/restart context (a zero-value ckptRun when neither is active):
// stages at or before the resume point are skipped — their effects live in
// the restored state — and when a checkpoint writer is attached, every
// completed stage deposits the rank's full surviving state.
func runPipeline(r *pgas.Rank, allReads []seq.Read, cfg *Config, ks []int, ck *ckptRun) *pipeline {
	// Initial block distribution of the reads, in whole pairs.
	lo, hi := r.PairBlockRange(len(allReads))
	p := &pipeline{r: r, cfg: cfg, ks: ks, ck: ck, st: rankState{reads: allReads[lo:hi], readOffset: lo}}
	if ck.resume != nil {
		// Re-enter the pipeline at the stage after the resume point. The
		// restored clock and resident meter are the exact bit patterns the
		// uninterrupted run carried at this boundary, so everything simulated
		// from here on reproduces it identically.
		p.st = ck.resume.states[r.ID()]
		p.cset, p.counts = ck.resume.cset, ck.resume.counts
		r.RestoreState(p.st.clock, p.st.resident)
	}

	final := len(stages) - 1
	finalIt := len(ks) - 1
	for it := range ks {
		for i, s := range stages[:final] {
			// The k-mer merge needs a previous iteration's contigs; local
			// assembly is an optional stage.
			if s.name == StageKmerMerge && (it == 0 || p.cset == nil) ||
				s.name == StageLocalAssembly && !cfg.LocalAssembly {
				continue
			}
			if p.runStage(it, i) {
				return p
			}
		}

		// Read localization (Section II-I): after the first iteration the
		// reads are redistributed so reads aligned to a contig live on the
		// rank that owns the contig. Not a checkpointed stage: a resume into
		// the next iteration carries the localized reads in its restored
		// state, and a resume at this iteration's last stage replays the
		// exchange deterministically from the restored alignments. (Stage
		// 0 of iteration it+1 is the next iteration's first stage.)
		if cfg.ReadLocalization && it < finalIt && !ck.done(it+1, 0) {
			// The previous round's shipped reads are superseded by this
			// exchange: return their resident charge before re-charging.
			r.ReleaseResident(p.st.shippedReadBytes)
			p.st.reads, p.st.readOffset, p.st.shippedReadBytes = localizePairs(r, p.cset, p.st.reads, p.st.readOffset, p.st.aligns)
			p.st.aligns = nil
		}
	}

	// Drop short contigs shard-locally and re-densify the IDs. Skipped on a
	// resume past the scaffolding checkpoint: the restored set is already
	// filtered (the scaffolding stage consumed it).
	if cfg.MinContigLen > 0 && !ck.done(finalIt, final) {
		p.cset.FilterLocal(r, func(c dbg.Contig) bool { return len(c.Seq) >= cfg.MinContigLen })
		dbg.RenumberContigs(r, p.cset)
	}
	if cfg.Scaffolding && p.runStage(finalIt, final) {
		return p
	}
	p.emit()
	return p
}

// runStage runs stage i of iteration it unless the resume point already
// covers it, and reports whether an injected fault killed the run there. It
// is the one wrapper every stage runs inside: simulated stage timing, the
// Progress event, the checkpoint deposit and the FailAfterStage check.
func (p *pipeline) runStage(it, i int) (failed bool) {
	if p.ck.done(it, i) {
		return false
	}
	name, k := stages[i].name, p.ks[it]
	start := p.r.StageStart()
	stages[i].run(p, k)
	p.r.StageEnd(name, start)
	reportProgress(p.r, p.cfg, name, it, k)
	if p.ck.writer != nil {
		p.ck.writer.record(p.r, it, name, k, encodeRankState(p.snapshot(it, i)))
	}
	p.failed = p.cfg.FailAfterStage == name && p.cfg.FailAtIteration == it
	return p.failed
}

// snapshot returns the rank's checkpoint payload after stage i of iteration
// it: a copy of the live state with the header, presence flags and the
// distributed structures' local shards filled in. It runs between the
// stage-end barrier and the next collective and charges nothing: checkpoint
// I/O must never advance the simulated clocks, or a checkpointed run would
// diverge from an uncheckpointed one.
func (p *pipeline) snapshot(it, i int) *rankState {
	st := p.st
	st.ranks, st.rank, st.it, st.stage = p.r.NRanks(), p.r.ID(), it, i
	st.clock, st.resident = p.r.Clock(), p.r.Resident()
	// Alignments are serialized only at boundaries where a later stage still
	// consumes them: local assembly in the same iteration, or read
	// localization at the iteration end.
	localizes := p.cfg.ReadLocalization && it < len(p.ks)-1
	st.hasAligns = false
	switch stages[i].name {
	case StageAlignment:
		st.hasAligns = p.cfg.LocalAssembly || localizes
	case StageLocalAssembly:
		st.hasAligns = localizes
	}
	st.hasContigs, st.contigs = p.cset != nil, nil
	if st.hasContigs {
		st.contigs = p.cset.Local(p.r)
	}
	st.hasCounts, st.counts = p.counts != nil, nil
	if st.hasCounts {
		st.counts = collectCounts(p.counts, p.r.ID())
	}
	st.hasScaffold = stages[i].name == StageScaffolding
	return &st
}

// kmerAnalysis counts the reads' k-mers (stage 1).
func (p *pipeline) kmerAnalysis(k int) {
	opts := kmeranalysis.DefaultOptions(k)
	opts.MinCount = p.cfg.MinKmerCount
	opts.UseBloom = p.cfg.UseBloom
	opts.Aggregate = p.cfg.Aggregate
	res := kmeranalysis.Run(p.r, p.st.reads, opts, nil)
	p.counts = res.Counts
	p.st.distinctKmers = res.DistinctKmers
	if len(res.HeavyHitters) > 0 && res.HeavyHitters[0].Count > p.st.heavyHitterMax {
		p.st.heavyHitterMax = res.HeavyHitters[0].Count
	}
}

// kmerMerge merges the previous iteration's contig k-mers (stage 1b, Section
// II-H) so low-coverage organisms keep their assembled regions. The contigs
// are owner-distributed, so each rank merges its own shard.
func (p *pipeline) kmerMerge(k int) {
	var seqs [][]byte
	p.cset.ForEachLocal(p.r, func(_ int, c dbg.Contig) { seqs = append(seqs, c.Seq) })
	kmeranalysis.MergeContigKmers(p.r, p.counts, seqs, k, p.cfg.MinKmerCount+1)
}

// dbgTraversal builds and traverses the de Bruijn graph (stage 2). The
// emitted contigs are routed to their content-hash owners and renumbered
// with an exclusive scan; the previous iteration's set is released.
func (p *pipeline) dbgTraversal(k int) {
	topts := dbg.ThresholdOptions{TBase: p.cfg.TBase, ErrorRate: p.cfg.ErrorRate, GlobalTHQ: p.cfg.GlobalTHQ, MinCount: 1}
	graph := dbg.Build(p.r, p.counts, k, topts)
	local := dbg.Traverse(p.r, graph, dbg.TraverseOptions{})
	next := dbg.DistributeContigs(p.r, local, p.cfg.contigMode())
	if p.cset != nil {
		p.cset.Release(p.r)
	}
	p.cset = next
	// The counts table is consumed by graph construction; the next
	// iteration builds a fresh one, so it leaves the checkpoint state.
	p.counts = nil
}

// contigRefine runs bubble merging, hair removal, iterative pruning and
// chain compaction on the distributed set (stages 3-4).
func (p *pipeline) contigRefine(k int) {
	opts := cgraph.DefaultOptions(k)
	opts.MergeBubbles = p.cfg.BubbleMerging
	opts.RemoveHair = p.cfg.HairRemoval
	opts.Prune = p.cfg.Pruning
	opts.Compact = p.cfg.Compaction
	opts.Aggregate = p.cfg.Aggregate
	p.cset = cgraph.Refine(p.r, p.cset, opts).Set
}

// alignment aligns the rank's reads to the contigs (stage 5).
func (p *pipeline) alignment(k int) {
	opts := aligner.DefaultOptions(min(k, 31))
	opts.UseCache = p.cfg.SoftwareCache
	idx := aligner.BuildIndex(p.r, p.cset, opts)
	aligns, astats := aligner.AlignReads(p.r, idx, p.st.reads, p.st.readOffset, opts)
	p.st.aligns = aligns
	alignedAll := pgas.AllReduce(p.r, int64(astats.ReadsAligned), pgas.ReduceSum)
	totalAll := pgas.AllReduce(p.r, int64(astats.ReadsTotal), pgas.ReduceSum)
	if totalAll > 0 {
		p.st.alignedFrac = float64(alignedAll) / float64(totalAll)
	}
	p.st.cacheHitRate = astats.CacheHitRate
}

// localAssembly extends contigs by mer-walking with work sharing (stage 6);
// the extensions are applied owner-side in place.
func (p *pipeline) localAssembly(k int) {
	opts := localasm.DefaultOptions(k)
	opts.WorkStealing = p.cfg.WorkStealing
	opts.Libraries = p.cfg.Libraries
	res := localasm.Run(p.r, p.cset, p.st.reads, p.st.readOffset, p.st.aligns, opts)
	p.st.localAsmBases = res.ExtendedBases
}

// scaffolding runs Algorithm 3, one round per library in ascending
// insert-size order. Each round aligns its own library's reads (by the
// LibID tag) against the current contig set; an intermediate round's
// scaffolds are spliced back in as the next round's contigs (content-hash
// deduplicated, canonically owned), so longer-insert libraries link the
// structures the shorter ones built. With one library the loop degenerates
// to exactly the legacy single-round flow.
func (p *pipeline) scaffolding(k int) {
	r, cfg := p.r, p.cfg
	order := scaffoldOrder(cfg.Libraries)
	for ri, li := range order {
		lib := cfg.Libraries[li]
		inputContigs := p.cset.GlobalLen(r)
		aopts := aligner.DefaultOptions(min(k, 31))
		aopts.UseCache = cfg.SoftwareCache
		if len(order) > 1 {
			// Align only this round's library: the other libraries'
			// alignments would be discarded, and alignment is independent
			// per read, so the restriction changes charged work but never
			// output.
			roundLib := uint8(li)
			aopts.OnlyLib = &roundLib
		}
		idx := aligner.BuildIndex(r, p.cset, aopts)
		aligns, _ := aligner.AlignReads(r, idx, p.st.reads, p.st.readOffset, aopts)
		sopts := scaffold.DefaultOptions(k, lib.InsertSize)
		if lib.InsertStd > 0 {
			sopts.InsertStd = lib.InsertStd
		}
		sopts.Aggregate = cfg.Aggregate
		sopts.UseComponents = cfg.UseComponents
		sopts.RRNAProfile = cfg.RRNAProfile
		last := ri == len(order)-1
		sopts.SkipEmit = !last
		sres := scaffold.Run(r, p.cset, p.st.reads, p.st.readOffset, aligns, sopts)
		nScaffolds := pgas.AllReduce(r, len(sres.Local), pgas.ReduceSum)
		p.st.rounds = append(p.st.rounds, RoundStats{
			Library:       lib.Name,
			LibIndex:      li,
			InsertSize:    lib.InsertSize,
			InputContigs:  inputContigs,
			Scaffolds:     nScaffolds,
			AcceptedLinks: sres.AcceptedLinks,
		})
		accumulateScaffoldResult(&p.st.scaffold, sres)
		if last {
			break
		}
		// Splice this round's scaffolds back in as the next round's contigs.
		// The scaffold sequences are fresh buffers independent of the old
		// set's storage, so the replaced set's resident bytes are returned
		// before the exchange materializes the new one — the peak meter
		// never holds both contig generations at once.
		local := make([]dbg.Contig, 0, len(sres.Local))
		for _, s := range sres.Local {
			local = append(local, dbg.Contig{Seq: s.Seq})
		}
		p.cset.Release(r)
		p.cset = dbg.DistributeContigs(r, local, cfg.contigMode())
	}
}

// emit produces the final output: one rank-ordered emit onto rank 0, which
// sorts into the deterministic global order and renumbers. The scaffolds
// recorded the distributed set's internal IDs, so their member lists are
// remapped to the emitted numbering — Scaffold.ContigIDs must keep indexing
// Result.Contigs. Every other rank keeps nil.
func (p *pipeline) emit() {
	emitted := p.cset.Emit(p.r)
	if emitted == nil {
		return
	}
	order := make([]int, len(emitted))
	for i := range order {
		order[i] = i
	}
	sortContigOrder(emitted, order)
	idMap := make(map[int]int, len(emitted))
	sorted := make([]dbg.Contig, len(emitted))
	for newID, oldIdx := range order {
		c := emitted[oldIdx]
		idMap[c.ID] = newID
		c.ID = newID
		sorted[newID] = c
	}
	for _, sc := range p.st.scaffold.Scaffolds {
		for i, id := range sc.ContigIDs {
			sc.ContigIDs[i] = idMap[id]
		}
	}
	p.contigs = sorted
	p.r.Compute(float64(len(sorted)))
}

// reportProgress delivers a stage-completion event to the Progress hook.
// Only rank 0 reports — the stage-end barrier it follows has synchronized
// every rank's clock, so rank 0's view is canonical — and the callback runs
// outside simulated time: nothing is charged, so an observed run stays
// bit-identical to an unobserved one.
func reportProgress(r *pgas.Rank, cfg *Config, stage string, it, k int) {
	if cfg.Progress == nil || r.ID() != 0 {
		return
	}
	cfg.Progress(ProgressEvent{
		Stage:         stage,
		Iteration:     it,
		K:             k,
		SimSeconds:    r.Clock(),
		ResidentBytes: r.Resident(),
	})
}

// sortContigOrder sorts the index slice so that order[i] is the position in
// contigs of the i-th contig under the deterministic global contig ordering.
func sortContigOrder(contigs []dbg.Contig, order []int) {
	sort.Slice(order, func(i, j int) bool {
		return dbg.ContigLess(contigs[order[i]], contigs[order[j]])
	})
}

// localizePairs redistributes read pairs so that pairs aligned to contig c
// land on c's owner rank in the distributed contig set. It returns the
// rank's new reads, its new global read offset (pairs stay intact, so mate
// indices remain 2i / 2i+1), and the resident bytes the exchange charged
// for the received pairs — the caller releases them when the read set is
// next replaced.
func localizePairs(r *pgas.Rank, cset *dbg.ContigSet, reads []seq.Read, readOffset int, aligns []aligner.Alignment) ([]seq.Read, int, int) {
	// Destination per local pair, defaulting to the current rank.
	nPairs := len(reads) / 2
	dest := make([]int, nPairs)
	for i := range dest {
		dest[i] = r.ID()
	}
	for _, a := range aligns {
		li := a.ReadIdx - readOffset
		if li < 0 || li >= len(reads) {
			continue
		}
		pair := li / 2
		if pair < nPairs {
			owner, _ := cset.Locate(a.ContigID)
			dest[pair] = owner
		}
	}
	msgs := make([]pairMsg, nPairs)
	for i := 0; i < nPairs; i++ {
		msgs[i] = pairMsg{R1: reads[2*i], R2: reads[2*i+1], Dest: dest[i]}
	}
	// A trailing unpaired read (odd count) stays local.
	var tail []seq.Read
	if len(reads)%2 == 1 {
		tail = append(tail, reads[len(reads)-1])
	}
	incoming := pgas.ExchangeFunc(r, msgs,
		func(_ int, pm pairMsg) int { return pm.Dest }, pairMsg.WireSize)
	var newReads []seq.Read
	receivedBytes := 0
	for _, pm := range incoming {
		newReads = append(newReads, pm.R1, pm.R2)
		receivedBytes += pm.WireSize()
	}
	newReads = append(newReads, tail...)
	// The new global offset is the exclusive prefix sum of the per-rank
	// counts: one ExScan (log2 P rounds), not a P-word gather plus a loop.
	offset := pgas.ExScan(r, len(newReads), pgas.ReduceSum)
	return newReads, offset, receivedBytes
}

// pairMsg is one read pair shipped to its contig's owner rank during read
// localization.
type pairMsg struct {
	R1, R2 seq.Read
	Dest   int
}

// WireSize returns the wire bytes of one shipped pair.
func (pm pairMsg) WireSize() int { return pm.R1.WireSize() + pm.R2.WireSize() + 8 }
