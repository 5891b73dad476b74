package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"

	"mhmgo/internal/aligner"
	"mhmgo/internal/checkpoint"
	"mhmgo/internal/dbg"
	"mhmgo/internal/dht"
	"mhmgo/internal/dist"
	"mhmgo/internal/kmeranalysis"
	"mhmgo/internal/pgas"
	"mhmgo/internal/scaffold"
	"mhmgo/internal/seq"
)

// ErrFaultInjected is returned by Assemble when an injected fault
// (Config.FailAfterStage or Config.FailAtBarrier) killed the run. The
// checkpoints written before the kill are durable; a subsequent run with
// ResumeFrom pointed at the checkpoint directory continues from the last
// completed stage.
var ErrFaultInjected = errors.New("core: injected fault")

// configHash returns the hex SHA-256 of a canonical encoding of every
// configuration field that influences pipeline output or simulated timing.
// The checkpoint/fault-injection knobs (CheckpointDir, ResumeFrom,
// FailAfterStage, FailAtIteration, FailAtBarrier) are deliberately excluded:
// a run resumed with the fault cleared must still hash-match the killed run
// it is continuing. Ranks is also excluded — the rank count is validated
// separately so a wrong P yields its own distinct error. cfg must already be
// withDefaults()-normalized.
func configHash(cfg Config, ks []int) string {
	var e checkpoint.Enc
	e.Str("mhm-config-v1")
	e.Int(cfg.RanksPerNode)
	cost := cfg.Cost
	if !cfg.CostSet && cost == (pgas.CostModel{}) {
		// Hash the effective model, so an explicit DefaultCostModel and the
		// zero-value default produce the same identity.
		cost = pgas.DefaultCostModel()
	}
	e.F64(cost.ComputePerOp)
	e.F64(cost.LatencyOnNode)
	e.F64(cost.LatencyOffNode)
	e.F64(cost.ByteOnNode)
	e.F64(cost.ByteOffNode)
	e.F64(cost.AtomicCost)
	e.F64(cost.BarrierCost)
	e.Int(cfg.KMin)
	e.Int(cfg.KMax)
	e.Int(cfg.KStep)
	e.Int(len(ks))
	for _, k := range ks {
		e.Int(k)
	}
	e.U32(cfg.MinKmerCount)
	e.Bool(cfg.UseBloom)
	e.U32(cfg.TBase)
	e.F64(cfg.ErrorRate)
	e.U32(cfg.GlobalTHQ)
	e.Int(len(cfg.Libraries))
	for _, lib := range cfg.Libraries {
		e.Str(lib.Name)
		e.Int(lib.ReadLen)
		e.Int(lib.InsertSize)
		e.Int(lib.InsertStd)
	}
	e.Bool(cfg.Aggregate)
	e.Bool(cfg.SoftwareCache)
	e.Bool(cfg.ReadLocalization)
	e.Bool(cfg.WorkStealing)
	e.Bool(cfg.UseComponents)
	e.Bool(cfg.GatherToAll)
	e.Bool(cfg.BubbleMerging)
	e.Bool(cfg.HairRemoval)
	e.Bool(cfg.Pruning)
	e.Bool(cfg.Compaction)
	e.Bool(cfg.LocalAssembly)
	e.Bool(cfg.Scaffolding)
	e.U64(cfg.RRNAProfile.Fingerprint())
	e.Int(cfg.MinContigLen)
	return checkpoint.HashBytes(e.Bytes())
}

// ConfigHash returns the hex SHA-256 content hash of a configuration after
// default-normalization: the same identity the checkpoint manifest binds, so
// two Config values hash equal exactly when they run the identical pipeline.
// Execution knobs (Ranks via separate validation, Workers, checkpoint and
// fault-injection fields, the Progress hook) are excluded. The serving layer
// uses it to prove that a job spec decodes to the configuration it claims.
func ConfigHash(cfg Config) string {
	cfg = cfg.withDefaults()
	return configHash(cfg, cfg.KValues())
}

// inputHash returns the hex SHA-256 over the full input read set, with
// length framing so field boundaries cannot alias. The hash covers the
// per-read library AND sample tags: two read sets that differ only in which
// sample their reads belong to are different co-assembly inputs, and a
// checkpoint written before the sample axis existed fails the manifest's
// input check (ErrInputMismatch) instead of resuming with mis-attributed
// reads.
func inputHash(reads []seq.Read) string {
	h := sha256.New()
	var lenBuf [8]byte
	frame := func(b []byte) {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(b)))
		h.Write(lenBuf[:])
		h.Write(b)
	}
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(reads)))
	h.Write(lenBuf[:])
	for i := range reads {
		frame([]byte(reads[i].ID))
		frame(reads[i].Seq)
		frame(reads[i].Qual)
		h.Write([]byte{reads[i].LibID, reads[i].SampleID})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// rankState is the per-rank pipeline state. The pipeline mutates it live;
// at a stage boundary, with the header, presence flags and the distributed
// structures' local shards filled in (pipeline.snapshot), it is the complete
// checkpoint payload: everything runPipeline needs to re-enter the loop at
// the next stage with bit-identical behavior, including the simulated clock
// and resident-bytes meter (identical across ranks at a boundary thanks to
// the stage-end barrier, and required for the sim-seconds equality
// guarantee).
type rankState struct {
	ranks, rank int
	it, stage   int
	clock       float64
	resident    uint64

	reads            []seq.Read
	readOffset       int
	shippedReadBytes int

	distinctKmers  int
	heavyHitterMax int64
	alignedFrac    float64
	localAsmBases  int
	cacheHitRate   float64

	// aligns is the rank's latest alignment set, serialized only at
	// boundaries where a later stage still consumes it (local assembly in
	// the same iteration, or read localization at the iteration end).
	hasAligns bool
	aligns    []aligner.Alignment

	// contigs is the rank's shard of the live contig set, when one exists.
	hasContigs bool
	contigs    []dbg.Contig

	// counts is the rank's partition of the k-mer counts table (live only
	// between k-mer analysis and graph construction), sorted by k-mer for a
	// deterministic byte stream — the table's iteration order is not.
	hasCounts bool
	counts    []seq.KmerCount

	// Scaffolding output, serialized only at the scaffolding boundary.
	// scaffold.Scaffolds is non-empty on rank 0 only (the emitted final
	// list); scaffold.Local is the rank's own shard.
	hasScaffold bool
	scaffold    scaffold.Result
	rounds      []RoundStats
}

// rankStateMagic versions the per-rank shard format. v2 widened the read
// record with the SampleID tag; a v1 shard (written before the sample axis
// existed) is refused at decode — its magic no longer matches — so an old
// checkpoint surfaces as ErrCorruptShard instead of mis-decoding the tail
// of every read record.
const rankStateMagic = "mhm-rank-state-v2"

// encodeRankState serializes a rankState into the checkpoint wire format.
func encodeRankState(st *rankState) []byte {
	var e checkpoint.Enc
	e.Str(rankStateMagic)
	e.Int(st.ranks)
	e.Int(st.rank)
	e.Int(st.it)
	e.Int(st.stage)
	e.F64(st.clock)
	e.U64(st.resident)
	e.Int(st.readOffset)
	e.Int(st.shippedReadBytes)
	e.Int(len(st.reads))
	for _, rd := range st.reads {
		e.Read(rd)
	}
	e.Int(st.distinctKmers)
	e.I64(st.heavyHitterMax)
	e.F64(st.alignedFrac)
	e.Int(st.localAsmBases)
	e.F64(st.cacheHitRate)
	e.Bool(st.hasAligns)
	if st.hasAligns {
		e.Int(len(st.aligns))
		for _, a := range st.aligns {
			e.Alignment(a)
		}
	}
	e.Bool(st.hasContigs)
	if st.hasContigs {
		e.Int(len(st.contigs))
		for _, c := range st.contigs {
			e.Contig(c)
		}
	}
	e.Bool(st.hasCounts)
	if st.hasCounts {
		e.Int(len(st.counts))
		for _, kc := range st.counts {
			e.KmerCount(kc)
		}
	}
	e.Bool(st.hasScaffold)
	if st.hasScaffold {
		e.Int(len(st.scaffold.Scaffolds))
		for _, s := range st.scaffold.Scaffolds {
			e.Scaffold(s)
		}
		e.Int(len(st.scaffold.Local))
		for _, s := range st.scaffold.Local {
			e.Scaffold(s)
		}
		for _, v := range scaffoldCounters(&st.scaffold) {
			e.Int(*v)
		}
		e.Int(len(st.rounds))
		for _, rs := range st.rounds {
			e.Str(rs.Library)
			e.Int(rs.LibIndex)
			e.Int(rs.InsertSize)
			e.Int(rs.InputContigs)
			e.Int(rs.Scaffolds)
			e.Int(rs.AcceptedLinks)
		}
	}
	return e.Bytes()
}

// decodeRankState is the error-returning inverse of encodeRankState. It
// never panics on corrupted or truncated input.
func decodeRankState(data []byte) (*rankState, error) {
	d := checkpoint.NewDec(data)
	magic, err := d.Str()
	if err != nil {
		return nil, err
	}
	if magic != rankStateMagic {
		return nil, fmt.Errorf("bad rank-state magic %q", magic)
	}
	st := &rankState{}
	if st.ranks, err = d.Int(); err != nil {
		return nil, err
	}
	if st.rank, err = d.Int(); err != nil {
		return nil, err
	}
	if st.it, err = d.Int(); err != nil {
		return nil, err
	}
	if st.stage, err = d.Int(); err != nil {
		return nil, err
	}
	if st.stage < 0 || st.stage >= len(stages) {
		return nil, fmt.Errorf("stage index %d out of range", st.stage)
	}
	if st.clock, err = d.F64(); err != nil {
		return nil, err
	}
	if st.resident, err = d.U64(); err != nil {
		return nil, err
	}
	if st.readOffset, err = d.Int(); err != nil {
		return nil, err
	}
	if st.shippedReadBytes, err = d.Int(); err != nil {
		return nil, err
	}
	nReads, err := d.Count(25)
	if err != nil {
		return nil, err
	}
	st.reads = make([]seq.Read, nReads)
	for i := range st.reads {
		if st.reads[i], err = d.Read(); err != nil {
			return nil, err
		}
	}
	if st.distinctKmers, err = d.Int(); err != nil {
		return nil, err
	}
	if st.heavyHitterMax, err = d.I64(); err != nil {
		return nil, err
	}
	if st.alignedFrac, err = d.F64(); err != nil {
		return nil, err
	}
	if st.localAsmBases, err = d.Int(); err != nil {
		return nil, err
	}
	if st.cacheHitRate, err = d.F64(); err != nil {
		return nil, err
	}
	if st.hasAligns, err = d.Bool(); err != nil {
		return nil, err
	}
	if st.hasAligns {
		n, err := d.Count(66)
		if err != nil {
			return nil, err
		}
		st.aligns = make([]aligner.Alignment, n)
		for i := range st.aligns {
			if st.aligns[i], err = d.Alignment(); err != nil {
				return nil, err
			}
		}
	}
	if st.hasContigs, err = d.Bool(); err != nil {
		return nil, err
	}
	if st.hasContigs {
		n, err := d.Count(24)
		if err != nil {
			return nil, err
		}
		st.contigs = make([]dbg.Contig, n)
		for i := range st.contigs {
			if st.contigs[i], err = d.Contig(); err != nil {
				return nil, err
			}
		}
	}
	if st.hasCounts, err = d.Bool(); err != nil {
		return nil, err
	}
	if st.hasCounts {
		n, err := d.Count(checkpoint.KmerCountBytes)
		if err != nil {
			return nil, err
		}
		st.counts = make([]seq.KmerCount, n)
		for i := range st.counts {
			if st.counts[i], err = d.KmerCount(); err != nil {
				return nil, err
			}
		}
	}
	if st.hasScaffold, err = d.Bool(); err != nil {
		return nil, err
	}
	if st.hasScaffold {
		if st.scaffold.Scaffolds, err = decodeScaffolds(d); err != nil {
			return nil, err
		}
		if st.scaffold.Local, err = decodeScaffolds(d); err != nil {
			return nil, err
		}
		for _, v := range scaffoldCounters(&st.scaffold) {
			if *v, err = d.Int(); err != nil {
				return nil, err
			}
		}
		n, err := d.Count(48)
		if err != nil {
			return nil, err
		}
		st.rounds = make([]RoundStats, n)
		for i := range st.rounds {
			rs := &st.rounds[i]
			if rs.Library, err = d.Str(); err != nil {
				return nil, err
			}
			if rs.LibIndex, err = d.Int(); err != nil {
				return nil, err
			}
			if rs.InsertSize, err = d.Int(); err != nil {
				return nil, err
			}
			if rs.InputContigs, err = d.Int(); err != nil {
				return nil, err
			}
			if rs.Scaffolds, err = d.Int(); err != nil {
				return nil, err
			}
			if rs.AcceptedLinks, err = d.Int(); err != nil {
				return nil, err
			}
		}
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return st, nil
}

func decodeScaffolds(d *checkpoint.Dec) ([]scaffold.Scaffold, error) {
	n, err := d.Count(40)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]scaffold.Scaffold, n)
	for i := range out {
		if out[i], err = d.Scaffold(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ckptWriter coordinates checkpoint writes across the rank goroutines. Every
// rank calls record between the stage-end barrier and the next barrier;
// rank 0 additionally waits for all deposits, appends the manifest step and
// saves the manifest. The coordination is plain Go synchronization, not PGAS
// collectives: checkpoint I/O must not advance the simulated clocks, or a
// checkpointed run would diverge from an uncheckpointed one.
//
// No rank passes a barrier between its stage-end and its deposit, so even a
// mid-collective abort (InjectBarrierFailure) cannot strand rank 0 waiting
// for a deposit that will never arrive.
type ckptWriter struct {
	dir   string
	ranks int

	mu   sync.Mutex
	cond *sync.Cond
	man  *checkpoint.Manifest
	cur  map[int]string
	err  error
}

// newCkptWriter creates the checkpoint directory, saves the (possibly
// resumed) manifest immediately — so the run identity is durable before the
// first stage completes — and returns the writer.
func newCkptWriter(dir string, ranks int, man *checkpoint.Manifest) (*ckptWriter, error) {
	w := &ckptWriter{dir: dir, ranks: ranks, man: man, cur: make(map[int]string)}
	w.cond = sync.NewCond(&w.mu)
	if err := man.Save(dir); err != nil {
		return nil, fmt.Errorf("core: writing checkpoint manifest: %w", err)
	}
	return w, nil
}

// record writes one rank's shard for the step (iteration, stage) and, on
// rank 0, completes the step: waits until every rank deposited, appends the
// chained step record and saves the manifest atomically. Write errors are
// latched (first error wins) and the chain is not extended past them.
//
// The rendezvous is scheduler-aware: rank 0's wait is a plain cond.Wait, and
// the ranks it waits for may themselves be parked waiting for a worker-pool
// slot, so rank 0 detaches from the pool for the duration of the wait (and
// the manifest I/O) — holding the slot across it would deadlock a Workers=1
// pool outright.
func (w *ckptWriter) record(r *pgas.Rank, iteration int, stage string, k int, payload []byte) {
	rank := r.ID()
	w.mu.Lock()
	seqNo := len(w.man.Steps)
	w.mu.Unlock()

	hash, err := checkpoint.WriteShard(checkpoint.ShardPath(w.dir, seqNo, stage, rank), payload)

	w.mu.Lock()
	if err != nil && w.err == nil {
		w.err = err
	}
	w.cur[rank] = hash
	w.cond.Broadcast()
	if rank != 0 {
		w.mu.Unlock()
		return
	}
	w.mu.Unlock()

	r.Detach()
	w.mu.Lock()
	for len(w.cur) < w.ranks {
		w.cond.Wait()
	}
	hashes := make([]string, w.ranks)
	for p, h := range w.cur {
		hashes[p] = h
	}
	w.cur = make(map[int]string)
	if w.err == nil {
		w.man.AppendStep(iteration, stage, k, hashes)
		if err := w.man.Save(w.dir); err != nil && w.err == nil {
			w.err = err
		}
	}
	w.mu.Unlock()
	r.Reattach()
}

// head returns the manifest's current chain head.
func (w *ckptWriter) head() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.man.Head()
}

// firstErr returns the first latched write error, if any.
func (w *ckptWriter) firstErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// resumeState is the decoded and validated restart point loadResume builds
// before the SPMD region starts: the per-rank states plus the shared
// distributed structures, reconstructed charge-free (their simulated cost
// lives in the restored rank clocks).
type resumeState struct {
	it, stage int
	states    []rankState
	cset      *dbg.ContigSet
	counts    *dht.Map[seq.Kmer, seq.KmerCount]
	man       *checkpoint.Manifest
}

// loadResume validates the checkpoint directory against the resuming run's
// identity and rebuilds the restart state. Every refusal carries one of the
// checkpoint package's sentinel errors.
func loadResume(dir string, reads []seq.Read, cfg Config, ks []int, machine *pgas.Machine) (*resumeState, error) {
	man, err := checkpoint.Load(dir)
	if err != nil {
		return nil, err
	}
	if err := man.ValidateFor(configHash(cfg, ks), inputHash(reads), cfg.Ranks); err != nil {
		return nil, err
	}
	if len(man.Steps) == 0 {
		return nil, fmt.Errorf("core: checkpoint %s records no completed steps to resume from", dir)
	}
	last := man.Steps[len(man.Steps)-1]
	stage, ok := stageIndexOf(last.Stage)
	if !ok {
		return nil, fmt.Errorf("%w: unknown stage %q", checkpoint.ErrBadManifest, last.Stage)
	}
	rs := &resumeState{it: last.Iteration, stage: stage, man: man, states: make([]rankState, cfg.Ranks)}
	for p := 0; p < cfg.Ranks; p++ {
		payload, err := checkpoint.ReadShard(checkpoint.ShardPath(dir, last.Seq, last.Stage, p), last.ShardHashes[p])
		if err != nil {
			return nil, err
		}
		st, err := decodeRankState(payload)
		if err != nil {
			return nil, fmt.Errorf("%w: rank %d: %v", checkpoint.ErrCorruptShard, p, err)
		}
		if st.ranks != cfg.Ranks || st.rank != p || st.it != last.Iteration || st.stage != stage {
			return nil, fmt.Errorf("%w: rank %d shard header (P=%d rank=%d it=%d stage=%d) does not match manifest step (P=%d rank=%d it=%d stage=%d)",
				checkpoint.ErrCorruptShard, p, st.ranks, st.rank, st.it, st.stage, cfg.Ranks, p, last.Iteration, stage)
		}
		rs.states[p] = *st
	}

	if rs.states[0].hasContigs {
		shards := make([][]dbg.Contig, cfg.Ranks)
		id := 0
		for p := range rs.states {
			if !rs.states[p].hasContigs {
				return nil, fmt.Errorf("%w: contig shard present on rank 0 but absent on rank %d", checkpoint.ErrCorruptShard, p)
			}
			shards[p] = rs.states[p].contigs
			for _, c := range shards[p] {
				if c.ID != id {
					return nil, fmt.Errorf("%w: contig IDs are not dense in rank order (rank %d holds ID %d where %d was expected)",
						checkpoint.ErrCorruptShard, p, c.ID, id)
				}
				id++
			}
		}
		rs.cset = dist.RestoreSet(shards, dbg.Contig.WireSize, cfg.contigMode())
	}
	if rs.states[0].hasCounts {
		cm := kmeranalysis.NewCountsMap(machine)
		for p := range rs.states {
			for _, kc := range rs.states[p].counts {
				if cm.Owner(kc.Kmer) != p {
					return nil, fmt.Errorf("%w: k-mer %s stored in rank %d's shard but owned by rank %d",
						checkpoint.ErrCorruptShard, kc.Kmer.String(), p, cm.Owner(kc.Kmer))
				}
				cm.Restore(p, kc.Kmer, kc)
			}
		}
		rs.counts = cm
	}
	return rs, nil
}

// ckptRun bundles the per-run checkpoint/restart context threaded through
// runPipeline. A run with neither checkpointing nor resume carries a
// zero-value ckptRun, which is inert.
type ckptRun struct {
	writer *ckptWriter
	resume *resumeState
}

// done reports whether the stage (iteration it, stage index) had already
// completed before the resume point — such stages are skipped; their effects
// live in the restored state.
func (c *ckptRun) done(it, stage int) bool {
	if c == nil || c.resume == nil {
		return false
	}
	return it < c.resume.it || (it == c.resume.it && stage <= c.resume.stage)
}

// collectCounts snapshots one rank's partition of the counts table, sorted
// by k-mer: the table's iteration order is unspecified, and checkpoint
// shards must be deterministic bytes.
func collectCounts(counts *dht.Map[seq.Kmer, seq.KmerCount], rank int) []seq.KmerCount {
	var out []seq.KmerCount
	counts.RangeLocal(rank, func(_ seq.Kmer, v seq.KmerCount) { out = append(out, v) })
	sort.Slice(out, func(i, j int) bool { return out[i].Kmer.Less(out[j].Kmer) })
	return out
}
