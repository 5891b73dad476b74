package core

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mhmgo/internal/aligner"
	"mhmgo/internal/checkpoint"
	"mhmgo/internal/dbg"
	"mhmgo/internal/scaffold"
	"mhmgo/internal/seq"
)

// ckptReads returns a small but non-trivial read set for checkpoint tests:
// two iterations of contig generation, multiple contigs, scaffolding work.
func ckptReads(t *testing.T) []seq.Read {
	t.Helper()
	_, reads := smallCommunity(t, 2, 8)
	return reads
}

// assertSameRun asserts the three bit-identity guarantees of a resumed run:
// identical final sequences, identical simulated seconds and identical
// manifest head hash.
func assertSameRun(t *testing.T, want, got *Result) {
	t.Helper()
	ws, gs := want.FinalSequences(), got.FinalSequences()
	if len(ws) != len(gs) {
		t.Fatalf("final sequence count %d != baseline %d", len(gs), len(ws))
	}
	for i := range ws {
		if !bytes.Equal(ws[i], gs[i]) {
			t.Fatalf("final sequence %d differs from baseline", i)
		}
	}
	if want.SimSeconds != got.SimSeconds {
		t.Errorf("sim seconds %v != baseline %v", got.SimSeconds, want.SimSeconds)
	}
	if want.ManifestHead == "" || got.ManifestHead == "" {
		t.Fatal("missing manifest head")
	}
	if want.ManifestHead != got.ManifestHead {
		t.Errorf("manifest head %s != baseline %s", got.ManifestHead, want.ManifestHead)
	}
}

// TestCheckpointResumeAllStages is the fault-injection matrix: for every
// stage the pipeline checkpoints, kill the run right after that stage, resume
// from the checkpoint directory, and require the resumed run to reproduce the
// uninterrupted run bit-for-bit — at P = 1, 3 and 8.
func TestCheckpointResumeAllStages(t *testing.T) {
	reads := ckptReads(t)
	for _, p := range []int{1, 3, 8} {
		p := p
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			cfg := testConfig(p)

			baseDir := t.TempDir()
			bcfg := cfg
			bcfg.CheckpointDir = baseDir
			base, err := Assemble(reads, bcfg)
			if err != nil {
				t.Fatalf("baseline run: %v", err)
			}
			man, err := checkpoint.Load(baseDir)
			if err != nil {
				t.Fatalf("baseline manifest: %v", err)
			}
			if len(man.Steps) == 0 {
				t.Fatal("baseline run recorded no checkpoint steps")
			}
			if man.Head() != base.ManifestHead {
				t.Fatalf("result head %s != manifest head %s", base.ManifestHead, man.Head())
			}

			for _, step := range man.Steps {
				step := step
				t.Run(fmt.Sprintf("kill-after-%02d-%s-it%d", step.Seq, step.Stage, step.Iteration), func(t *testing.T) {
					dir := t.TempDir()
					kcfg := cfg
					kcfg.CheckpointDir = dir
					kcfg.FailAfterStage = step.Stage
					kcfg.FailAtIteration = step.Iteration
					if _, err := Assemble(reads, kcfg); !errors.Is(err, ErrFaultInjected) {
						t.Fatalf("killed run returned %v, want ErrFaultInjected", err)
					}
					killed, err := checkpoint.Load(dir)
					if err != nil {
						t.Fatalf("manifest after kill: %v", err)
					}
					if got := len(killed.Steps); got != step.Seq+1 {
						t.Fatalf("killed run recorded %d steps, want %d", got, step.Seq+1)
					}

					rcfg := cfg
					rcfg.CheckpointDir = dir
					rcfg.ResumeFrom = dir
					res, err := Assemble(reads, rcfg)
					if err != nil {
						t.Fatalf("resume: %v", err)
					}
					assertSameRun(t, base, res)
				})
			}
		})
	}
}

// TestMidCollectiveKillResume kills the run abruptly inside a barrier — the
// middle of a collective, not a clean stage boundary — and requires that the
// checkpoints already on disk still resume to a bit-identical result. The
// manifest's atomic write discipline means a mid-collective kill can never
// tear a recorded step.
func TestMidCollectiveKillResume(t *testing.T) {
	reads := ckptReads(t)
	cfg := testConfig(3)

	baseDir := t.TempDir()
	bcfg := cfg
	bcfg.CheckpointDir = baseDir
	base, err := Assemble(reads, bcfg)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	for _, n := range []int{1, 10, 60, 250} {
		n := n
		t.Run(fmt.Sprintf("barrier=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			kcfg := cfg
			kcfg.CheckpointDir = dir
			kcfg.FailAtBarrier = n
			_, err := Assemble(reads, kcfg)
			if err == nil {
				t.Skipf("run completed before barrier %d; nothing to kill", n)
			}
			if !errors.Is(err, ErrFaultInjected) {
				t.Fatalf("killed run returned %v, want ErrFaultInjected", err)
			}

			man, err := checkpoint.Load(dir)
			if err != nil {
				t.Fatalf("manifest after mid-collective kill: %v", err)
			}
			if err := man.Verify(); err != nil {
				t.Fatalf("manifest chain torn by mid-collective kill: %v", err)
			}

			rcfg := cfg
			rcfg.CheckpointDir = dir
			rcfg.ResumeFrom = dir
			res, err := Assemble(reads, rcfg)
			if len(man.Steps) == 0 {
				if err == nil || !strings.Contains(err.Error(), "no completed steps") {
					t.Fatalf("resume with no steps = %v, want refusal", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			assertSameRun(t, base, res)
		})
	}
}

// TestCheckpointingDoesNotPerturbRun pins the zero-interference property:
// writing checkpoints must not change the simulated seconds or the output of
// a run, and a pure resume (no new checkpoints) reproduces both.
func TestCheckpointingDoesNotPerturbRun(t *testing.T) {
	reads := ckptReads(t)
	cfg := testConfig(3)

	plain, err := Assemble(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ccfg := cfg
	ccfg.CheckpointDir = dir
	ckpt, err := Assemble(reads, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.SimSeconds != ckpt.SimSeconds {
		t.Errorf("checkpointing changed sim seconds: %v vs %v", ckpt.SimSeconds, plain.SimSeconds)
	}
	ps, cs := plain.FinalSequences(), ckpt.FinalSequences()
	if len(ps) != len(cs) {
		t.Fatalf("checkpointing changed output count: %d vs %d", len(cs), len(ps))
	}
	for i := range ps {
		if !bytes.Equal(ps[i], cs[i]) {
			t.Fatalf("checkpointing changed output sequence %d", i)
		}
	}

	// Resume from the final checkpoint without writing new ones: the restart
	// replays only the final emit, yet must land on the same result.
	rcfg := cfg
	rcfg.ResumeFrom = dir
	res, err := Assemble(reads, rcfg)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.SimSeconds != plain.SimSeconds {
		t.Errorf("resumed sim seconds %v != %v", res.SimSeconds, plain.SimSeconds)
	}
	if res.ManifestHead != ckpt.ManifestHead {
		t.Errorf("resumed head %s != checkpointed head %s", res.ManifestHead, ckpt.ManifestHead)
	}
}

// copyCheckpointDir clones a checkpoint directory so each negative-path case
// can tamper with its own copy.
func copyCheckpointDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestResumeRefused is the negative-path table: every way a checkpoint can
// disagree with the resuming run must be refused with its own distinct error.
func TestResumeRefused(t *testing.T) {
	reads := ckptReads(t)
	cfg := testConfig(3)
	srcDir := t.TempDir()
	bcfg := cfg
	bcfg.CheckpointDir = srcDir
	if _, err := Assemble(reads, bcfg); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	baseMan, err := checkpoint.Load(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	last := baseMan.Steps[len(baseMan.Steps)-1]

	cases := []struct {
		name    string
		prepare func(t *testing.T) (dir string, reads []seq.Read, cfg Config)
		want    error
		wantMsg string
	}{
		{
			name: "mismatched config hash",
			prepare: func(t *testing.T) (string, []seq.Read, Config) {
				c := cfg
				c.MinKmerCount = 3
				return srcDir, reads, c
			},
			want: checkpoint.ErrConfigMismatch,
		},
		{
			name: "mismatched input reads",
			prepare: func(t *testing.T) (string, []seq.Read, Config) {
				mutated := make([]seq.Read, len(reads))
				copy(mutated, reads)
				r0 := mutated[0].Clone()
				if r0.Seq[0] == 'A' {
					r0.Seq[0] = 'C'
				} else {
					r0.Seq[0] = 'A'
				}
				mutated[0] = r0
				return srcDir, mutated, cfg
			},
			want: checkpoint.ErrInputMismatch,
		},
		{
			name: "wrong rank count",
			prepare: func(t *testing.T) (string, []seq.Read, Config) {
				return srcDir, reads, testConfig(4)
			},
			want: checkpoint.ErrRankMismatch,
		},
		{
			name: "missing shard file",
			prepare: func(t *testing.T) (string, []seq.Read, Config) {
				dir := copyCheckpointDir(t, srcDir)
				if err := os.Remove(checkpoint.ShardPath(dir, last.Seq, last.Stage, 0)); err != nil {
					t.Fatal(err)
				}
				return dir, reads, cfg
			},
			want: checkpoint.ErrMissingShard,
		},
		{
			name: "corrupted shard bytes",
			prepare: func(t *testing.T) (string, []seq.Read, Config) {
				dir := copyCheckpointDir(t, srcDir)
				path := checkpoint.ShardPath(dir, last.Seq, last.Stage, 1)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)/2] ^= 0x01
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				return dir, reads, cfg
			},
			want: checkpoint.ErrCorruptShard,
		},
		{
			name: "truncated manifest",
			prepare: func(t *testing.T) (string, []seq.Read, Config) {
				dir := copyCheckpointDir(t, srcDir)
				path := filepath.Join(dir, checkpoint.ManifestFile)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
					t.Fatal(err)
				}
				return dir, reads, cfg
			},
			want: checkpoint.ErrBadManifest,
		},
		{
			name: "tampered hash chain",
			prepare: func(t *testing.T) (string, []seq.Read, Config) {
				dir := copyCheckpointDir(t, srcDir)
				man, err := checkpoint.Load(dir)
				if err != nil {
					t.Fatal(err)
				}
				man.Steps[0].ShardHashes[0] = strings.Repeat("0", 64)
				if err := man.Save(dir); err != nil {
					t.Fatal(err)
				}
				return dir, reads, cfg
			},
			want: checkpoint.ErrBadChain,
		},
		{
			name: "empty directory",
			prepare: func(t *testing.T) (string, []seq.Read, Config) {
				return t.TempDir(), reads, cfg
			},
			want: checkpoint.ErrBadManifest,
		},
		{
			name: "manifest with no completed steps",
			prepare: func(t *testing.T) (string, []seq.Read, Config) {
				dir := t.TempDir()
				c := cfg.withDefaults()
				man := checkpoint.New(configHash(c, c.KValues()), inputHash(reads), c.Ranks)
				if err := man.Save(dir); err != nil {
					t.Fatal(err)
				}
				return dir, reads, cfg
			},
			wantMsg: "no completed steps",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, rd, c := tc.prepare(t)
			c.ResumeFrom = dir
			_, err := Assemble(rd, c)
			if err == nil {
				t.Fatal("resume accepted, want refusal")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Errorf("resume error = %v, want %v", err, tc.want)
			}
			if tc.wantMsg != "" && !strings.Contains(err.Error(), tc.wantMsg) {
				t.Errorf("resume error = %v, want message containing %q", err, tc.wantMsg)
			}
		})
	}
}

// stageIndex resolves a stage name to its stage-table index.
func stageIndex(name string) int {
	i, ok := stageIndexOf(name)
	if !ok {
		panic("unknown stage " + name)
	}
	return i
}

// FuzzRankStateDecode drives the per-rank shard decoder over arbitrary
// bytes: it must never panic, and any input it accepts must re-encode to
// exactly the accepted bytes (the format is canonical).
func FuzzRankStateDecode(f *testing.F) {
	full := rankState{
		ranks: 3, rank: 1, it: 1, stage: stageIndex(StageAlignment),
		clock: 12.375, resident: 4096,
		reads: []seq.Read{
			{ID: "pair1/1", Seq: []byte("ACGTACGTA"), Qual: []byte("IIIIIIIII"), LibID: 0, SampleID: 1},
			{ID: "pair1/2", Seq: []byte("TTGCAACGT"), Qual: []byte("IIIIIIIII"), LibID: 0, SampleID: 1},
		},
		readOffset: 2, shippedReadBytes: 96,
		distinctKmers: 123, heavyHitterMax: 17, alignedFrac: 0.875, localAsmBases: 40, cacheHitRate: 0.5,
		hasAligns:  true,
		aligns:     []aligner.Alignment{{ReadIdx: 2, ReadID: "pair1/1", ContigID: 0, ContigLen: 30, Matches: 9, AlignLen: 9}},
		hasContigs: true,
		contigs:    []dbg.Contig{{ID: 0, Seq: []byte("ACGTACGTACGT"), Depth: 2.5}},
	}
	f.Add(encodeRankState(&full))

	counts := rankState{
		ranks: 1, rank: 0, it: 0, stage: stageIndex(StageKmerAnalysis),
		clock: 1.5, resident: 128,
		reads:     []seq.Read{{ID: "r", Seq: []byte("ACGT"), SampleID: 3}},
		hasCounts: true,
		counts:    []seq.KmerCount{{Kmer: seq.MustKmer("ACGTACGTACGTACGTACGTA"), Count: 3}},
	}
	f.Add(encodeRankState(&counts))

	scaf := rankState{
		ranks: 2, rank: 0, it: 1, stage: stageIndex(StageScaffolding),
		clock: 99.25, resident: 1 << 20,
		reads:       []seq.Read{{ID: "r", Seq: []byte("ACGT")}},
		hasScaffold: true,
		scaffold: scaffold.Result{
			Scaffolds:   []scaffold.Scaffold{{ID: 0, Seq: []byte("ACGTNNNACGT"), ContigIDs: []int{1, 0}, Gaps: 1}},
			SplintLinks: 1, SpanLinks: 2, AcceptedLinks: 3, RepeatsSuspended: 4,
			Components: 5, RRNAHits: 6, GapsTotal: 7, GapsClosed: 8,
		},
		rounds: []RoundStats{{Library: "pe", InsertSize: 220, InputContigs: 4, Scaffolds: 2, AcceptedLinks: 3}},
	}
	f.Add(encodeRankState(&scaf))
	f.Add([]byte{})
	f.Add([]byte("mhm-rank-state-v1")) // pre-SampleID shard magic: must be rejected, never mis-decoded
	f.Add([]byte("mhm-rank-state-v2"))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeRankState(data)
		if err != nil {
			return
		}
		if got := encodeRankState(st); !bytes.Equal(got, data) {
			t.Fatalf("accepted input does not re-encode canonically (%d vs %d bytes)", len(got), len(data))
		}
	})
}
