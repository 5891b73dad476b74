package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mhmgo/internal/checkpoint"
	"mhmgo/internal/eval"
	"mhmgo/internal/seq"
	"mhmgo/internal/sim"
)

// sampleTaggedReads simulates smallCommunity's exact read configuration with
// a Samples list attached, so sample-mode read sets are directly comparable
// to the legacy shorthand sets the other core tests use.
func sampleTaggedReads(t *testing.T, comm *sim.Community, coverage float64, samples []sim.SampleConfig) []seq.Read {
	t.Helper()
	return sim.SimulateReads(comm, sim.ReadConfig{
		ReadLen:    80,
		InsertSize: 220,
		InsertStd:  15,
		ErrorRate:  0.005,
		Coverage:   coverage,
		Seed:       102,
		Samples:    samples,
	})
}

// coassemblyReads returns a two-sample co-assembly read set over the
// standard checkpoint-test community: a baseline sample plus a drifted one.
func coassemblyReads(t *testing.T) []seq.Read {
	t.Helper()
	comm, _ := smallCommunity(t, 2, 8)
	return sampleTaggedReads(t, comm, 8, []sim.SampleConfig{
		{Name: "t0"},
		{Name: "t1", AbundanceSigma: 0.4},
	})
}

// TestSingleSampleShorthandEquivalence is the cross-sample golden
// equivalence contract: a one-entry Samples list with an empty
// SampleConfig{} is the SAME run as the legacy no-samples shorthand —
// byte-identical simulated reads, and at P = 1, 3 and 8 byte-identical final
// sequences, identical simulated seconds and an identical manifest head.
func TestSingleSampleShorthandEquivalence(t *testing.T) {
	comm, legacyReads := smallCommunity(t, 2, 8)
	sampleReads := sampleTaggedReads(t, comm, 8, []sim.SampleConfig{{}})

	if len(legacyReads) != len(sampleReads) {
		t.Fatalf("read counts differ: legacy %d vs one-sample %d", len(legacyReads), len(sampleReads))
	}
	for i := range legacyReads {
		a, b := legacyReads[i], sampleReads[i]
		if a.ID != b.ID || a.LibID != b.LibID || a.SampleID != b.SampleID ||
			!bytes.Equal(a.Seq, b.Seq) || !bytes.Equal(a.Qual, b.Qual) {
			t.Fatalf("read %d differs between the legacy shorthand and the one-sample config", i)
		}
	}

	for _, p := range []int{1, 3, 8} {
		p := p
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			cfg := testConfig(p)
			lcfg := cfg
			lcfg.CheckpointDir = t.TempDir()
			legacy, err := Assemble(legacyReads, lcfg)
			if err != nil {
				t.Fatalf("legacy run: %v", err)
			}
			scfg := cfg
			scfg.CheckpointDir = t.TempDir()
			sampled, err := Assemble(sampleReads, scfg)
			if err != nil {
				t.Fatalf("one-sample run: %v", err)
			}
			assertSameRun(t, legacy, sampled)
		})
	}
}

// TestCoassemblyDeterministicP3 pins that a genuinely multi-sample
// co-assembly is deterministic: two runs over the same pooled read set agree
// on output bytes and simulated seconds. CI runs it under -race and
// -shuffle=on.
func TestCoassemblyDeterministicP3(t *testing.T) {
	reads := coassemblyReads(t)
	cfg := testConfig(3)
	a, err := Assemble(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Assemble(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if outputFingerprint(a) != outputFingerprint(b) {
		t.Error("co-assembly output differs between identical runs")
	}
	if a.SimSeconds != b.SimSeconds {
		t.Errorf("co-assembly sim seconds differ: %v vs %v", a.SimSeconds, b.SimSeconds)
	}
}

// TestCheckpointResumeCoassembly kills a multi-sample co-assembly after
// every checkpointed stage and resumes it: the resumed run must reproduce
// the uninterrupted run bit-for-bit, INCLUDING the per-sample abundance
// tables derived from its output — sample identity must survive the
// kill/restart round trip through the widened shard format.
func TestCheckpointResumeCoassembly(t *testing.T) {
	comm, _ := smallCommunity(t, 2, 8)
	reads := coassemblyReads(t)
	names := []string{"t0", "t1"}
	cfg := testConfig(3)

	baseDir := t.TempDir()
	bcfg := cfg
	bcfg.CheckpointDir = baseDir
	base, err := Assemble(reads, bcfg)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	baseAbundance := eval.AbundanceReport(base.FinalSequences(), reads, names, comm, eval.DefaultOptions())
	if len(baseAbundance) != 2 {
		t.Fatalf("baseline abundance covers %d samples, want 2", len(baseAbundance))
	}

	man, err := checkpoint.Load(baseDir)
	if err != nil {
		t.Fatalf("baseline manifest: %v", err)
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
			rcfg := cfg
			rcfg.CheckpointDir = dir
			rcfg.ResumeFrom = dir
			res, err := Assemble(reads, rcfg)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			assertSameRun(t, base, res)
			resumedAbundance := eval.AbundanceReport(res.FinalSequences(), reads, names, comm, eval.DefaultOptions())
			if !reflect.DeepEqual(baseAbundance, resumedAbundance) {
				t.Error("per-sample abundance tables differ after kill/resume")
			}
		})
	}
}

// TestResumeRefusedSampleRetag pins that the sample axis participates in the
// input hash: resuming a checkpoint with the same read bytes but a different
// sample assignment must be refused with ErrInputMismatch. This is also the
// compatibility story for pre-SampleID checkpoints — their manifests hashed
// the reads without sample tags, so they can never silently resume a
// sample-tagged run.
func TestResumeRefusedSampleRetag(t *testing.T) {
	reads := coassemblyReads(t)
	cfg := testConfig(3)
	dir := t.TempDir()
	bcfg := cfg
	bcfg.CheckpointDir = dir
	if _, err := Assemble(reads, bcfg); err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	retagged := make([]seq.Read, len(reads))
	copy(retagged, reads)
	r0 := retagged[0].Clone()
	r0.SampleID ^= 1
	retagged[0] = r0

	rcfg := cfg
	rcfg.ResumeFrom = dir
	if _, err := Assemble(retagged, rcfg); !errors.Is(err, checkpoint.ErrInputMismatch) {
		t.Fatalf("resume with retagged sample = %v, want ErrInputMismatch", err)
	}
}

// TestOldRankStateMagicRefused pins the shard-format version gate: a shard
// carrying the pre-SampleID v1 magic must be rejected at decode with a
// distinct error instead of mis-decoding the widened read records.
func TestOldRankStateMagicRefused(t *testing.T) {
	st := rankState{
		ranks: 1, rank: 0, it: 0, stage: stageIndex(StageKmerAnalysis),
		clock: 1.5, resident: 64,
		reads: []seq.Read{{ID: "r/1", Seq: []byte("ACGT"), Qual: []byte("IIII"), SampleID: 1}},
	}
	data := encodeRankState(&st)
	if _, err := decodeRankState(data); err != nil {
		t.Fatalf("v2 shard failed to decode: %v", err)
	}
	old := bytes.Replace(data, []byte("mhm-rank-state-v2"), []byte("mhm-rank-state-v1"), 1)
	if bytes.Equal(old, data) {
		t.Fatal("magic replacement did not take; encoding layout changed?")
	}
	_, err := decodeRankState(old)
	if err == nil {
		t.Fatal("v1-magic shard decoded without error")
	}
	if !strings.Contains(err.Error(), "magic") {
		t.Errorf("v1-magic shard error = %v, want a magic mismatch", err)
	}
}
