package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"mhmgo/internal/sim"
)

// The pooled scheduler (pgas.Config.Workers) is an execution knob: it decides
// how many rank goroutines run concurrently, never what they compute. These
// tests pin that contract two ways: against golden values captured from the
// pre-scheduler goroutine-per-rank engine at P=8, and against each other at
// P=1024 where the pool actually multiplexes many parked ranks per worker.

// resultFingerprint hashes the assembled sequences (each prefixed with its
// little-endian uint64 length, so the digest is injective over the sequence
// list) into a hex digest.
func resultFingerprint(res *Result) string {
	h := sha256.New()
	var lenBuf [8]byte
	for _, s := range res.FinalSequences() {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(s)))
		h.Write(lenBuf[:])
		h.Write(s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSchedulerGoldenP8 pins the pooled scheduler's output — simulated
// seconds and the exact assembled sequences — to golden values captured from
// the pre-refactor goroutine-per-rank engine, for every pool size. Any drift
// means the scheduler changed simulation semantics, not just wall-clock.
func TestSchedulerGoldenP8(t *testing.T) {
	const (
		wantSim  = "0.056517040799970962"
		wantHash = "b829c58aa30a51f0fd98beed57d0d6fd6cbd6d3556bf55b5f39e37b25b2d6147"
	)
	comm := sim.WetlandsLikeCommunity(8, 0.5, 7)
	reads := sim.SimulateReads(comm, sim.ReadConfig{
		ReadLen:    100,
		InsertSize: 280,
		InsertStd:  25,
		ErrorRate:  0.01,
		Coverage:   10,
		Seed:       8,
	})
	if len(reads) != 2962 {
		t.Fatalf("workload drifted: %d reads, want 2962", len(reads))
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := DefaultConfig(8)
			cfg.RanksPerNode = 4
			cfg.Workers = workers
			res, err := Assemble(reads, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%.18f", res.SimSeconds); got != wantSim {
				t.Errorf("sim seconds = %s, want %s (pre-refactor golden)", got, wantSim)
			}
			if got := resultFingerprint(res); got != wantHash {
				t.Errorf("output hash = %s, want %s (pre-refactor golden)", got, wantHash)
			}
		})
	}
}

// TestLargePSmokeP1024 runs the full pipeline at P=1024 — far more ranks than
// hardware threads, so most ranks are parked at any moment — and asserts the
// result is bit-identical across pool sizes. Skipped under -race (goroutine
// shadow memory makes P=1024 prohibitively slow); the P=8 golden above and
// the pgas package's own race tests cover the same code paths.
func TestLargePSmokeP1024(t *testing.T) {
	if raceEnabled {
		t.Skip("P=1024 smoke is too slow under the race detector")
	}
	if testing.Short() {
		t.Skip("P=1024 smoke skipped in -short mode")
	}
	comm := sim.WetlandsLikeCommunity(4, 0.3, 7)
	reads := sim.SimulateReads(comm, sim.ReadConfig{
		ReadLen:    100,
		InsertSize: 280,
		InsertStd:  25,
		ErrorRate:  0.01,
		Coverage:   4,
		Seed:       9,
	})
	type outcome struct {
		sim  string
		hash string
	}
	var first *outcome
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		cfg := DefaultConfig(1024)
		cfg.RanksPerNode = 16
		cfg.Workers = workers
		// One k iteration keeps the smoke inside a CI time budget; the
		// barrier/exchange traffic per iteration is identical in kind.
		cfg.KMin, cfg.KMax = 21, 21
		res, err := Assemble(reads, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := outcome{sim: fmt.Sprintf("%.18f", res.SimSeconds), hash: resultFingerprint(res)}
		if first == nil {
			first = &got
			t.Logf("P=1024 workers=%d: sim=%s hash=%s scaffolds=%d", workers, got.sim, got.hash, len(res.FinalSequences()))
			continue
		}
		if got != *first {
			t.Errorf("workers=%d diverged: sim=%s hash=%s, want sim=%s hash=%s",
				workers, got.sim, got.hash, first.sim, first.hash)
		}
	}
}

// TestLargePSmokeP4096 runs the full pipeline — every k iteration — at
// P=4096/RPN=16 on a community shaped like the repository benchmark's wide
// workload (48 organisms, 4 of them 250x as abundant as the rest, 368 read
// pairs at seed 1) and asserts the result is bit-identical across pool
// sizes and equal to golden values captured while every rank still scanned
// all P partitions in DBG traversal and all P destinations in each Updater
// flush. It stays affordable only because no per-rank code does O(P) host
// work any more; skipped under -race like the P=1024 smoke.
func TestLargePSmokeP4096(t *testing.T) {
	if raceEnabled {
		t.Skip("P=4096 smoke is too slow under the race detector")
	}
	if testing.Short() {
		t.Skip("P=4096 smoke skipped in -short mode")
	}
	const (
		wantSimBits = 0x3fa6da9fbb75241e
		wantHash    = "cbd68903840d4bf512a416c06eb93a714326d3052c6bc2c7bbd162af426edfe8"
	)
	const organisms, dominant = 48, 4
	comm := sim.GenerateCommunity(sim.CommunityConfig{
		NumGenomes: organisms, MeanGenomeLen: 1600, LenVariation: 0.2,
		RRNALen: 400, RRNACopies: 1, RRNADivergence: 0.1, Seed: 20180101,
	})
	total := float64(dominant) + float64(organisms-dominant)/250
	for i := range comm.Genomes {
		comm.Genomes[i].Abundance = 1 / 250.0 / total
		if i < dominant {
			comm.Genomes[i].Abundance = 1 / total
		}
	}
	reads := sim.SimulateReads(comm, sim.ReadConfig{
		ReadLen: 100, InsertSize: 280, InsertStd: 25, ErrorRate: 0.01, TotalPairs: 368, Seed: 1,
	})
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := DefaultConfig(4096)
			cfg.RanksPerNode = 16
			cfg.Workers = workers
			cfg.MinContigLen = 200
			res, err := Assemble(reads, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := math.Float64bits(res.SimSeconds); got != wantSimBits {
				t.Errorf("sim seconds bits = %016x, want %016x", got, uint64(wantSimBits))
			}
			if got := resultFingerprint(res); got != wantHash {
				t.Errorf("output hash = %s, want %s", got, wantHash)
			}
		})
	}
}
