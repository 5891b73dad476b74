package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"mhmgo/internal/seq"
)

// TestManifestHeadGolden pins the checkpoint format end to end. The manifest
// head chains the configuration, the input and every per-stage shard's
// SHA-256, so an equal head proves every shard byte of every stage is
// unchanged. Alongside it the test pins the output hash, the simulated
// seconds' bit pattern and the Progress event stream. The golden values were
// captured before the pipeline became a stage table; any drift means a
// refactor changed the wire format, the stage schedule or the simulation.
func TestManifestHeadGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("three checkpointed assemblies; skipped in -short mode")
	}
	cases := []struct {
		name       string
		setup      func(t *testing.T) ([]seq.Read, Config)
		head       string
		outHash    string
		simBits    uint64
		events     int
		eventsHash string
	}{
		{
			name: "single_library_P3",
			setup: func(t *testing.T) ([]seq.Read, Config) {
				_, reads := smallCommunity(t, 2, 8)
				return reads, testConfig(3)
			},
			head:       "7609ad3d43a50fd298dfcddff014f77640121f1d68991850182d2d5d1a3877a5",
			outHash:    "45c120f5805a8a7a72b010a39d1b39692ebf5425b4576c92e79870f345211d15",
			simBits:    0x3f9321a7d8673b43,
			events:     12,
			eventsHash: "688cacb5acd6a4ce26b892482b15c34691d5cec4e3cf2bacd49afce4c265f46c",
		},
		{
			name: "two_library_localized_minlen_P3",
			setup: func(t *testing.T) ([]seq.Read, Config) {
				_, reads := twoLibraryCommunity(t)
				cfg := twoLibraryConfig(3)
				cfg.ReadLocalization = true
				cfg.MinContigLen = 60
				return reads, cfg
			},
			head:       "422cdc51c7839230aaa8eb37fc381c4579ee0aa47323fba26061839dbcfe2289",
			outHash:    "708a13e6c68d59a53120227920b4897fcecd063576a2d173180b29ea8322b7a6",
			simBits:    0x3fb0ac11301c645c,
			events:     12,
			eventsHash: "442a1196825148b3e807214bee577020c64ab0bc9e3012405686c83de4756744",
		},
		{
			name: "no_local_assembly_P1",
			setup: func(t *testing.T) ([]seq.Read, Config) {
				_, reads := smallCommunity(t, 2, 8)
				cfg := testConfig(1)
				cfg.LocalAssembly = false
				return reads, cfg
			},
			head:       "aab609f3e77c8f76f8bd3e2b13c0e1b9b8e70f2a1e34d16254f7d00f00117cb6",
			outHash:    "4da10c4554c1dec8abc4badebb1f69a02b0f4dae993621b039b1e6b401605631",
			simBits:    0x3f91200b9f56f115,
			events:     10,
			eventsHash: "940efd76428925ea8f8dda6c020513e70322d6b9a0b9ae2aa2ef43d0aba1593c",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reads, cfg := tc.setup(t)
			cfg.CheckpointDir = t.TempDir()
			var events []ProgressEvent
			cfg.Progress = func(ev ProgressEvent) { events = append(events, ev) }
			res, err := Assemble(reads, cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, ev := range events {
				fmt.Fprintf(h, "%s/%d/%d/%x/%d\n", ev.Stage, ev.Iteration, ev.K, math.Float64bits(ev.SimSeconds), ev.ResidentBytes)
			}
			eventsHash := hex.EncodeToString(h.Sum(nil))
			if res.ManifestHead != tc.head {
				t.Errorf("manifest head = %s, want %s", res.ManifestHead, tc.head)
			}
			if got := resultFingerprint(res); got != tc.outHash {
				t.Errorf("output hash = %s, want %s", got, tc.outHash)
			}
			if got := math.Float64bits(res.SimSeconds); got != tc.simBits {
				t.Errorf("sim seconds bits = %#x, want %#x", got, tc.simBits)
			}
			if len(events) != tc.events {
				t.Errorf("progress events = %d, want %d", len(events), tc.events)
			}
			if eventsHash != tc.eventsHash {
				t.Errorf("progress event stream hash = %s, want %s", eventsHash, tc.eventsHash)
			}
		})
	}
}
