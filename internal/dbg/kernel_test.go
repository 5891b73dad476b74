package dbg

import (
	"math/rand"
	"strings"
	"testing"

	"mhmgo/internal/kmeranalysis"
	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
)

// walkFixtureGraph builds a single-rank graph over reads covering a random
// genome, returning the machine, graph and the sorted vertex list.
func walkFixtureGraph(t testing.TB, genomeLen, k int) (*pgas.Machine, *Graph, []seq.Kmer) {
	r := rand.New(rand.NewSource(51))
	var sb strings.Builder
	for i := 0; i < genomeLen; i++ {
		sb.WriteByte(seq.BaseToChar(byte(r.Intn(4))))
	}
	reads := coverWithReads(sb.String(), 60, 5, 3)
	m := pgas.NewMachine(pgas.Config{Ranks: 1})
	opts := kmeranalysis.DefaultOptions(k)
	opts.UseBloom = false
	var g *Graph
	var vertices []seq.Kmer
	m.Run(func(rk *pgas.Rank) {
		res := kmeranalysis.Run(rk, reads, opts, nil)
		g = Build(rk, res.Counts, k, DefaultThresholds())
		g.Entries.ForEachLocal(rk, func(km seq.Kmer, _ Entry) {
			vertices = append(vertices, km)
		})
	})
	if len(vertices) == 0 {
		t.Fatal("fixture graph has no vertices")
	}
	return m, g, vertices
}

// TestWalkPackedMatchesASCII walks every vertex of a fixture graph in both
// orientations with the packed and the ASCII kernels and requires identical
// sequences and depth counts.
func TestWalkPackedMatchesASCII(t *testing.T) {
	m, g, vertices := walkFixtureGraph(t, 600, 21)
	ws := NewWalkScratch()
	m.Run(func(rk *pgas.Rank) {
		maxSteps := g.Vertices() + 1
		for _, km := range vertices {
			for _, forward := range []bool{true, false} {
				n := g.WalkKernel(rk, km, forward, maxSteps, ws)
				wantSeq, wantCounts := g.WalkKernelASCII(rk, km, forward, maxSteps)
				if got := string(ws.Unpack(nil)); got != string(wantSeq) || n != len(wantSeq) {
					t.Fatalf("walk from %s forward=%v:\n got %s (n=%d)\nwant %s",
						km.String(), forward, got, n, wantSeq)
				}
				gotCounts := ws.Counts()
				if len(gotCounts) != len(wantCounts) {
					t.Fatalf("walk from %s: %d counts, want %d", km.String(), len(gotCounts), len(wantCounts))
				}
				for i := range gotCounts {
					if gotCounts[i] != wantCounts[i] {
						t.Fatalf("walk from %s: count[%d] = %d, want %d",
							km.String(), i, gotCounts[i], wantCounts[i])
					}
				}
				// The packed emit-once predicate must agree with the ASCII one.
				if got, want := ws.seq.GreaterThanRC(), greaterThanRC(wantSeq); got != want {
					t.Fatalf("walk from %s: GreaterThanRC = %v, ASCII greaterThanRC = %v",
						km.String(), got, want)
				}
			}
		}
	})
}

// BenchmarkKernelDBGWalk measures one walk per op from a fixed set of start
// vertices. The packed variant walks into a warm scratch and must be
// allocation-free; the ASCII baseline allocates and grows a byte slice per
// walk, whether or not the path would be emitted.
func BenchmarkKernelDBGWalk(b *testing.B) {
	m, g, vertices := walkFixtureGraph(b, 600, 21)
	maxSteps := 0
	b.Run("packed", func(b *testing.B) {
		ws := NewWalkScratch()
		m.Run(func(rk *pgas.Rank) {
			if maxSteps == 0 {
				maxSteps = g.Vertices() + 1
			}
			g.WalkKernel(rk, vertices[0], true, maxSteps, ws) // warm the buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.WalkKernel(rk, vertices[i%len(vertices)], i%2 == 0, maxSteps, ws)
			}
			b.StopTimer()
			allocs := testing.AllocsPerRun(100, func() {
				g.WalkKernel(rk, vertices[0], true, maxSteps, ws)
			})
			if allocs != 0 {
				b.Fatalf("packed walk with warm scratch: %v allocs/op, want 0", allocs)
			}
		})
	})
	b.Run("ascii", func(b *testing.B) {
		m.Run(func(rk *pgas.Rank) {
			if maxSteps == 0 {
				maxSteps = g.Vertices() + 1
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.WalkKernelASCII(rk, vertices[i%len(vertices)], i%2 == 0, maxSteps)
			}
		})
	})
}
