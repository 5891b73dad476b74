// Per-kernel benchmark harness: one benchmark per hot inner loop (alignment
// extension, de Bruijn graph walking, k-mer observation extraction, local
// assembly's mer walk), each comparing the packed 2-bit kernel against the
// ASCII baseline it replaced. Timing is hand-rolled over a fixed iteration count rather than
// driven by b.N, so the CI bench-smoke run (`-benchtime 1x`) still produces
// real numbers; the measured ns/op, B/op and allocs/op land in
// BENCH_kernels.json so the kernel-level perf trajectory has a
// machine-readable data point per CI run. This root package is the only
// writer of the file — the per-package benchmarks in internal/... assert
// correctness (equivalence, zero allocations, speedup floors) but do not
// write artifacts, because `go test ./...` runs package binaries in
// parallel.
package mhmgo_test

import (
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"mhmgo/internal/aligner"
	"mhmgo/internal/dbg"
	"mhmgo/internal/kmeranalysis"
	"mhmgo/internal/localasm"
	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
)

// kernelCost is one measured side (packed or ascii) of a kernel comparison.
type kernelCost struct {
	nsPerOp     float64
	bPerOp      float64
	allocsPerOp float64
}

// measureKernel times fn over a fixed iteration count with the allocation
// counters read before and after — the hand-rolled equivalent of a
// -benchmem benchmark that works at any -benchtime.
func measureKernel(iters int, fn func()) kernelCost {
	fn() // warm caches and scratch buffers outside the timed region
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return kernelCost{
		nsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		bPerOp:      float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
		allocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(iters),
	}
}

// reportKernel merges one kernel's comparison into BENCH_kernels.json
// (read-modify-write: the kernel benchmarks run sequentially inside
// this package's test binary) and mirrors the headline numbers as custom
// benchmark metrics.
func reportKernel(b *testing.B, key string, packed, ascii kernelCost) {
	report := map[string]any{}
	if data, err := os.ReadFile("BENCH_kernels.json"); err == nil {
		if err := json.Unmarshal(data, &report); err != nil {
			report = map[string]any{}
		}
	}
	report[key] = map[string]any{
		"packed_ns_per_op":     packed.nsPerOp,
		"ascii_ns_per_op":      ascii.nsPerOp,
		"speedup_x":            ascii.nsPerOp / packed.nsPerOp,
		"packed_b_per_op":      packed.bPerOp,
		"ascii_b_per_op":       ascii.bPerOp,
		"packed_allocs_per_op": packed.allocsPerOp,
		"ascii_allocs_per_op":  ascii.allocsPerOp,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_kernels.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(packed.nsPerOp, "packed_ns_per_op")
	b.ReportMetric(ascii.nsPerOp, "ascii_ns_per_op")
	b.ReportMetric(ascii.nsPerOp/packed.nsPerOp, "speedup_x")
	b.ReportMetric(packed.allocsPerOp, "packed_allocs_per_op")
}

func kernelRandBases(r *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = seq.BaseToChar(byte(r.Intn(4)))
	}
	return out
}

// BenchmarkKernelAlignExtend measures seed extension: one op scores a
// forward and a reverse-strand candidate for one 100-base read against a
// 2000-base contig, the per-read setup amortized the way alignOne amortizes
// it. The packed side must stay allocation-free (the correctness floor is
// asserted by the aligner package's own BenchmarkKernelAlignExtend and
// TestExtendPackedSpeedup).
func BenchmarkKernelAlignExtend(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	contig := dbg.Contig{ID: 7, Seq: kernelRandBases(r, 2000)}
	readSeq := append([]byte(nil), contig.Seq[800:900]...)
	for i := 0; i < 3; i++ {
		readSeq[r.Intn(len(readSeq))] = seq.BaseToChar(byte(r.Intn(4)))
	}
	opts := aligner.DefaultOptions(31)
	hitF := aligner.SeedHit{ContigID: contig.ID, Pos: 816}
	hitR := aligner.SeedHit{ContigID: contig.ID, Pos: 820, Reverse: true}
	s := aligner.NewScratch()
	s.BeginRead(readSeq)
	for i := 0; i < b.N; i++ {
		packed := measureKernel(200_000, func() {
			aligner.ExtendKernel(readSeq, contig, hitF, 16, false, opts, s)
			aligner.ExtendKernel(readSeq, contig, hitR, 16, true, opts, s)
		})
		ascii := measureKernel(50_000, func() {
			aligner.ExtendKernelASCII(readSeq, contig, hitF, 16, false, opts)
			aligner.ExtendKernelASCII(readSeq, contig, hitR, 16, true, opts)
		})
		reportKernel(b, "align_extend", packed, ascii)
	}
}

// BenchmarkKernelDBGWalk measures de Bruijn graph traversal: one op walks
// one path (alternating orientations over a fixed vertex set) of a graph
// built from reads over a 600-base genome. The packed walk appends 2-bit
// codes into a reusable scratch and unpacks to ASCII only for emitted
// contigs; the ASCII baseline grows a byte slice per walk.
func BenchmarkKernelDBGWalk(b *testing.B) {
	const k = 21
	r := rand.New(rand.NewSource(51))
	var sb strings.Builder
	for i := 0; i < 600; i++ {
		sb.WriteByte(seq.BaseToChar(byte(r.Intn(4))))
	}
	genome := sb.String()
	var reads []seq.Read
	for start := 0; start+60 <= len(genome); start += 5 {
		for rep := 0; rep < 3; rep++ {
			reads = append(reads, seq.Read{Seq: []byte(genome[start : start+60])})
		}
	}
	m := pgas.NewMachine(pgas.Config{Ranks: 1})
	opts := kmeranalysis.DefaultOptions(k)
	opts.UseBloom = false
	for i := 0; i < b.N; i++ {
		m.Run(func(rk *pgas.Rank) {
			res := kmeranalysis.Run(rk, reads, opts, nil)
			g := dbg.Build(rk, res.Counts, k, dbg.DefaultThresholds())
			var vertices []seq.Kmer
			g.Entries.ForEachLocal(rk, func(km seq.Kmer, _ dbg.Entry) {
				vertices = append(vertices, km)
			})
			if len(vertices) == 0 {
				b.Fatal("fixture graph has no vertices")
			}
			maxSteps := g.Vertices() + 1
			ws := dbg.NewWalkScratch()
			var n int
			packed := measureKernel(5_000, func() {
				g.WalkKernel(rk, vertices[n%len(vertices)], n%2 == 0, maxSteps, ws)
				n++
			})
			n = 0
			ascii := measureKernel(5_000, func() {
				g.WalkKernelASCII(rk, vertices[n%len(vertices)], n%2 == 0, maxSteps)
				n++
			})
			reportKernel(b, "dbg_walk", packed, ascii)
		})
	}
}

// BenchmarkKernelKmerExtract measures k-mer observation extraction: one op
// converts one 150-base read into canonical k=21 observations. The rolling
// variant decodes each base once and maintains the forward and
// reverse-complement windows incrementally; the byte-loop baseline rebuilds
// the reverse complement per window and re-decodes neighbours from ASCII.
func BenchmarkKernelKmerExtract(b *testing.B) {
	r := rand.New(rand.NewSource(62))
	read := seq.Read{ID: "kernel", Seq: kernelRandBases(r, 150), Qual: make([]byte, 150)}
	for i := range read.Qual {
		read.Qual[i] = byte(33 + r.Intn(40))
	}
	opts := kmeranalysis.DefaultOptions(21)
	var dst []kmeranalysis.Observation
	var codes []byte
	for i := 0; i < b.N; i++ {
		packed := measureKernel(20_000, func() {
			dst, codes = kmeranalysis.AppendObservations(dst[:0], codes, read, opts)
		})
		ascii := measureKernel(20_000, func() {
			dst = kmeranalysis.AppendObservationsByteLoop(dst[:0], read, opts)
		})
		reportKernel(b, "kmer_extract", packed, ascii)
	}
}

// BenchmarkKernelLocalAsmExtend measures local assembly's mer walk: one op
// extends both ends of a 600-base contig through 150-base reads tiling the
// 1200-base genome it came from. The packed side is a warm
// localasm.Extender (lazy per-size tables keyed on 2-bit packed mers,
// scratch reused across contigs); the baseline is the string-keyed table
// over every mer size it replaced, the same reference the localasm tests
// check the Extender against.
func BenchmarkKernelLocalAsmExtend(b *testing.B) {
	r := rand.New(rand.NewSource(73))
	genome := kernelRandBases(r, 1200)
	var reads [][]byte
	for start := 0; start+150 <= len(genome); start += 10 {
		rd := genome[start : start+150]
		if start%20 == 0 {
			rd = seq.ReverseComplement(rd)
		}
		reads = append(reads, rd)
	}
	contig := genome[300:900]
	opts := localasm.DefaultOptions(31)
	e := localasm.NewExtender(opts)
	want, added := e.Extend(contig, reads)
	if got, _ := naiveLocalExtend(contig, reads, opts); added == 0 || string(got) != string(want) {
		b.Fatalf("packed extension (+%d) differs from the naive walk or is empty", added)
	}
	for i := 0; i < b.N; i++ {
		packed := measureKernel(200, func() { e.Extend(contig, reads) })
		naive := measureKernel(20, func() { naiveLocalExtend(contig, reads, opts) })
		reportKernel(b, "local_mer_table", packed, naive)
	}
}

// naiveLocalExtend is the string-keyed mer walk localasm.Extender replaced:
// it counts every mer of every size in [MinMer, MaxMer] on both read
// strands, then walks each contig end from a full copy of it.
func naiveLocalExtend(contig []byte, reads [][]byte, opts localasm.Options) ([]byte, int) {
	table := map[string]*[4]int{}
	for _, rd := range reads {
		for _, s := range [][]byte{rd, seq.ReverseComplement(rd)} {
			for m := opts.MinMer; m <= opts.MaxMer; m++ {
				for i := 0; i+m < len(s); i++ {
					code, ok := seq.CharToBase(s[i+m])
					if !ok || !seq.ValidBases(s[i:i+m]) {
						continue
					}
					counts := table[string(s[i:i+m])]
					if counts == nil {
						counts = &[4]int{}
						table[string(s[i:i+m])] = counts
					}
					counts[code]++
				}
			}
		}
	}
	walk := func(s []byte) []byte {
		cur := append([]byte(nil), s...)
		var added []byte
		m := min(max(opts.K, opts.MinMer), opts.MaxMer)
		lastShift := 0
		for len(added) < opts.MaxExtension && len(cur) >= m {
			best, second, bestCode := 0, 0, 0
			if counts := table[string(cur[len(cur)-m:])]; counts != nil {
				for code, c := range counts {
					if c > best {
						second, best, bestCode = best, c, code
					} else if c > second {
						second = c
					}
				}
			}
			switch {
			case best < opts.MinSupport: // dead end
				if lastShift == 1 || m-opts.ShiftStep < opts.MinMer {
					return added
				}
				m, lastShift = m-opts.ShiftStep, -1
			case second >= opts.MinSupport: // fork
				if lastShift == -1 || m+opts.ShiftStep > opts.MaxMer {
					return added
				}
				m, lastShift = m+opts.ShiftStep, 1
			default:
				cur = append(cur, seq.BaseToChar(byte(bestCode)))
				added = append(added, seq.BaseToChar(byte(bestCode)))
				lastShift = 0
			}
		}
		return added
	}
	right, left := walk(contig), walk(seq.ReverseComplement(contig))
	out := append(seq.ReverseComplement(left), contig...)
	return append(out, right...), len(left) + len(right)
}
