package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func seqFloats(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helpers must sort
	}
	return xs
}

func withInf(xs []float64, k int) []float64 {
	for i := 0; i < k; i++ {
		xs = append(xs, math.Inf(1))
	}
	return xs
}

func TestPercentileHelpers(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name       string
		xs         []float64
		wantMedian float64
		wantTail   float64
		wantTailP  float64
	}{
		// 100 samples: the 90th percentile has exactly 10 samples beyond it.
		{"100 samples", seqFloats(100), 50.5, 90, 0.9},
		// 99 samples: p90 would have only 9 beyond, so the tail drops to the
		// highest rank that keeps 10 beyond.
		{"99 samples", seqFloats(99), 50, 89, 89.0 / 99},
		// 200 samples: p90 has 20 beyond and is reported as p90.
		{"200 samples", seqFloats(200), 100.5, 180, 0.9},
		// With 10 samples or fewer no percentile has 10 beyond: the maximum.
		{"10 samples", seqFloats(10), 5.5, 10, 1},
		{"1 sample", []float64{3}, 3, 3, 1},
		// Failed jobs count as +Inf: 5 failures in 100 stay beyond p90.
		{"5 failed of 100", withInf(seqFloats(95), 5), 50.5, 90, 0.9},
		// 11 failures in 100 reach the 90th rank: the tail misses every limit.
		{"11 failed of 100", withInf(seqFloats(89), 11), 50.5, inf, 0.9},
		// Over half failed: the median is +Inf too.
		{"majority failed", withInf(seqFloats(4), 6), inf, inf, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := median(c.xs); got != c.wantMedian {
				t.Errorf("median = %v, want %v", got, c.wantMedian)
			}
			v, p := tail(c.xs)
			if v != c.wantTail || math.Abs(p-c.wantTailP) > 1e-12 {
				t.Errorf("tail = %v at %v, want %v at %v", v, p, c.wantTail, c.wantTailP)
			}
			if p < 1 {
				_, beyond := percentile(c.xs, p)
				if beyond < minBeyond {
					t.Errorf("tail quantile %v has %d samples beyond it, want >= %d", p, beyond, minBeyond)
				}
			}
		})
	}
}

// TestMetricNamesMatchBenchmarkJSON checks that the metrics the benchmark
// prints are exactly the ones BENCHMARK.json declares, with the same units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: benchmark prints %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: benchmark prints %+v, BENCHMARK.json lists %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ","); got != "deep,wide" {
		t.Errorf("BENCHMARK.json workloads = %s, want deep,wide", got)
	}
}

func TestScheduleIsOpenLoopFromSeed(t *testing.T) {
	light := []*poolEntry{{class: "light"}, {class: "light"}}
	hog := []*poolEntry{{class: "hog"}}
	sh := serveShapes["full"]
	a := schedule(7, sh, 25, light, hog)
	b := schedule(7, sh, 25, light, hog)
	c := schedule(8, sh, 25, light, hog)
	if len(a) < sh.minJobs || len(a)%sh.hogEvery != 0 {
		t.Fatalf("%d jobs, want a multiple of %d and at least %d", len(a), sh.hogEvery, sh.minJobs)
	}
	hogs, differs := 0, false
	slot := time.Duration(float64(time.Second) / sh.rate)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs between two schedules from the same seed", i)
		}
		if a[i].at != c[i].at {
			differs = true
		}
		if lo := time.Duration(i) * slot; a[i].at < lo-time.Microsecond || a[i].at > lo+slot+time.Microsecond {
			t.Errorf("job %d due at %v, outside its slot starting %v", i, a[i].at, lo)
		}
		if a[i].entry.class == "hog" {
			hogs++
		}
	}
	if !differs {
		t.Error("seeds 7 and 8 gave the same arrival times")
	}
	if want := len(a) / sh.hogEvery; hogs != want {
		t.Errorf("%d hog jobs, want %d", hogs, want)
	}
}

// TestSmoke runs every workload, untraced and traced, at the tiny size and
// checks the result line. The traced wide run also drives the job server.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real assemblies")
	}
	for _, wl := range []string{"deep", "wide"} {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			o := options{workload: wl, seed: 3, seconds: 1, trace: trace, size: "tiny", workdir: t.TempDir()}
			if err := run(o, &out); err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", wl, trace, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				t.Fatalf("%s trace=%v: last line is not a result: %v", wl, trace, err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 || len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d with %d metrics, want %d",
					wl, trace, r.Correct, r.Attempted, r.Failed, len(r.Metrics), len(want))
			}
			for _, m := range want {
				if v, ok := r.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s missing or with unit %q", wl, trace, m.Name, v.Unit)
				}
			}
			if !trace {
				for _, m := range endToEnd {
					if r.Metrics[m.Name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", wl, m.Name)
					}
				}
			} else if wl == "wide" && r.Metrics["serve.light_latency_p50_s"].Value == 0 {
				t.Errorf("wide traced run did not drive the job server")
			}
		}
	}
}
