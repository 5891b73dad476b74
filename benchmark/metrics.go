package main

import (
	"encoding/json"
	"fmt"
	"math"

	"mhmgo/internal/core"
)

// metric is one named number the benchmark prints, with its unit.
type metric struct {
	Name string
	Unit string
}

// endToEnd lists the metrics an untraced run (--trace 0) prints, on every
// workload. README.md defines each one.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"alloc_bytes", "bytes"},
	{"sim_s", "s"},
	{"sim_peak_resident_bytes", "bytes"},
	{"genome_fraction", "fraction"},
	{"n50", "bases"},
	{"heap_retained_bytes", "bytes"},
}

// ledgerStages are the pipeline stages of the traced run's stage ledger, in
// pipeline order.
var ledgerStages = []string{
	core.StageKmerAnalysis,
	core.StageKmerMerge,
	core.StageDBGTraversal,
	core.StageContigRefine,
	core.StageAlignment,
	core.StageLocalAssembly,
	core.StageScaffolding,
}

// perLayer lists the metrics a traced run (--trace 1) prints, on every
// workload; a layer the workload does not use reads 0.
var perLayer = func() []metric {
	var ms []metric
	for _, st := range ledgerStages {
		ms = append(ms,
			metric{st + ".wall_s", "s"},
			metric{st + ".cpu_s", "s"},
			metric{st + ".alloc_bytes", "bytes"},
			metric{st + ".sim_s", "s"})
	}
	return append(ms, []metric{
		{"pgas.compute_ops", "count"},
		{"pgas.messages", "count"},
		{"pgas.bytes_sent", "bytes"},
		{"pgas.off_node_bytes", "bytes"},
		{"pgas.remote_gets", "count"},
		{"pgas.barriers", "count"},
		{"pgas.us_per_barrier", "us"},
		{"pgas.w1_wall_s", "s"},
		{"pgas.worker_speedup", "ratio"},
		{"dht.cache_hit_rate", "fraction"},
		{"aligner.aligned_frac", "fraction"},
		{"kmeranalysis.distinct_kmers", "count"},
		{"dbg.contigs", "count"},
		{"localasm.extended_bases", "bases"},
		{"localasm.bases_per_cpu_s", "bases/s"},
		{"scaffold.accepted_links", "count"},
		{"scaffold.gaps_closed_frac", "fraction"},
		{"fastx.parse_s", "s"},
		{"fastx.mb_per_s", "MB/s"},
		{"checkpoint.bytes", "bytes"},
		{"checkpoint.files", "count"},
		{"process.peak_rss_bytes", "bytes"},
		{"gc.cycles", "count"},
		{"gc.cpu_s", "s"},
		{"serve.queue_wait_p50_s", "s"},
		{"serve.queue_wait_p90_s", "s"},
		{"serve.run_p50_s", "s"},
		{"serve.submit_p50_s", "s"},
		{"serve.fetch_p50_s", "s"},
		{"serve.light_latency_p50_s", "s"},
		{"serve.light_latency_p90_s", "s"},
		{"serve.hog_latency_p50_s", "s"},
		{"serve.jobs_per_s", "1/s"},
		{"serve.refused", "count"},
		{"serve.generator_late_p90_s", "s"},
		{"trace.overhead_s", "s"},
		{"trace.stage_share", "fraction"},
	}...)
}()

// metricValue is one metric as printed in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine renders the result line for exactly the listed metrics. A metric
// the workload did not set, or set to a non-finite number, is a bug in the
// benchmark and an error.
func resultLine(list []metric, vals map[string]float64, correct bool, attempted, failed int) ([]byte, error) {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(list))}
	for _, m := range list {
		v, ok := vals[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		r.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return json.Marshal(r)
}
