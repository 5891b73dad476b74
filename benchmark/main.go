// Command benchmark is the repository benchmark: it generates one workload's
// inputs from a seed, drives the assembler through its public entry points,
// checks the outputs and prints every metric by name and unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": 2, "failed": 0, "metrics": {"wall_s": {"value": 9.8, "unit": "s"}, ...}}
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash benchmark/run.sh --workload deep --seed 1 --seconds 30 --trace 0
//
// README.md explains the workloads and every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setups is how many times a run sets its workload up; setup_s is the median.
const setups = 5

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     string // "full", or "tiny" for a smoke run
	workdir  string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: deep or wide")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.Float64Var(&o.seconds, "seconds", 30, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics instead")
	flag.StringVar(&o.size, "size", "full", "input size: full, or tiny for a smoke run")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/work", "directory for inputs, checkpoints and trace reports")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// report collects a run's informational lines, its operation counts and the
// output checks that failed.
type report struct {
	w                 io.Writer
	attempted, failed int
	failures          []string
}

func (r *report) printf(format string, args ...any) {
	fmt.Fprintf(r.w, format+"\n", args...)
}

// fail records a failed output check; it counts as a failed operation.
func (r *report) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.failures = append(r.failures, msg)
	r.failed++
	fmt.Fprintln(os.Stderr, "OUTPUT CHECK FAILED:", msg)
}

// errOutput is returned, after the result line is printed, when an output
// check failed.
var errOutput = errors.New("output check failed")

func run(o options, stdout io.Writer) error {
	if o.size != "full" && o.size != "tiny" {
		return fmt.Errorf("unknown size %q", o.size)
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.workdir, o.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	out := &report{w: stdout}
	vals := make(map[string]float64)
	var setup func(size string, seed int64, dir string) (*asmWorkload, error)
	switch o.workload {
	case "deep":
		setup = setupDeep
	case "wide":
		setup = setupWide
	default:
		return fmt.Errorf("unknown workload %q (want deep or wide)", o.workload)
	}
	var w *asmWorkload
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		sdir := filepath.Join(dir, fmt.Sprint("setup", i))
		if err := os.Mkdir(sdir, 0o755); err != nil {
			return err
		}
		t := time.Now()
		if w, err = setup(o.size, o.seed, sdir); err != nil {
			return err
		}
		setupTimes = append(setupTimes, time.Since(t).Seconds())
	}
	if o.trace {
		// The traced run of wide also drives the job server (serve.*
		// metrics); deep reports those as 0.
		for _, m := range perLayer {
			if strings.HasPrefix(m.Name, "serve.") {
				vals[m.Name] = 0
			}
		}
		if o.workload == "wide" {
			if err := serveLayers(o, vals, out); err != nil {
				return err
			}
		}
	}

	if err := resetPeakRSS(); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	steal, start := hostSteal(), time.Now()
	var tracedWall float64
	if o.trace {
		tracedWall, err = w.traced(vals, out)
	} else {
		err = w.measure(o.seconds, vals, out)
	}
	if err != nil {
		return err
	}
	out.printf("host steal: %.1f%% of the machine's CPU time while measuring",
		100*(hostSteal()-steal)/time.Since(start).Seconds()/float64(runtime.NumCPU()))
	vals["setup_s"] = median(setupTimes)
	if vals["process.peak_rss_bytes"], err = peakRSS(); err != nil {
		return err
	}

	list := endToEnd
	if o.trace {
		list = perLayer
		path, err := writeTraceReport(o, vals, tracedWall)
		if err != nil {
			return err
		}
		out.printf("trace: stage intervals account for %.1f%% of the traced run's wall_s (%.3f of %.3f s); report in %s",
			100*vals["trace.stage_share"], vals["trace.stage_share"]*tracedWall, tracedWall, path)
	}
	line, err := resultLine(list, vals, len(out.failures) == 0, out.attempted, out.failed)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if len(out.failures) > 0 {
		return errOutput
	}
	return nil
}

// stageRow is one line of the trace report's stage ledger.
type stageRow struct {
	Stage      string  `json:"stage"`
	WallS      float64 `json:"wall_s"`
	WallShare  float64 `json:"wall_share"`
	CPUS       float64 `json:"cpu_s"`
	AllocBytes float64 `json:"alloc_bytes"`
	SimS       float64 `json:"sim_s"`
}

// writeTraceReport writes the traced run's stage ledger and every measured
// number to a JSON file in the work directory and returns its path.
func writeTraceReport(o options, vals map[string]float64, wall float64) (string, error) {
	rep := struct {
		Workload   string             `json:"workload"`
		Seed       int64              `json:"seed"`
		Size       string             `json:"size"`
		WallS      float64            `json:"wall_s"`
		StageShare float64            `json:"stage_share"`
		Stages     []stageRow         `json:"stages"`
		Metrics    map[string]float64 `json:"metrics"`
	}{Workload: o.workload, Seed: o.seed, Size: o.size, WallS: wall, StageShare: vals["trace.stage_share"], Metrics: vals}
	for _, st := range ledgerStages {
		rep.Stages = append(rep.Stages, stageRow{
			Stage: st, WallS: vals[st+".wall_s"], WallShare: vals[st+".wall_s"] / wall,
			CPUS: vals[st+".cpu_s"], AllocBytes: vals[st+".alloc_bytes"], SimS: vals[st+".sim_s"],
		})
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(o.workdir, fmt.Sprintf("trace-%s-%s-seed%d.json", o.workload, o.size, o.seed))
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
