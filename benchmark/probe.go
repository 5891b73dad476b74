package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mhmgo/internal/core"
	"mhmgo/internal/pgas"
)

// meters is a snapshot of the process counters the benchmark reads around
// each call into the program: wall clock, getrusage CPU and runtime/metrics.
type meters struct {
	at       time.Time
	cpuS     float64 // user + system CPU seconds of the process
	alloc    float64 // cumulative heap bytes allocated
	gcCycles float64
	gcCPUS   float64
}

var meterSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readMeters() meters {
	s := make([]metrics.Sample, len(meterSamples))
	for i, name := range meterSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return meters{
		at:       time.Now(),
		cpuS:     processCPU(),
		alloc:    float64(s[0].Value.Uint64()),
		gcCycles: float64(s[1].Value.Uint64()),
		gcCPUS:   s[2].Value.Float64(),
	}
}

// span is the difference between two snapshots.
type span struct {
	wallS, cpuS, alloc, gcCycles, gcCPUS float64
}

func (m meters) since(start meters) span {
	return span{
		wallS:    m.at.Sub(start.at).Seconds(),
		cpuS:     m.cpuS - start.cpuS,
		alloc:    m.alloc - start.alloc,
		gcCycles: m.gcCycles - start.gcCycles,
		gcCPUS:   m.gcCPUS - start.gcCPUS,
	}
}

func (s *span) add(o span) {
	s.wallS += o.wallS
	s.cpuS += o.cpuS
	s.alloc += o.alloc
	s.gcCycles += o.gcCycles
	s.gcCPUS += o.gcCPUS
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func processCPU() float64 {
	ru := rusage()
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)).Seconds()
}

// hostSteal returns the CPU seconds the hypervisor has taken from this
// machine's virtual CPUs since boot (the steal column of /proc/stat, in
// USER_HZ = 100 ticks a second), or 0 where that is not available.
func hostSteal() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// resetPeakRSS restarts the kernel's record of the process's peak resident
// set size from its current size (Linux), so that peakRSS reports the peak of
// what runs after it.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns the process's peak resident set size in bytes since the
// last resetPeakRSS (VmHWM in /proc/self/status).
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// retainedHeap forces a collection and returns the heap bytes still in use.
func retainedHeap() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// stageLedger splits a traced assembly into stage intervals. Its hook is
// passed as core.Config.Progress: rank 0 calls it at every stage-end barrier,
// and the next stage's start barrier holds every rank until it returns, so
// consecutive hook timestamps bound one stage each. An interval also holds
// the checkpoint deposit and read localization that run between a stage's
// end and the next stage's start.
type stageLedger struct {
	last  meters
	rows  map[string]*span
	total span
}

// start marks the beginning of the first stage; call it just before the
// assembly.
func (l *stageLedger) start() {
	l.rows = make(map[string]*span)
	l.total = span{}
	l.last = readMeters()
}

func (l *stageLedger) hook(ev core.ProgressEvent) {
	now := readMeters()
	d := now.since(l.last)
	l.last = now
	row := l.rows[ev.Stage]
	if row == nil {
		row = &span{}
		l.rows[ev.Stage] = row
	}
	row.add(d)
	l.total.add(d)
}

// put writes the ledger's per-stage metrics, taking simulated time from the
// assembly's own per-stage record.
func (l *stageLedger) put(vals map[string]float64, stages []pgas.StageTime) {
	sim := make(map[string]float64)
	for _, st := range stages {
		sim[st.Name] += st.Seconds
	}
	for _, st := range ledgerStages {
		var row span
		if r := l.rows[st]; r != nil {
			row = *r
		}
		vals[st+".wall_s"] = row.wallS
		vals[st+".cpu_s"] = row.cpuS
		vals[st+".alloc_bytes"] = row.alloc
		vals[st+".sim_s"] = sim[st]
	}
}
