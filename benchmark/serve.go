package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mhmgo/internal/core"
	"mhmgo/internal/fastx"
	"mhmgo/internal/seq"
	"mhmgo/internal/serve"
	"mhmgo/internal/sim"
)

// serveShape sizes the job-server probe.
type serveShape struct {
	lightPool, hogPool   int     // distinct read sets per job class
	lightPairs, hogPairs int     // read pairs per job
	rate                 float64 // job arrivals per second
	hogEvery             int     // one hog job in every block of this many
	minJobs              int     // jobs per run at least (a multiple of hogEvery)
}

var serveShapes = map[string]serveShape{
	// 120 jobs give 114 light jobs, so 11 lie beyond the light p90.
	"full": {lightPool: 6, hogPool: 1, lightPairs: 100, hogPairs: 1500, rate: 3, hogEvery: 20, minJobs: 120},
	"tiny": {lightPool: 2, hogPool: 1, lightPairs: 100, hogPairs: 300, rate: 4, hogEvery: 4, minJobs: 8},
}

// jobTimeout bounds how long the generator waits for one job to finish, and
// for any one HTTP request.
const jobTimeout = 60 * time.Second

// poolEntry is one distinct job input and the output a direct assembly of it
// gives.
type poolEntry struct {
	class string // "light" or "hog"
	spec  serve.JobSpec
	comm  *sim.Community
	cfg   core.Config // as the server derives it from the spec
	reads []seq.Read  // as the server parses them from the spec
	want  []byte      // FASTA of a direct core.Assemble of reads under cfg
	ref   *core.Result
}

// newPoolEntry builds a job spec carrying reads inline and computes its
// reference output through the same public decoding the server uses.
func newPoolEntry(class string, comm *sim.Community, reads []seq.Read, spec serve.JobSpec) (*poolEntry, error) {
	var buf bytes.Buffer
	fw := fastx.NewWriter(&buf, fastx.FormatFASTQ, 0)
	for _, r := range reads {
		if err := fw.Write(fastx.Record{ID: r.ID, Seq: r.Seq, Qual: r.Qual}); err != nil {
			return nil, err
		}
	}
	if err := fw.Flush(); err != nil {
		return nil, err
	}
	spec.Libraries = []serve.LibrarySpec{{Name: "pe", InsertSize: 280, InsertStd: 25, Reads: buf.String()}}
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	dec, err := serve.DecodeSpec(body)
	if err != nil {
		return nil, fmt.Errorf("%s spec: %w", class, err)
	}
	e := &poolEntry{class: class, spec: spec, comm: comm}
	if e.cfg, err = dec.Config(); err != nil {
		return nil, err
	}
	if e.reads, err = dec.BuildReads(); err != nil {
		return nil, err
	}
	if e.ref, err = core.Assemble(e.reads, e.cfg); err != nil {
		return nil, fmt.Errorf("%s reference assembly: %w", class, err)
	}
	e.want = renderFASTA(e.ref.FinalSequences())
	return e, nil
}

// renderFASTA renders sequences the way the server's FASTA endpoint does.
func renderFASTA(seqs [][]byte) []byte {
	names := make([]string, len(seqs))
	for i := range seqs {
		names[i] = fmt.Sprintf("scaffold_%06d", i)
	}
	return serve.RenderFASTA(names, seqs)
}

// serveProbe is an in-process job server on a loopback listener, driven
// over HTTP by an open-loop generator.
type serveProbe struct {
	shape      serveShape
	light, hog []*poolEntry
	srv        *serve.Server
	hs         *http.Server
	served     chan struct{} // closed when hs.Serve returns
	transport  *http.Transport
	client     *http.Client
	base       string
}

// setupServe builds the job pools and their reference outputs, starts the
// server and runs one warm-up job through it.
func setupServe(size string) (*serveProbe, error) {
	sh := serveShapes[size]
	w := &serveProbe{shape: sh}
	// A light job covers one small genome deeply enough to assemble it
	// whole, so every light job does about the same work.
	lightComm := sim.GenerateCommunity(sim.CommunityConfig{
		NumGenomes: 1, MeanGenomeLen: 1000, RRNALen: 100, RRNACopies: 1, Seed: communitySeed + 1,
	})
	hogComm := sim.GenerateCommunity(sim.CommunityConfig{
		NumGenomes: 2, MeanGenomeLen: 4000, LenVariation: 0.3, AbundanceSigma: 0.3, RRNALen: 100, RRNACopies: 1, Seed: communitySeed + 2,
	})
	// The read sets are a fixed pool; the seed draws the schedule. The
	// latencies then vary with the machine, not with the cost of the draw.
	pools := []struct {
		class    string
		comm     *sim.Community
		n, pairs int
		spec     serve.JobSpec
		dst      *[]*poolEntry
	}{
		{"light", lightComm, sh.lightPool, sh.lightPairs,
			serve.JobSpec{Priority: serve.PriorityInteractive, Workers: 1, Ranks: 4, RanksPerNode: 4, KMax: 21, MinContigLen: minContigLen}, &w.light},
		{"hog", hogComm, sh.hogPool, sh.hogPairs,
			serve.JobSpec{Priority: serve.PriorityBatch, Workers: 2, Ranks: 4, RanksPerNode: 4, MinContigLen: minContigLen}, &w.hog},
	}
	for pi, p := range pools {
		for i := 0; i < p.n; i++ {
			reads := sim.SimulateReads(p.comm, sim.ReadConfig{
				ReadLen: 100, InsertSize: 280, InsertStd: 25, ErrorRate: 0.01,
				TotalPairs: p.pairs, Seed: communitySeed + int64(100*pi+i),
			})
			e, err := newPoolEntry(p.class, p.comm, reads, p.spec)
			if err != nil {
				return nil, err
			}
			*p.dst = append(*p.dst, e)
		}
	}

	w.srv = serve.New(serve.Options{TotalWorkers: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.srv.Close()
		return nil, err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: w.srv}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	// At most two client connections to the server.
	w.transport = &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	w.client = &http.Client{Transport: w.transport, Timeout: jobTimeout}

	o := w.do("warmup", w.light[0], time.Now())
	if o.err == nil && o.wrong {
		o.err = errors.New("output differs from a direct core.Assemble of its reads")
	}
	if o.err != nil {
		w.close()
		return nil, fmt.Errorf("warm-up job: %w", o.err)
	}
	return w, nil
}

// close stops the HTTP listener and the job server and waits for both.
func (w *serveProbe) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.hs.Shutdown(ctx) // on timeout the listener is closed anyway
	<-w.served
	w.srv.Close()
	w.transport.CloseIdleConnections()
}

// arrival is one scheduled job of the open loop.
type arrival struct {
	at    time.Duration // due time after the start of the loop
	id    string
	entry *poolEntry
}

// schedule draws the open loop's arrivals from the seed: job i is due at a
// uniformly drawn time within the i-th slot of length 1/rate. The middle job
// of each block of hogEvery jobs is a hog. Light and hog jobs cycle through
// their pools from a drawn starting entry.
func schedule(seed int64, sh serveShape, seconds float64, light, hog []*poolEntry) []arrival {
	n := max(sh.minJobs, int(math.Ceil(sh.rate*seconds)))
	n = (n + sh.hogEvery - 1) / sh.hogEvery * sh.hogEvery
	rng := rand.New(rand.NewPCG(uint64(seed), 0x6d686d))
	out := make([]arrival, n)
	li, hi := rng.IntN(len(light)), rng.IntN(len(hog))
	for i := range out {
		a := arrival{
			at: time.Duration((float64(i) + rng.Float64()) / sh.rate * float64(time.Second)),
			id: fmt.Sprintf("bench-%06d", i),
		}
		if i%sh.hogEvery == sh.hogEvery/2 {
			a.entry = hog[hi%len(hog)]
			hi++
		} else {
			a.entry = light[li%len(light)]
			li++
		}
		out[i] = a
	}
	return out
}

// outcome is what the generator observed of one job.
type outcome struct {
	err     error
	refused bool    // 429 at submission
	wrong   bool    // done, but its FASTA or simulated time differs from the reference
	latency float64 // due time to FASTA fetched; +Inf unless the job completed
	submitS float64 // POST round trip, including spec decoding and inline read parsing
	fetchS  float64 // GET of the FASTA
	doneAt  time.Time
}

// do submits one job over HTTP, waits for it in-process and fetches its
// FASTA over HTTP.
func (w *serveProbe) do(id string, e *poolEntry, due time.Time) outcome {
	o := outcome{latency: math.Inf(1)}
	spec := e.spec
	spec.ID = id
	body, err := json.Marshal(spec)
	if err != nil {
		o.err = err
		return o
	}
	t := time.Now()
	resp, err := w.client.Post(w.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = fmt.Errorf("submitting %s: %w", id, err)
		return o
	}
	msg, _ := io.ReadAll(resp.Body) // only used in the error message
	resp.Body.Close()
	o.submitS = time.Since(t).Seconds()
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusTooManyRequests:
		o.refused = true
		o.err = fmt.Errorf("%s refused: %s", id, bytes.TrimSpace(msg))
		return o
	default:
		o.err = fmt.Errorf("submitting %s: %s: %s", id, resp.Status, bytes.TrimSpace(msg))
		return o
	}

	j, err := w.srv.Job(id)
	if err != nil {
		o.err = err
		return o
	}
	select {
	case <-j.Done():
	case <-time.After(jobTimeout):
		o.err = fmt.Errorf("%s not done after %v", id, jobTimeout)
		return o
	}
	if st := j.State(); st != serve.StateDone {
		o.err = fmt.Errorf("%s ended %s: %v", id, st, j.Err())
		return o
	}

	t = time.Now()
	resp, err = w.client.Get(w.base + "/v1/jobs/" + id + "/fasta")
	if err != nil {
		o.err = fmt.Errorf("fetching %s: %w", id, err)
		return o
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("fetching %s: %s %v", id, resp.Status, err)
		return o
	}
	o.doneAt = time.Now()
	o.fetchS = o.doneAt.Sub(t).Seconds()
	o.latency = o.doneAt.Sub(due).Seconds()
	o.wrong = !bytes.Equal(got, e.want) ||
		math.Float64bits(j.Result().SimSeconds) != math.Float64bits(e.ref.SimSeconds)
	return o
}

// loopStats is what one open loop measured, besides the per-job outcomes.
type loopStats struct {
	arr    []arrival
	outs   []outcome
	late   []float64
	start  time.Time
	queueS []float64 // light jobs, from the server's metrics
	runS   []float64 // all completed jobs, from the server's metrics
}

// openLoop sends the scheduled jobs on time, whatever the server's backlog,
// and waits for every one of them.
func (w *serveProbe) openLoop(seed int64, seconds float64) (*loopStats, error) {
	ls := &loopStats{arr: schedule(seed, w.shape, seconds, w.light, w.hog)}
	ls.outs = make([]outcome, len(ls.arr))
	ls.late = make([]float64, len(ls.arr))
	ls.start = time.Now()
	var wg sync.WaitGroup
	for i, a := range ls.arr {
		due := ls.start.Add(a.at)
		time.Sleep(time.Until(due))
		ls.late[i] = time.Since(due).Seconds()
		wg.Add(1)
		go func() {
			defer wg.Done()
			ls.outs[i] = w.do(a.id, a.entry, due)
		}()
	}
	wg.Wait()

	queue, run, err := w.serverTimes()
	if err != nil {
		return nil, err
	}
	for _, a := range ls.arr {
		if q, ok := queue[a.id]; ok && a.entry.class == "light" {
			ls.queueS = append(ls.queueS, q)
		}
		if r, ok := run[a.id]; ok {
			ls.runS = append(ls.runS, r)
		}
	}
	return ls, nil
}

// serverTimes reads the queue wait and run time of every completed job from
// the server's metrics CSV.
func (w *serveProbe) serverTimes() (queue, run map[string]float64, err error) {
	resp, err := w.client.Get(w.base + "/v1/metrics.csv")
	if err != nil {
		return nil, nil, fmt.Errorf("fetching metrics: %w", err)
	}
	defer resp.Body.Close()
	rows, err := csv.NewReader(resp.Body).ReadAll()
	if err != nil || len(rows) == 0 {
		return nil, nil, fmt.Errorf("parsing metrics CSV: %v", err)
	}
	col := make(map[string]int)
	for i, name := range rows[0] {
		col[name] = i
	}
	queue, run = make(map[string]float64), make(map[string]float64)
	for _, row := range rows[1:] {
		if row[col["state"]] != serve.StateDone {
			continue
		}
		q, err1 := strconv.ParseFloat(row[col["queue_ms"]], 64)
		r, err2 := strconv.ParseFloat(row[col["run_ms"]], 64)
		if err := errors.Join(err1, err2); err != nil {
			return nil, nil, fmt.Errorf("parsing metrics CSV: %w", err)
		}
		queue[row[col["id"]]] = q / 1e3
		run[row[col["id"]]] = r / 1e3
	}
	return queue, run, nil
}

// layers runs the open loop and writes the serve.* per-layer metrics.
func (w *serveProbe) layers(seed int64, seconds float64, vals map[string]float64, out *report) error {
	ls, err := w.openLoop(seed, seconds)
	if err != nil {
		return err
	}
	var submit, fetch, lightLat, hogLat []float64
	refused, completed := 0, 0
	lastDone := ls.start
	for i, o := range ls.outs {
		e := ls.arr[i].entry
		if e.class == "hog" {
			hogLat = append(hogLat, o.latency)
		} else {
			lightLat = append(lightLat, o.latency)
		}
		switch {
		case o.err != nil:
			if o.refused {
				refused++
			}
			out.failed++
			out.printf("job failed: %v", o.err)
		case o.wrong:
			out.fail("%s %s job output differs from a direct core.Assemble of its reads", ls.arr[i].id, e.class)
		default:
			completed++
			submit = append(submit, o.submitS)
			fetch = append(fetch, o.fetchS)
			if o.doneAt.After(lastDone) {
				lastDone = o.doneAt
			}
		}
	}
	out.attempted += len(ls.arr)
	if completed == 0 {
		return fmt.Errorf("serve: no job completed")
	}
	vals["serve.light_latency_p50_s"] = median(lightLat)
	p90, p := tail(lightLat)
	vals["serve.light_latency_p90_s"] = p90
	vals["serve.hog_latency_p50_s"] = median(hogLat)
	vals["serve.jobs_per_s"] = float64(completed) / lastDone.Sub(ls.start).Seconds()
	vals["serve.queue_wait_p50_s"] = median(ls.queueS)
	vals["serve.queue_wait_p90_s"], _ = percentile(ls.queueS, 0.9)
	vals["serve.run_p50_s"] = median(ls.runS)
	vals["serve.submit_p50_s"] = median(submit)
	vals["serve.fetch_p50_s"] = median(fetch)
	vals["serve.refused"] = float64(refused)
	vals["serve.generator_late_p90_s"], _ = percentile(ls.late, 0.9)
	out.printf("serve: %d jobs (%d light) over %.2f s, light latency p50 %.3f s, p%.0f %.3f s",
		len(ls.arr), len(lightLat), lastDone.Sub(ls.start).Seconds(), vals["serve.light_latency_p50_s"], 100*p, p90)
	return nil
}

// serveLayers sets up the job server, runs its open loop for the serve.*
// per-layer metrics and stops the server.
func serveLayers(o options, vals map[string]float64, out *report) error {
	w, err := setupServe(o.size)
	if err != nil {
		return err
	}
	defer w.close()
	return w.layers(o.seed, o.seconds, vals, out)
}
