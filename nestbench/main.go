// Command nestbench is the repository's benchmark. It starts an in-process
// fleet on loopback (one nestctl controller with a WAL state dir, two
// nestserved workers with one-job pools sharing a checkpoint dir), drives
// one workload through the real HTTP API from a single load generator,
// checks every job against an uninterrupted in-process reference run, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with -trace 1 the run submits traced jobs and reports the per-layer
// metrics instead. Run it through run.sh from the
// repository root:
//
//	bash nestbench/run.sh --workload track --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"nestdiff/internal/service"
)

// setupBurst is how many fleets a run starts and stops in each of three
// bursts: before the deterministic section, after it and after the
// window. setup_s is the median over the bursts and the start of the fleet
// the run drives, so it spans the run instead of one moment of the host's
// disk and CPU.
const setupBurst = 17

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the final line of a run.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Options are one run's settings.
type Options struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    int
	Root     string // scratch directory for fleet state
	Out      io.Writer
}

func main() {
	var o Options
	flag.StringVar(&o.Workload, "workload", "", "workload name (track, distributed, read-mix, lifecycle)")
	flag.Int64Var(&o.Seed, "seed", 1, "workload seed")
	flag.IntVar(&o.Seconds, "seconds", 20, "measured window in seconds")
	flag.IntVar(&o.Trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.Root, "root", ".bench_build", "directory for the fleet's state and checkpoint dirs")
	flag.Parse()
	o.Out = os.Stdout
	res, err := bench(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nestbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nestbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// bench runs one workload and returns its result. Human-readable lines go
// to o.Out as it goes.
func bench(o Options) (*Result, error) {
	wl, err := findWorkload(o.Workload)
	if err != nil {
		return nil, err
	}
	if o.Seconds < 1 || (o.Trace != 0 && o.Trace != 1) {
		return nil, errors.New("need -seconds >= 1 and -trace 0 or 1")
	}
	host := hostFingerprint(wl.Name, o.Seed, o.Seconds, o.Trace)
	hb, _ := json.Marshal(host)
	fmt.Fprintf(o.Out, "host %s\n", hb)
	if err := os.MkdirAll(o.Root, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(o.Root, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	list := wl.jobList()
	t0 := time.Now()
	refs, err := references(list, runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(o.Out, "oracle: %d reference runs in %.2fs\n", len(refs), time.Since(t0).Seconds())

	setups, err := timeSetups(root, wl.tileCache(), setupBurst)
	if err != nil {
		return nil, err
	}
	fl, s, err := timedStart(root, wl.tileCache())
	if err != nil {
		return nil, err
	}
	defer fl.Stop()
	setups = append(setups, s)
	spans := newSpans()
	cl := newClient(spans)
	defer cl.Close()
	r := &Run{wl: wl, seed: o.Seed, fleet: fl, cl: cl, spans: spans, list: list, refs: refs, out: o.Out,
		seq: newSequence(o.Seed, len(list))}

	t0 = time.Now()
	det, err := r.deterministic()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(o.Out, "deterministic section: %d jobs in %.2fs\n", det.Jobs, time.Since(t0).Seconds())
	more, err := timeSetups(root, wl.tileCache(), setupBurst)
	if err != nil {
		return nil, err
	}
	setups = append(setups, more...)
	t0 = time.Now()
	w, err := r.window(time.Duration(o.Seconds)*time.Second, o.Trace == 1)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(o.Out, "window: %d jobs, %d reads, ended %.2fs after start\n", len(w.Jobs), len(w.Reads), time.Since(t0).Seconds())
	w.printReads(o.Out)
	if more, err = timeSetups(root, wl.tileCache(), setupBurst); err != nil {
		return nil, err
	}
	setups = append(setups, more...)
	fmt.Fprintf(o.Out, "set-up: %d fleet starts, median %.6fs\n", len(setups), median(setups))
	var perLayer map[string]Metric
	if o.Trace == 1 {
		// Before the oracle pass, so the probes' jobs are verified too.
		if perLayer, err = r.layers(w, det); err != nil {
			return nil, err
		}
	}
	t0 = time.Now()
	r.verifyJobs(refs)
	fmt.Fprintf(o.Out, "oracle: %d jobs verified in %.2fs\n", len(r.jobs), time.Since(t0).Seconds())

	m := map[string]Metric{}
	put := func(name, unit string, v float64) { m[name] = Metric{Value: v, Unit: unit} }
	put("setup_s", "s", median(setups))
	put("error_rate", "ratio", r.errorRate())
	det.put(put)
	w.put(put, wl)
	put("vclock_redist_s", "s", r.meanRedistTime())

	res := &Result{Attempted: r.ops, Failed: r.failed}
	res.Correct = r.failed == 0
	fmt.Fprintf(o.Out, "error_rate %.6g ratio (%d failed of %d attempted)\n", r.errorRate(), r.failed, r.ops)
	for _, f := range r.failures {
		fmt.Fprintf(o.Out, "  failed: %s\n", f)
		fmt.Fprintf(os.Stderr, "nestbench: failed: %s\n", f)
	}
	r.printFleetEvents()
	det.print(o.Out)
	printMetrics(o.Out, "end-to-end", m)
	if o.Trace == 1 {
		spans.print(o.Out)
		printMetrics(o.Out, "per-layer", perLayer)
		res.Metrics = perLayer
	} else {
		res.Metrics = pick(m, wl.reported())
	}
	return res, nil
}

// fleetEvents are the controller and worker counters of events a healthy
// run never has: worker deaths, adoptions, migrations, fences, retries.
// printFleetEvents prints them, to stderr as well when any is non-zero,
// so a failed run says what the fleet did.
var fleetEvents = []string{
	"nestctl_fleet_workers_dead_total", "nestctl_fleet_adoptions_total", "nestctl_fleet_migrations_total",
	"nestctl_fleet_fences_issued_total", "nestctl_fleet_placement_failures_total", "nestctl_fleet_proxy_errors_total",
	"nestctl_fleet_wal_failures_total", "nestserved_jobs_failed_total", "nestserved_job_retries_total",
	"nestserved_worker_panics_total", "nestserved_checkpoint_failures_total", "nestserved_jobs_fenced_total",
	"nestserved_queue_full_rejections_total",
}

func (r *Run) printFleetEvents() {
	m, err := r.cl.scrapeWorkers(r.fleet)
	if err == nil {
		var ctl map[string]float64
		if ctl, err = r.cl.scrape(r.fleet.URL); err == nil {
			for k, v := range ctl {
				m[k] = v
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "nestbench: fleet events: %v\n", err)
		return
	}
	line, nonzero := "fleet events:", false
	for _, k := range fleetEvents {
		line += fmt.Sprintf(" %s=%.0f", k, m[k])
		nonzero = nonzero || m[k] != 0
	}
	fmt.Fprintln(r.out, line)
	if nonzero {
		fmt.Fprintln(os.Stderr, "nestbench: "+line)
	}
}

// reported is the end-to-end metric set a workload prints on its result
// line: the BENCHMARK.json set for the driver's workloads, plus the
// control-plane figures, the error rate and the modelled redistribution
// time on lifecycle. Every metric is printed on the lines above the result.
func (w Workload) reported() []string {
	names := []string{"setup_s", "jobs_per_s", "steps_per_s", "job_latency_p50_s", "job_latency_p90_s",
		"read_latency_p50_ms", "ckpt_bytes_per_step", "peak_rss_mb"}
	if w.Control {
		names = append(names, "control_latency_p50_ms", "control_latency_p90_ms", "error_rate", "vclock_redist_s")
	}
	return names
}

func pick(m map[string]Metric, names []string) map[string]Metric {
	out := map[string]Metric{}
	for _, n := range names {
		if v, ok := m[n]; ok {
			out[n] = v
		}
	}
	return out
}

func printMetrics(w io.Writer, title string, m map[string]Metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s metrics:\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// Deterministic is the section computed over the workload's fixed job
// list, run once through the fleet before the window: every figure repeats
// exactly between runs of one seed.
type Deterministic struct {
	Jobs          int
	Steps         float64
	CkptBytes     float64 // fleet /metrics delta
	CkptFull      float64
	CkptDelta     float64
	RedistBytes   float64
	RedistTime    float64 // mean per job, modelled (snapshot redist_time)
	ExecRedist    float64 // mean per job, executed Alltoallv virtual time
	RefFull       int     // reference-run checkpoint blobs
	RefDelta      int
	RefFullBytes  int64
	RefDeltaBytes int64
	// PeakRSSMB is the process's peak resident memory while the fixed job
	// list runs. Fixed work, not the window: the fleet keeps every
	// finished job, so memory over a timed window grows with the number
	// of jobs it completes, and a faster run would read as a bigger one.
	PeakRSSMB float64
}

// deterministic runs the fixed job list once, all jobs submitted at once,
// and takes the fleet's counter deltas over it. It doubles as the warm-up
// and, on read-mix, as the set of finished read targets.
func (r *Run) deterministic() (*Deterministic, error) {
	before, err := r.cl.scrapeWorkers(r.fleet)
	if err != nil {
		return nil, err
	}
	// Memory the reference runs left behind goes back to the OS first, so
	// the peak is the fleet's.
	debug.FreeOSMemory()
	stopRSS := peakRSS()
	defer stopRSS()
	var jobs []*Job
	for i := range r.list {
		j, err := r.submit(i, false)
		if err != nil {
			return nil, fmt.Errorf("deterministic section: %w", err)
		}
		jobs = append(jobs, j)
	}
	d := &Deterministic{Jobs: len(jobs)}
	for _, j := range jobs {
		snap, at, err := r.await(j, isDone)
		if err != nil {
			return nil, fmt.Errorf("deterministic section: %w", err)
		}
		j.Snap, j.Done = snap, at
		d.RedistTime += snap.RedistTime / float64(len(jobs))
		d.ExecRedist += snap.ExecutedRedistTime / float64(len(jobs))
	}
	d.PeakRSSMB = stopRSS()
	after, err := r.cl.scrapeWorkers(r.fleet)
	if err != nil {
		return nil, err
	}
	delta := func(k string) float64 { return after[k] - before[k] }
	d.Steps = delta("nestserved_steps_executed_total")
	d.CkptBytes = delta("nestserved_checkpoint_bytes_total")
	d.CkptFull = delta("nestserved_full_checkpoints_total")
	d.CkptDelta = delta("nestserved_delta_checkpoints_total")
	d.RedistBytes = delta("nestserved_redist_bytes_moved_total")
	for _, ref := range r.refs {
		d.RefFull += ref.CkptFull
		d.RefDelta += ref.CkptDelta
		d.RefFullBytes += ref.CkptFullBytes
		d.RefDeltaBytes += ref.CkptDeltaBytes
	}
	return d, nil
}

func (d *Deterministic) put(put func(string, string, float64)) {
	perStep := 0.0
	if d.Steps > 0 {
		perStep = d.CkptBytes / d.Steps
	}
	put("ckpt_bytes_per_step", "B", perStep)
	put("peak_rss_mb", "MB", d.PeakRSSMB)
}

func (d *Deterministic) print(w io.Writer) {
	fmt.Fprintf(w, "deterministic section (%d jobs, %.0f steps): checkpoint %.0f B in %.0f full + %.0f delta blobs (reference writer: %d full %d B, %d delta %d B); redist %.0f B moved; redist_time %.17g s/job; executed redist %.17g s/job\n",
		d.Jobs, d.Steps, d.CkptBytes, d.CkptFull, d.CkptDelta, d.RefFull, d.RefFullBytes, d.RefDelta, d.RefDeltaBytes,
		d.RedistBytes, d.RedistTime, d.ExecRedist)
}

// sample is one scrape of the workers' counters.
type sample struct {
	at time.Time
	m  map[string]float64
}

// Window is what the measured window saw.
type Window struct {
	StepRate      float64 // median of the per-second fleet step rates
	Jobs          []*Job  // submitted in the window
	JobRate       float64 // jobs reaching done per second
	Reads         []readSample
	Control       []time.Duration
	Before, After map[string]float64 // worker counters at the window's start and end
}

// window runs the workload's measured window. With traced, every job it
// submits is traced.
func (r *Run) window(d time.Duration, traced bool) (*Window, error) {
	first := len(r.jobs)
	w := &Window{}
	s0, err := r.cl.scrapeWorkers(r.fleet)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(d)
	tracedNow := func() bool { return traced }
	// Worker counters once a second, sampled on schedule while the clients
	// run: the step rate is the median of the per-second rates, so a few
	// seconds in which the host runs something else do not move it.
	n := int(d / time.Second)
	sampled := make(chan []sample, 1)
	go func() {
		out := []sample{{start, s0}}
		for k := 1; k <= n; k++ {
			at := start.Add(time.Duration(k) * time.Second)
			time.Sleep(time.Until(at))
			m, err := r.cl.scrapeWorkers(r.fleet)
			if err != nil {
				break
			}
			out = append(out, sample{time.Now(), m})
		}
		sampled <- out
	}()

	var readsMu sync.Mutex
	addReads := func(s []readSample) {
		readsMu.Lock()
		w.Reads = append(w.Reads, s...)
		readsMu.Unlock()
	}
	var wg sync.WaitGroup
	switch {
	case r.wl.Control:
		for c := 0; c < r.wl.Clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					r.lifecycle(r.nextCfg(), tracedNow())
				}
			}()
		}
		wg.Wait()
	case r.wl.ReadRate > 0:
		r.mu.Lock()
		r.running = map[string]*Job{}
		r.mu.Unlock()
		var targets []readTarget
		for _, j := range r.jobs[:first] {
			targets = append(targets, readTarget{id: j.ID, nests: j.Snap.ActiveNests.IDs()})
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.closedLoop(r.wl.Clients, deadline, tracedNow, nil)
		}()
		addReads(r.readMix(targets, start, deadline))
		wg.Wait()
	default:
		r.closedLoop(r.wl.Clients, deadline, tracedNow, func(j *Job) { addReads(r.fetchResult(j)) })
	}
	samples := <-sampled
	if len(samples) != n+1 {
		return nil, errors.New("window: /metrics scrape failed")
	}
	r.mu.Lock()
	w.Jobs = append(w.Jobs, r.jobs[first:]...)
	w.Control = append(w.Control, r.control...)
	r.mu.Unlock()
	var rates []float64
	for k := 1; k <= n; k++ {
		a, b := samples[k-1], samples[k]
		steps := b.m["nestserved_steps_executed_total"] - a.m["nestserved_steps_executed_total"]
		rates = append(rates, steps/b.at.Sub(a.at).Seconds())
	}
	w.StepRate = median(rates)
	w.Before, w.After = s0, samples[n].m
	// Completions per second between the window's first and last
	// completion: the closed loops complete jobs in near-lockstep, so a
	// count over the whole window would move in steps of one job.
	var done []time.Time
	for _, j := range w.Jobs {
		if j.Snap.State == service.StateDone && !j.Done.After(deadline) {
			done = append(done, j.Done)
		}
	}
	sort.Slice(done, func(a, b int) bool { return done[a].Before(done[b]) })
	if len(done) >= 2 {
		w.JobRate = float64(len(done)-1) / done[len(done)-1].Sub(done[0]).Seconds()
	}
	return w, nil
}

// printReads prints the field-read latencies of running and of finished
// targets apart: a read of a running job waits for a step boundary, one of
// a finished job does not, so the two form separate modes.
func (w *Window) printReads(out io.Writer) {
	var running, finished []float64
	for _, s := range w.Reads {
		switch {
		case s.status:
		case s.running:
			running = append(running, float64(s.latency)/float64(time.Millisecond))
		default:
			finished = append(finished, float64(s.latency)/float64(time.Millisecond))
		}
	}
	for _, g := range []struct {
		name string
		xs   []float64
	}{{"running", running}, {"finished", finished}} {
		fmt.Fprintf(out, "  %s-target reads: %d, p10 %.4g ms, p50 %.4g ms, p90 %.4g ms\n",
			g.name, len(g.xs), quantile(g.xs, 0.1), quantile(g.xs, 0.5), quantile(g.xs, 0.9))
	}
}

func (w *Window) put(put func(string, string, float64), wl Workload) {
	put("jobs_per_s", "1/s", w.JobRate)
	put("steps_per_s", "1/s", w.StepRate)
	var lat []float64
	for _, j := range w.Jobs {
		if j.Snap.State == service.StateDone {
			lat = append(lat, j.Latency().Seconds())
		}
	}
	put("job_latency_p50_s", "s", quantile(lat, 0.5))
	put("job_latency_p90_s", "s", quantile(lat, 0.9))
	var reads []float64
	for _, s := range w.Reads {
		if !s.status {
			reads = append(reads, float64(s.latency)/float64(time.Millisecond))
		}
	}
	put("read_latency_p50_ms", "ms", quantile(reads, 0.5))
	put("read_latency_p95_ms", "ms", quantile(reads, 0.95))
	put("read_latency_p99_ms", "ms", quantile(reads, 0.99))
	if wl.Control {
		c := ms(w.Control)
		put("control_latency_p50_ms", "ms", quantile(c, 0.5))
		put("control_latency_p90_ms", "ms", quantile(c, 0.9))
	}
}
