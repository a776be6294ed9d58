package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"nestdiff/internal/core"
	"nestdiff/internal/elastic"
	"nestdiff/internal/geom"
	"nestdiff/internal/mpi"
	"nestdiff/internal/obs"
	"nestdiff/internal/serve"
	"nestdiff/internal/service"
)

// closureBound is the largest share of traced jobs' summed wall time the
// per-layer self-times may leave unexplained.
const closureBound = 0.10

// perLayer is the per-layer metric set, in BENCHMARK.json order.
var perLayer = []struct{ name, unit string }{
	{"fleet.proxy_ms_p50", "ms"},
	{"fleet.submit_ms_p50", "ms"},
	{"fleet.placement_skew", "ratio"},
	{"service.queue_wait_s_p50", "s"},
	{"service.queue_wait_s_p90", "s"},
	{"service.step_ms_p50", "ms"},
	{"service.step_ms_p99", "ms"},
	{"service.status_ms_p50", "ms"},
	{"core.pda_ms", "ms"},
	{"core.realloc_ms", "ms"},
	{"core.reconcile_ms", "ms"},
	{"core.redist_exec_ms_p50", "ms"},
	{"core.ckpt_ms", "ms"},
	{"core.ckpt_full_bytes", "B"},
	{"core.ckpt_delta_bytes", "B"},
	{"core.ckpt_delta_share", "ratio"},
	{"core.ckpt_full_count", "count"},
	{"core.ckpt_delta_count", "count"},
	{"core.redist_bytes_per_job", "B"},
	{"core.restore_ms_p50", "ms"},
	{"core.replay_steps", "count"},
	{"core.restore_failures", "count"},
	{"wrfsim.model_ms", "ms"},
	{"wrfsim.nests_ms", "ms"},
	{"wrfsim.nest_step_ms_p50", "ms"},
	{"wrfsim.cell_updates_per_s", "1/s"},
	{"mpi.run_us", "us"},
	{"serve.read_cold_ms_p50", "ms"},
	{"serve.read_warm_ms_p50", "ms"},
	{"serve.snapshot_wait_ms_p50", "ms"},
	{"serve.tile_cache_hit_ratio", "ratio"},
	{"serve.tile_cache_evictions", "count"},
	{"serve.bytes_per_read", "B"},
	{"serve.tile_encode_us", "us"},
	{"elastic.resize_ms_p50", "ms"},
	{"obs.trace_overhead_pct", "%"},
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.closure_gap_pct", "%"},
}

// tracedJob is what the public surfaces report about one traced job.
type tracedJob struct {
	job      *Job
	tl       service.Timeline
	attempts int
	attStart time.Time // start of the last run attempt
	attEnd   time.Time
}

// layers computes the per-layer metrics of a traced run from the
// benchmark's own spans, /metrics deltas over the window, the
// timelines and trace tails of the traced jobs, and direct calls into
// layer public functions.
func (r *Run) layers(w *Window, det *Deterministic) (map[string]Metric, error) {
	v := map[string]float64{}
	traced, err := r.tracedJobs(w)
	if err != nil {
		return nil, err
	}

	// Timeline phases, summed over the traced jobs.
	phases := map[string]*phaseAgg{}
	var stepP50, stepP99, nestP50, redistP50, queue []float64
	for _, t := range traced {
		for _, p := range t.tl.Phases {
			a := phases[p.Name]
			if a == nil {
				a = &phaseAgg{}
				phases[p.Name] = a
			}
			a.ns += p.TotalNS
			a.n += p.Count
		}
		if s := t.tl.StepLatency; s != nil {
			stepP50 = append(stepP50, nsToMS(s.P50NS))
			stepP99 = append(stepP99, nsToMS(s.P99NS))
		}
		if s := t.tl.NestStep; s != nil {
			nestP50 = append(nestP50, nsToMS(s.P50NS))
		}
		if s := t.tl.Redist; s != nil {
			redistP50 = append(redistP50, nsToMS(s.P50NS))
		}
		if t.attempts == 1 && t.job.Snap.State == service.StateDone {
			queue = append(queue, (t.job.Latency() - time.Duration(t.tl.TotalNS)).Seconds())
		}
	}
	perCall := func(name string) float64 {
		if a := phases[name]; a != nil && a.n > 0 {
			return nsToMS(a.ns / a.n)
		}
		return 0
	}
	v["core.pda_ms"] = perCall("pda")
	v["core.realloc_ms"] = perCall("realloc")
	v["core.reconcile_ms"] = perCall("reconcile")
	v["core.ckpt_ms"] = perCall("checkpoint")
	v["wrfsim.model_ms"] = perCall("model")
	v["wrfsim.nests_ms"] = perCall("nests")
	if m := perCall("model"); m > 0 {
		// Computed, not counted: one update per parent cell per model step.
		v["wrfsim.cell_updates_per_s"] = domainNX * domainNY / (m / 1e3)
	}
	// The timeline's quantiles are histogram buckets; their mean over jobs
	// moves with the job mix where a median would stick to one bucket.
	v["service.step_ms_p50"] = mean(stepP50)
	v["service.step_ms_p99"] = mean(stepP99)
	v["wrfsim.nest_step_ms_p50"] = mean(nestP50)
	if len(redistP50) > 0 {
		v["core.redist_exec_ms_p50"] = mean(redistP50)
	} else if v["core.redist_exec_ms_p50"], err = r.redistProbe(); err != nil {
		return nil, err
	}
	v["service.queue_wait_s_p50"] = quantile(queue, 0.5)
	v["service.queue_wait_s_p90"] = quantile(queue, 0.9)

	gap, decomposition := closure(traced)
	v["loadgen.closure_gap_pct"] = 100 * gap
	fmt.Fprintf(r.out, "traced run: %d traced jobs; per-layer self-time shares of their summed wall time:\n%s", len(traced), decomposition)
	if gap > closureBound {
		r.fail("closure", fmt.Errorf("per-layer self-times leave %.1f%% of traced wall time unexplained (bound %.0f%%)", 100*gap, 100*closureBound))
	}

	// Spans the generator recorded.
	v["fleet.submit_ms_p50"] = median(ms(r.spans.durations("http.submit")))
	v["service.status_ms_p50"] = median(ms(r.spans.durations("http.status")))
	skew, err := r.placementSkew(w)
	if err != nil {
		return nil, err
	}
	v["fleet.placement_skew"] = skew

	// Counters over the window.
	d := func(k string) float64 { return w.After[k] - w.Before[k] }
	hits, misses := d("nestserved_tile_cache_hits_total"), d("nestserved_tile_cache_misses_total")
	if hits+misses > 0 {
		v["serve.tile_cache_hit_ratio"] = hits / (hits + misses)
	}
	v["serve.tile_cache_evictions"] = d("nestserved_tile_cache_evictions_total")

	// Read traffic of the window.
	var running, finished, late, bytesRead []float64
	for _, s := range w.Reads {
		if s.status {
			continue
		}
		if s.running {
			running = append(running, float64(s.latency)/1e6)
		} else {
			finished = append(finished, float64(s.latency)/1e6)
		}
		late = append(late, float64(s.late)/1e6)
		bytesRead = append(bytesRead, float64(s.bytes))
	}
	if len(running) > 0 {
		v["serve.snapshot_wait_ms_p50"] = median(running) - median(finished)
	} else if v["serve.snapshot_wait_ms_p50"], err = r.snapshotWaitProbe(); err != nil {
		return nil, err
	}
	if r.wl.ReadRate == 0 {
		late = ms(r.spans.durations("loadgen.next_submit"))
	}
	v["loadgen.late_ms_p99"] = quantile(late, 0.99)
	v["serve.bytes_per_read"] = mean(bytesRead)
	if v["obs.trace_overhead_pct"], err = r.traceOverheadProbe(); err != nil {
		return nil, err
	}

	// Deterministic section.
	v["core.redist_bytes_per_job"] = det.RedistBytes / float64(det.Jobs)
	v["core.ckpt_full_count"] = det.CkptFull
	v["core.ckpt_delta_count"] = det.CkptDelta
	if det.RefFull > 0 {
		v["core.ckpt_full_bytes"] = float64(det.RefFullBytes) / float64(det.RefFull)
	}
	if det.RefDelta > 0 {
		v["core.ckpt_delta_bytes"] = float64(det.RefDeltaBytes) / float64(det.RefDelta)
	}
	if n := det.RefFull + det.RefDelta; n > 0 {
		v["core.ckpt_delta_share"] = float64(det.RefDelta) / float64(n)
	}

	if err := r.probes(w, v); err != nil {
		return nil, err
	}
	out := map[string]Metric{}
	for _, m := range perLayer {
		out[m.name] = Metric{Value: v[m.name], Unit: m.unit}
	}
	return out, nil
}

// phaseAgg sums one timeline phase over jobs.
type phaseAgg struct{ ns, n int64 }

func nsToMS(ns int64) float64 { return float64(ns) / 1e6 }

// tracedJobs fetches the timeline and trace tail of every traced job that
// ended, done or failed.
func (r *Run) tracedJobs(w *Window) ([]tracedJob, error) {
	var out []tracedJob
	for _, j := range w.Jobs {
		if !j.Traced || !j.Snap.State.Terminal() {
			continue
		}
		t := tracedJob{job: j}
		rep, err := r.cl.get("http.timeline", r.fleet.URL+"/jobs/"+j.ID+"/timeline")
		if err == nil && !rep.OK() {
			err = rep.err("timeline " + j.ID)
		}
		if err == nil {
			err = rep.decode(&t.tl)
		}
		if err != nil {
			return nil, err
		}
		var tr service.Trace
		rep, err = r.cl.get("http.trace", r.fleet.URL+"/jobs/"+j.ID+"/trace")
		if err == nil && !rep.OK() {
			err = rep.err("trace " + j.ID)
		}
		if err == nil {
			err = rep.decode(&tr)
		}
		if err != nil {
			return nil, err
		}
		for _, e := range tr.Events {
			if e.Kind == obs.KindJob && e.Phase == "attempt" {
				t.attEnd = e.T
				t.attStart = e.T.Add(-time.Duration(e.DurNS))
			}
		}
		for _, p := range t.tl.Phases {
			if p.Name == "build" {
				t.attempts = int(p.Count)
			}
		}
		out = append(out, t)
	}
	return out, nil
}

// closure attributes each finished single-attempt traced job's wall time (POST sent
// to done seen) to non-overlapping layer spans — the submit call, the wait
// in the worker queue, each pipeline phase, the attempt time no phase
// covers, and the poll that saw the job done — and returns the share of
// the summed wall time those spans leave unexplained, with a printable
// decomposition.
func closure(traced []tracedJob) (float64, string) {
	self := map[string]float64{}
	var order []string
	add := func(layer string, s float64) {
		if _, ok := self[layer]; !ok {
			order = append(order, layer)
		}
		self[layer] += s
	}
	var wall, unexplained float64
	jobs := 0
	for _, t := range traced {
		if t.attempts != 1 || t.attEnd.IsZero() || t.job.Snap.State != service.StateDone {
			continue
		}
		j := t.job
		jobs++
		w := j.Latency().Seconds()
		sum := 0.0
		span := func(layer string, s float64) {
			add(layer, s)
			sum += s
		}
		span("fleet.submit", j.Reply.Sub(j.Send).Seconds())
		span("service.queue", max(0, t.attStart.Sub(j.Reply).Seconds()))
		for _, p := range t.tl.Phases {
			span("phase."+p.Name, float64(p.TotalNS)/1e9)
		}
		span("loadgen.poll", max(0, j.Done.Sub(t.attEnd).Seconds()))
		wall += w
		unexplained += math.Abs(w - sum)
	}
	if wall == 0 {
		return 0, "  (no single-attempt traced job finished)\n"
	}
	var b strings.Builder
	for _, layer := range order {
		fmt.Fprintf(&b, "  %-22s %6.2f%%\n", layer, 100*self[layer]/wall)
	}
	fmt.Fprintf(&b, "  %-22s %6.2f%% (closure gap over %d jobs, bound %.0f%%)\n", "unexplained", 100*unexplained/wall, jobs, 100*closureBound)
	return unexplained / wall, b.String()
}

// traceOverheadProbe runs the first job config in process, alternately
// without and with an obs tracer attached, three times each, and returns
// how much slower the traced runs step, in percent of the untraced step
// rate (medians).
func (r *Run) traceOverheadProbe() (float64, error) {
	cfg := r.list[0]
	var secs [2][]float64
	for i := 0; i < 6; i++ {
		pipe, sched, err := buildPipeline(cfg)
		if err != nil {
			return 0, err
		}
		traced := i%2 == 1
		if traced {
			pipe.SetTracer(obs.New(obs.Options{}))
		}
		name := map[bool]string{false: "core.Pipeline.untraced", true: "core.Pipeline.traced"}[traced]
		d, err := r.spans.time(name, func() error { return stepTo(pipe, sched, cfg.Steps) })
		if err != nil {
			return 0, err
		}
		k := 0
		if traced {
			k = 1
		}
		secs[k] = append(secs[k], d.Seconds())
	}
	untraced, traced := median(secs[0]), median(secs[1])
	return 100 * (traced - untraced) / traced, nil
}

// redistProbe runs the first job config with distributed nests for 60
// steps in process, traced, and returns the median latency of its executed
// redistributions: on serial workloads no job executes one.
func (r *Run) redistProbe() (float64, error) {
	cfg := r.list[0]
	cfg.Distributed = true
	pipe, sched, err := buildPipeline(cfg)
	if err != nil {
		return 0, err
	}
	tr := obs.New(obs.Options{})
	pipe.SetTracer(tr)
	if err := stepTo(pipe, sched, 60); err != nil {
		return 0, err
	}
	events, _ := tr.Events()
	var lat []float64
	for _, e := range events {
		if e.Kind == obs.KindRedist {
			lat = append(lat, nsToMS(e.DurNS))
		}
	}
	if len(lat) == 0 {
		return 0, errors.New("redistribution probe: no executed redistribution in 60 steps")
	}
	return median(lat), nil
}

// snapshotWaitProbe reads a job of the list while it runs and again once
// it is done, and returns the difference of the median read latencies: the
// wait for a step boundary plus the cold encode, on workloads whose own
// traffic never reads a running job. Reads are 0–10 ms apart.
func (r *Run) snapshotWaitProbe() (float64, error) {
	j, err := r.submit(0, false)
	if err != nil {
		return 0, err
	}
	// Reads arrive at random points of a step, as the read mix's do.
	rng := rand.New(rand.NewSource(r.seed))
	var running, finished []float64
	for len(finished) < 10 {
		time.Sleep(time.Duration(rng.Intn(10_000)) * time.Microsecond)
		rep, err := r.cl.get("http.probe.field", r.fleet.URL+"/jobs/"+j.ID+"/field?var=qcloud")
		if err == nil && !rep.OK() {
			err = rep.err("probe read")
		}
		if err != nil {
			return 0, err
		}
		fr, err := serve.DecodeResponse(rep.Body)
		if err != nil {
			return 0, err
		}
		if fr.Step < r.list[0].Steps {
			running = append(running, float64(rep.Elapsed())/1e6)
		} else {
			finished = append(finished, float64(rep.Elapsed())/1e6)
		}
	}
	snap, at, err := r.await(j, isDone)
	j.Snap, j.Done = snap, at
	if err != nil {
		return 0, err
	}
	return median(running) - median(finished), nil
}

// placementSkew is max/min window jobs per worker from nestctl's placement
// table.
func (r *Run) placementSkew(w *Window) (float64, error) {
	rep, err := r.cl.get("http.placements", r.fleet.URL+"/jobs")
	if err == nil && !rep.OK() {
		err = rep.err("placements")
	}
	var table []struct {
		ID     string `json:"id"`
		Worker string `json:"worker"`
	}
	if err == nil {
		err = rep.decode(&table)
	}
	if err != nil {
		return 0, err
	}
	inWindow := map[string]bool{}
	for _, j := range w.Jobs {
		inWindow[j.ID] = true
	}
	per := map[string]float64{}
	for i := range r.fleet.Workers {
		per[fmt.Sprintf("w%d", i+1)] = 0
	}
	for _, p := range table {
		if inWindow[p.ID] {
			per[p.Worker]++
		}
	}
	lo, hi := -1.0, 0.0
	for _, n := range per {
		if lo < 0 || n < lo {
			lo = n
		}
		hi = max(hi, n)
	}
	return hi / max(lo, 1), nil
}

// probes makes the direct calls: the same GET via nestctl and direct to
// the owning worker, cold and warm reads, serve.EncodeTile,
// core.RestorePipeline on exported chains, elastic.Resize and an empty
// mpi.World.Run.
func (r *Run) probes(w *Window, v map[string]float64) error {
	var done []*Job
	for _, j := range w.Jobs {
		if j.Snap.State == service.StateDone {
			done = append(done, j)
		}
	}
	if len(done) > 20 {
		done = done[:20]
	}

	// Proxy cost: the same status GET via nestctl and direct to the owner.
	var via, direct, cold, warm []float64
	for i, j := range done {
		url, ok := r.fleet.workerURL(j.Worker)
		if !ok {
			return fmt.Errorf("probe: job %s has no owner header", j.ID)
		}
		bases := []string{r.fleet.URL, url}
		if i%2 == 1 {
			bases[0], bases[1] = bases[1], bases[0]
		}
		for _, b := range bases {
			_, rep, err := r.cl.status(b, j.ID)
			if err != nil {
				return err
			}
			if b == url {
				direct = append(direct, float64(rep.Elapsed())/1e6)
			} else {
				via = append(via, float64(rep.Elapsed())/1e6)
			}
		}
		// A nest field of the final state: no workload reads it, so the
		// first read encodes its tiles and the second hits the cache.
		ids := j.Snap.ActiveNests.IDs()
		if len(ids) == 0 {
			continue
		}
		for k, into := range []*[]float64{&cold, &warm} {
			rep, err := r.cl.get("http.probe.field", fmt.Sprintf("%s/jobs/%s/field?var=nest:%d", r.fleet.URL, j.ID, ids[0]))
			if err == nil && !rep.OK() {
				err = rep.err(fmt.Sprintf("probe read %d", k))
			}
			if err != nil {
				return err
			}
			*into = append(*into, float64(rep.Elapsed())/1e6)
		}
	}
	v["fleet.proxy_ms_p50"] = median(via) - median(direct)
	v["serve.read_cold_ms_p50"] = median(cold)
	v["serve.read_warm_ms_p50"] = median(warm)

	// A pipeline of the first job config, 50 steps in, for the direct
	// layer calls.
	cfg := r.list[0]
	pipe, sched, err := buildPipeline(cfg)
	if err != nil {
		return err
	}
	if err := stepTo(pipe, sched, 50); err != nil {
		return err
	}

	// Tile encode at randomized placements, so one cache-friendly spot
	// does not stand for the whole field.
	rng := rand.New(rand.NewSource(r.seed))
	f := pipe.Model().QCloud()
	var enc []float64
	for i := 0; i < 400; i++ {
		x0, y0 := rng.Intn(f.NX-64+1), rng.Intn(f.NY-64+1)
		rect := geom.Rect{X0: x0, Y0: y0, X1: x0 + 64, Y1: y0 + 64}
		d, _ := r.spans.time("serve.EncodeTile", func() error { serve.EncodeTile(f, rect); return nil })
		enc = append(enc, float64(d)/1e3)
	}
	v["serve.tile_encode_us"] = median(enc)

	// Restore the chains lifecycle jobs exported; other workloads export
	// their finished jobs' last checkpoints.
	chains := r.chains
	for _, j := range done {
		if len(chains) >= 10 {
			break
		}
		rep, err := r.cl.get("http.export", r.fleet.URL+"/jobs/"+j.ID+"/checkpoint")
		if err != nil || !rep.OK() {
			return fmt.Errorf("probe export %s: %v", j.ID, err)
		}
		chains = append(chains, rep.Body)
	}
	var restore, replay []float64
	fails := 0
	for _, c := range chains {
		dt, steps, err := r.restore(c)
		if dt > 0 {
			restore = append(restore, dt)
		}
		if err != nil {
			if fails == 0 {
				fmt.Fprintf(r.out, "core.RestorePipeline failed: %v\n", err)
			}
			fails++
			continue
		}
		replay = append(replay, steps)
	}
	v["core.restore_ms_p50"] = median(restore)
	v["core.replay_steps"] = median(replay)
	v["core.restore_failures"] = float64(fails)

	// Resize down and back up, as lifecycle jobs do.
	var resize []float64
	for i := 0; i < 6; i++ {
		procs := cfg.Cores / 2
		if i%2 == 1 {
			procs = cfg.Cores
		}
		d, err := r.spans.time("elastic.Resize", func() error {
			_, err := elastic.Resize(pipe, procs, cfg.Machine, 8)
			return err
		})
		if err != nil {
			return fmt.Errorf("probe resize: %w", err)
		}
		resize = append(resize, float64(d)/1e6)
	}
	v["elastic.resize_ms_p50"] = median(resize)

	// An empty World.Run at the largest rank count the jobs use.
	ranks := cfg.AnalysisRanks
	if cfg.Distributed {
		ranks = cfg.Cores
	}
	world, err := mpi.NewWorld(ranks, mpi.Config{})
	if err != nil {
		return err
	}
	var run []float64
	for i := 0; i < 200; i++ {
		d, err := r.spans.time("mpi.Run", func() error { return world.Run(func(*mpi.Rank) {}) })
		if err != nil {
			return err
		}
		run = append(run, float64(d)/1e3)
	}
	v["mpi.run_us"] = median(run)
	return nil
}

// restore times core.RestorePipeline on an exported job checkpoint and
// counts the steps its delta chain replays: the restored step minus the
// step of the chain's base blob restored alone. A restore that fails still
// returns its time: a delta replay is only checked once it has run.
func (r *Run) restore(envelope []byte) (ms float64, replaySteps float64, err error) {
	cfg, state, err := splitEnvelope(envelope)
	if err != nil {
		return 0, 0, err
	}
	m, err := elastic.BuildMachine(cfg.Cores, cfg.Machine, 8)
	if err != nil {
		return 0, 0, err
	}
	var p *core.Pipeline
	d, err := r.spans.time("core.RestorePipeline", func() error {
		var err error
		p, err = core.RestorePipeline(bytes.NewReader(state), m.Net, m.Model, m.Oracle)
		return err
	})
	if err != nil {
		return float64(d) / 1e6, 0, err
	}
	base, err := core.RestorePipeline(bytes.NewReader(firstBlob(state)), m.Net, m.Model, m.Oracle)
	if err != nil {
		return 0, 0, err
	}
	return float64(d) / 1e6, float64(p.StepCount() - base.StepCount()), nil
}

// splitEnvelope parses the NDJB job checkpoint envelope GET
// /jobs/{id}/checkpoint returns: magic "NDJB", version, config length
// (LE u32), config CRC, and on version 2 an 8-byte epoch, then the config
// JSON and the NDCP pipeline checkpoint.
func splitEnvelope(b []byte) (service.JobConfig, []byte, error) {
	var cfg service.JobConfig
	if len(b) < 13 || string(b[:4]) != "NDJB" {
		return cfg, nil, fmt.Errorf("not a job checkpoint envelope")
	}
	hdr := 13
	if b[4] == 2 {
		hdr = 21
	}
	n := int(binary.LittleEndian.Uint32(b[5:9]))
	if len(b) < hdr+n {
		return cfg, nil, fmt.Errorf("torn job checkpoint envelope")
	}
	if err := json.Unmarshal(b[hdr:hdr+n], &cfg); err != nil {
		return cfg, nil, err
	}
	state := b[hdr+n:]
	if len(state) == 0 {
		return cfg, nil, fmt.Errorf("job checkpoint holds no pipeline state")
	}
	return cfg, state, nil
}

// firstBlob returns the base blob of an NDCP v2 chain (header: magic,
// version, payload length LE u64, ...; 26 bytes), or the whole checkpoint
// for a v1 envelope.
func firstBlob(state []byte) []byte {
	const v2Header = 26
	if len(state) < v2Header || state[4] != 2 {
		return state
	}
	n := v2Header + int(binary.LittleEndian.Uint64(state[5:13]))
	if n > len(state) {
		return state
	}
	return state[:n]
}
