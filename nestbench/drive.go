package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"nestdiff/internal/core"
	"nestdiff/internal/service"
)

// pollEvery is how often a waiting client polls its job's status.
const pollEvery = 5 * time.Millisecond

// traceBuffer is the trace ring of a traced job: the tail must still hold
// the job's final "attempt" event when the benchmark reads it.
const traceBuffer = 64

// Job is the benchmark's record of one job it submitted.
type Job struct {
	Cfg    int // index into the run's job list
	ID     string
	Worker string
	Traced bool

	Send, Reply, Done time.Time // POST sent, POST answered, done seen
	Snap              service.Snapshot
}

// Latency is POST /jobs to done seen via nestctl.
func (j *Job) Latency() time.Duration { return j.Done.Sub(j.Send) }

// Run is one benchmark run's shared state.
type Run struct {
	wl    Workload
	seed  int64
	fleet *Fleet
	cl    *Client
	spans *Spans
	list  []service.JobConfig
	refs  []Reference
	out   io.Writer

	mu       sync.Mutex
	seq      *sequence
	jobs     []*Job
	ops      int
	failed   int
	failures []string
	// running holds the jobs currently seen running, the read-mix
	// generator's live targets.
	running map[string]*Job
	// control latencies of lifecycle operations, and exported chains.
	control []time.Duration
	chains  [][]byte
}

// fail records a failed op.
func (r *Run) fail(op string, err error) {
	r.mu.Lock()
	r.ops++
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", op, err))
	}
	r.mu.Unlock()
}

// ok records a successful op.
func (r *Run) ok() {
	r.mu.Lock()
	r.ops++
	r.mu.Unlock()
}

// errorRate is failed ops over attempted ops.
func (r *Run) errorRate() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ops == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.ops)
}

// meanRedistTime is the modelled redistribution time (snapshot
// redist_time) per job over every job of the run that reached done.
func (r *Run) meanRedistTime() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var xs []float64
	for _, j := range r.jobs {
		if j.Snap.State == service.StateDone {
			xs = append(xs, j.Snap.RedistTime)
		}
	}
	return mean(xs)
}

func (r *Run) nextCfg() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq.next()
}

// submit posts list[idx] through nestctl.
func (r *Run) submit(idx int, traced bool) (*Job, error) {
	cfg := r.list[idx]
	if traced {
		cfg.Trace, cfg.TraceBuffer = true, traceBuffer
	}
	j := &Job{Cfg: idx, Traced: traced}
	rep, err := r.cl.post("http.submit", r.fleet.URL+"/jobs", cfg)
	if err != nil {
		return nil, err
	}
	if !rep.OK() {
		return nil, rep.err("submit")
	}
	var snap service.Snapshot
	if err := rep.decode(&snap); err != nil {
		return nil, err
	}
	j.ID, j.Worker, j.Send, j.Reply = snap.ID, rep.Header.Get("X-Fleet-Worker"), rep.Start, rep.End
	r.mu.Lock()
	r.jobs = append(r.jobs, j)
	r.mu.Unlock()
	return j, nil
}

// await polls j until cond holds or the job is terminal, and returns the
// snapshot and the time the poll that saw it was answered.
func (r *Run) await(j *Job, cond func(service.Snapshot) bool) (service.Snapshot, time.Time, error) {
	for {
		snap, rep, err := r.cl.status(r.fleet.URL, j.ID)
		if err != nil {
			return snap, rep.End, err
		}
		if snap.State == service.StateRunning {
			r.mu.Lock()
			if r.running != nil {
				r.running[j.ID] = j
			}
			r.mu.Unlock()
		}
		if cond(snap) || snap.State.Terminal() {
			return snap, rep.End, nil
		}
		time.Sleep(pollEvery)
	}
}

func isDone(s service.Snapshot) bool { return s.State == service.StateDone }

// runJob submits one job and waits until it is terminal.
func (r *Run) runJob(idx int, traced bool) (*Job, error) {
	j, err := r.submit(idx, traced)
	if err != nil {
		return nil, err
	}
	snap, at, err := r.await(j, isDone)
	r.mu.Lock()
	delete(r.running, j.ID)
	r.mu.Unlock()
	j.Snap, j.Done = snap, at
	return j, err
}

// domainNX, domainNY are the parent domain of the scripted scenarios.
const domainNX, domainNY = 180, 105

// closedLoop runs clients that each submit their next job only after the
// previous one is terminal, until the deadline. traced decides per job
// whether it is submitted with tracing on; after, when set, runs on each
// job once it is terminal, before the client's next submit.
func (r *Run) closedLoop(clients int, deadline time.Time, traced func() bool, after func(*Job)) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var seen time.Time // when the previous job was seen terminal
			for time.Now().Before(deadline) {
				idx, tr := r.nextCfg(), traced()
				if !seen.IsZero() {
					r.spans.add("loadgen.next_submit", seen, time.Now())
				}
				j, err := r.runJob(idx, tr)
				if err != nil {
					r.fail("job", err)
					seen = time.Time{}
					continue
				}
				if after != nil {
					after(j)
				}
				seen = time.Now()
			}
		}()
	}
	wg.Wait()
}

// fetchResult reads a finished job's qcloud and olr fields tile by tile,
// as a map client fetching the result would. Each read is timed from its
// send.
func (r *Run) fetchResult(j *Job) []readSample {
	var out []readSample
	for _, v := range []string{"qcloud", "olr"} {
		for ty := 0; ty*64 < domainNY; ty++ {
			for tx := 0; tx*64 < domainNX; tx++ {
				q := fmt.Sprintf("var=%s&rect=%d,%d,%d,%d", v, tx*64, ty*64, min(64, domainNX-tx*64), min(64, domainNY-ty*64))
				out = append(out, r.read(readOp{due: time.Now(), target: readTarget{id: j.ID}, query: q}))
			}
		}
	}
	return out
}

// verifyJobs checks every submitted job against its reference: it must be
// done, and its adaptation events and final costs must match bit for bit.
func (r *Run) verifyJobs(refs []Reference) {
	r.mu.Lock()
	jobs := append([]*Job(nil), r.jobs...)
	r.mu.Unlock()
	for _, j := range jobs {
		why := ""
		rep, err := r.cl.get("http.events", r.fleet.URL+"/jobs/"+j.ID+"/events")
		var events []core.AdaptationEvent
		switch {
		case err != nil:
			why = err.Error()
		case !rep.OK():
			why = rep.err("events").Error()
		default:
			if err := rep.decode(&events); err != nil {
				why = err.Error()
			} else {
				why = verdict(refs[j.Cfg], j.Snap, events)
			}
		}
		if why != "" {
			r.fail("oracle "+j.ID, fmt.Errorf("%s", why))
		} else {
			r.ok()
		}
	}
}

// readTarget is a job the read-mix generator may read.
type readTarget struct {
	id      string
	running bool
	nests   []int // final nest set of a finished job
}

// readOp is one scheduled read.
type readOp struct {
	due    time.Time
	status bool
	target readTarget
	query  string
}

// readSample is one completed read.
type readSample struct {
	latency, late time.Duration
	running       bool
	status        bool
	bytes         int
}

// readMix drives the open-loop read generator at the workload's rate
// against finished targets and the jobs the closed-loop clients keep
// running, until the deadline. Every read is timed from its scheduled
// send time.
func (r *Run) readMix(finished []readTarget, start, deadline time.Time) []readSample {
	rng := rand.New(rand.NewSource(r.seed ^ 0x7ead))
	n := int(deadline.Sub(start).Seconds() * r.wl.ReadRate)
	// Sized to every send of the run, so the generator never blocks and a
	// stalled fleet shows as lateness instead of a slower schedule.
	ops := make(chan readOp, n)
	out := make(chan readSample, n)
	var wg sync.WaitGroup
	for s := 0; s < runtime.NumCPU(); s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := range ops {
				out <- r.read(op)
			}
		}()
	}
	period := time.Duration(float64(time.Second) / r.wl.ReadRate)
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * period)
		time.Sleep(time.Until(due))
		ops <- r.pickRead(rng, due, finished)
	}
	close(ops)
	wg.Wait()
	close(out)
	var samples []readSample
	for s := range out {
		samples = append(samples, s)
	}
	return samples
}

// pickRead draws one read: a status poll (one in ten), else a field read of
// qcloud, olr or (finished jobs only, whose nest set no longer changes) a
// nest field, over the full domain, one aligned 64×64 tile or a random
// sub-rect, of a running or a finished job.
func (r *Run) pickRead(rng *rand.Rand, due time.Time, finished []readTarget) readOp {
	op := readOp{due: due}
	var live []readTarget
	r.mu.Lock()
	for id := range r.running {
		live = append(live, readTarget{id: id, running: true})
	}
	r.mu.Unlock()
	sort.Slice(live, func(a, b int) bool { return live[a].id < live[b].id })
	if len(live) > 0 && rng.Intn(2) == 0 {
		op.target = live[rng.Intn(len(live))]
	} else {
		op.target = finished[rng.Intn(len(finished))]
	}
	if rng.Intn(10) == 0 {
		op.status = true
		return op
	}
	v := []string{"qcloud", "olr"}[rng.Intn(2)]
	nx, ny := domainNX, domainNY
	if !op.target.running && len(op.target.nests) > 0 && rng.Intn(3) == 0 {
		v = "nest:" + strconv.Itoa(op.target.nests[rng.Intn(len(op.target.nests))])
		nx, ny = 0, 0 // nest extents vary: full nest only
	}
	q := "var=" + v
	switch k := rng.Intn(3); {
	case nx == 0:
	case k == 1:
		tx, ty := rng.Intn((nx+63)/64), rng.Intn((ny+63)/64)
		w, h := min(64, nx-tx*64), min(64, ny-ty*64)
		q += fmt.Sprintf("&rect=%d,%d,%d,%d", tx*64, ty*64, w, h)
	case k == 2:
		w, h := 1+rng.Intn(nx), 1+rng.Intn(ny)
		x0, y0 := rng.Intn(nx-w+1), rng.Intn(ny-h+1)
		q += fmt.Sprintf("&rect=%d,%d,%d,%d", x0, y0, w, h)
	}
	op.query = q
	return op
}

func (r *Run) read(op readOp) readSample {
	s := readSample{running: op.target.running, status: op.status}
	var rep Reply
	var err error
	if op.status {
		_, rep, err = r.cl.status(r.fleet.URL, op.target.id)
	} else {
		rep, err = r.cl.get("http.field", r.fleet.URL+"/jobs/"+op.target.id+"/field?"+op.query)
		if err == nil && !rep.OK() {
			err = rep.err("field " + op.target.id + "?" + op.query)
		}
	}
	s.late = rep.Start.Sub(op.due)
	s.latency = rep.End.Sub(op.due)
	s.bytes = len(rep.Body)
	if err != nil {
		r.fail("read", err)
	} else {
		r.ok()
	}
	return s
}

// lifecycle runs one default-config job through pause→resume, a resize
// down and back up and a checkpoint export, then to done. Each control op
// is timed from its request until its effect is seen.
func (r *Run) lifecycle(idx int, traced bool) {
	j, err := r.submit(idx, traced)
	if err != nil {
		r.fail("job", err)
		return
	}
	finish := func() {
		snap, at, err := r.await(j, isDone)
		j.Snap, j.Done = snap, at
		if err != nil {
			r.fail("job", err)
		}
	}
	cores := r.list[idx].Cores
	steps := r.list[idx].Steps
	// Control ops land a fifth, two fifths and three fifths of the way in.
	at := func(frac int) bool {
		snap, _, err := r.await(j, func(s service.Snapshot) bool { return s.Step >= steps*frac/5 })
		return err == nil && !snap.State.Terminal()
	}
	control := func(name, method, path string, seen func(service.Snapshot) bool) bool {
		t0 := time.Now()
		rep, err := r.cl.do("http.control", method, r.fleet.URL+"/jobs/"+j.ID+path, nil)
		if err == nil && !rep.OK() {
			err = rep.err(name)
		}
		if err == nil && seen != nil {
			var snap service.Snapshot
			snap, _, err = r.await(j, seen)
			if err == nil && !seen(snap) {
				err = fmt.Errorf("%s: job went %s before the effect showed: %s", name, snap.State, snap.Error)
			}
		}
		if err != nil {
			r.fail(name+" "+j.ID, err)
			return false
		}
		r.mu.Lock()
		r.control = append(r.control, time.Since(t0))
		if method == "GET" {
			r.chains = append(r.chains, rep.Body)
		}
		r.mu.Unlock()
		r.ok()
		return true
	}
	if !at(1) || !control("pause", "POST", "/pause", func(s service.Snapshot) bool { return s.State == service.StatePaused }) {
		finish()
		return
	}
	snap, _, err := r.cl.status(r.fleet.URL, j.ID)
	if err != nil {
		r.fail("status "+j.ID, err)
		finish()
		return
	}
	paused := snap.Step
	if !control("resume", "POST", "/resume", func(s service.Snapshot) bool { return s.Step > paused }) {
		finish()
		return
	}
	if !at(2) ||
		!control("resize-down", "POST", "/resize?procs="+strconv.Itoa(cores/2), func(s service.Snapshot) bool { return s.Cores == cores/2 }) ||
		!control("resize-up", "POST", "/resize?procs="+strconv.Itoa(cores), func(s service.Snapshot) bool { return s.Cores == cores }) {
		finish()
		return
	}
	if at(3) {
		control("export", "GET", "/checkpoint", nil)
	}
	finish()
}

// workerURL maps an X-Fleet-Worker ID ("w1") to its base URL.
func (f *Fleet) workerURL(id string) (string, bool) {
	i, err := strconv.Atoi(strings.TrimPrefix(id, "w"))
	if err != nil || i < 1 || i > len(f.Workers) {
		return "", false
	}
	return f.Workers[i-1], true
}
