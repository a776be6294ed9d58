// Package faults is a deterministic, seedable fault-injection plan for
// chaos-testing the nestdiff runtime. A Plan is a set of one-shot or
// recurring rules — crash rank r at step k, drop/delay the nth message of
// an mpi stream, fail the nth checkpoint write, slow down or panic a
// pipeline step — consulted from injection hooks wired into
// internal/mpi.World, internal/core.Pipeline and the job scheduler of
// internal/service.
//
// Every hook is safe on a nil *Plan and returns immediately, so fault
// injection is zero-cost when disabled: production paths carry only a nil
// pointer check. All rule matching is deterministic for a fixed seed and
// rule set: message rules keep an independent counter (and, for
// probabilistic rules, an independent seeded RNG) per concrete
// (from, to, tag) stream, and per-sender streams are FIFO, so the decision
// for the nth message of a stream never depends on goroutine interleaving.
package faults

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sync"
	"time"
)

// Kind labels an injected fault in the plan's log.
type Kind string

const (
	KindRankCrash      Kind = "rank-crash"
	KindMessageDrop    Kind = "message-drop"
	KindMessageDelay   Kind = "message-delay"
	KindCheckpointFail Kind = "checkpoint-fail"
	KindResizeCrash    Kind = "resize-crash"
	KindSlowStep       Kind = "slow-step"
	KindStepPanic      Kind = "step-panic"
	KindWorkerKill     Kind = "worker-kill"
	KindLinkPartition  Kind = "link-partition"
	KindLinkHeal       Kind = "link-heal"
)

// ControllerNode is the conventional link-endpoint name of the fleet
// control plane in partition rules: workers block the (workerID,
// ControllerNode) direction, the controller blocks (ControllerNode,
// workerID). Using one shared constant keeps the two halves of a
// partition rule pointed at the same link.
const ControllerNode = "controller"

// Injection is one fired fault, recorded in the plan's log so tests can
// assert exactly what was injected.
type Injection struct {
	Kind          Kind
	Step          int // pipeline step current when the fault fired
	Rank          int // rank crashes
	From, To, Tag int // message faults
	Detail        string
}

// Wildcard matches any rank/tag in a message rule.
const Wildcard = -1

// crashRule kills one rank the first time an mpi world launches it at or
// after Step.
type crashRule struct {
	step, rank int
	fired      bool
}

// msgRule drops or delays matching point-to-point messages. Counters (and
// the RNG of probabilistic rules) are kept per concrete stream.
type msgRule struct {
	from, to, tag int // Wildcard matches anything
	nth           int // fire on the nth matching message of a stream (one-shot per stream)
	everyN        int // fire on every Nth matching message of a stream
	prob          float64
	drop          bool
	delay         float64 // virtual seconds added to the message's transit time

	counts map[streamKey]int
	fired  map[streamKey]bool
	rngs   map[streamKey]*rand.Rand
}

type streamKey struct{ from, to, tag int }

// ckptRule fails the nth checkpoint write attempt after AfterBytes bytes —
// a torn write, as a dying node would leave behind.
type ckptRule struct {
	nth        int
	afterBytes int
	fired      bool
}

// resizeRule panics the nth processor-grid resize attempt after its
// pre-resize checkpoint has been written — the worker dies with the job
// half-way between two sizes, and recovery must come from the old-size
// checkpoint.
type resizeRule struct {
	nth   int
	fired bool
}

// stepRule slows down (or panics) the first pipeline step at or after
// step — a hung PDA invocation, or a crashing worker.
type stepRule struct {
	step  int
	sleep time.Duration
	panic bool
	fired bool
}

// killRule fires an arbitrary kill switch the first time a pipeline step
// at or after Step begins — the fleet chaos suite uses it to take an
// entire worker daemon down (listener, heartbeats and scheduler at once)
// at a deterministic point in a job's execution, simulating sudden
// machine loss rather than a recoverable in-process fault.
type killRule struct {
	step  int
	kill  func()
	fired bool
}

// linkKey names one direction of a control-plane link.
type linkKey struct{ from, to string }

// linkRule partitions (or heals) the from→to direction of a control-plane
// link the first time a pipeline step at or after Step begins. Unlike
// KillWorker — which models the whole process dying — a partition leaves
// the process running and merely makes its control messages vanish in
// transit: heartbeats are lost while the job keeps stepping and
// checkpointing, which is exactly the split-brain scenario epoch fencing
// exists for. One direction per rule, so asymmetric partitions (worker
// can't reach controller but controller can reach worker, or vice versa)
// are expressed by installing only one of the two directions.
type linkRule struct {
	step  int
	link  linkKey
	heal  bool
	fired bool
}

// Plan is a set of fault rules plus the injection log. The zero value (or
// a nil pointer) injects nothing. Methods are safe for concurrent use.
type Plan struct {
	mu          sync.Mutex
	seed        int64
	step        int // current pipeline step, advanced by Pipeline.Step
	recvTimeout time.Duration
	ckptCalls   int
	resizeCalls int

	crashes []*crashRule
	msgs    []*msgRule
	ckpts   []*ckptRule
	resizes []*resizeRule
	steps   []*stepRule
	kills   []*killRule
	links   []*linkRule
	blocked map[linkKey]bool
	log     []Injection
}

// NewPlan returns an empty plan. The seed drives the per-stream RNGs of
// probabilistic message rules; plans with the same seed and rules inject
// identically.
func NewPlan(seed int64) *Plan { return &Plan{seed: seed} }

// CrashRank schedules a one-shot panic of world rank `rank` the first time
// an mpi world launches it (lists it in a Run) at pipeline step >= step. The world recovers
// the panic, poisons blocked collectives so nothing deadlocks, and
// surfaces the crash as an error from World.Run.
func (p *Plan) CrashRank(step, rank int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.crashes = append(p.crashes, &crashRule{step: step, rank: rank})
	return p
}

// DropMessage drops the nth message (1-based) of every matching
// (from, to, tag) stream; Wildcard fields match anything. Dropping
// installs a default receive timeout (if none is set) so a receiver
// waiting on the lost message fails fast instead of hanging forever.
func (p *Plan) DropMessage(from, to, tag, nth int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.msgs = append(p.msgs, newMsgRule(msgRule{from: from, to: to, tag: tag, nth: nth, drop: true}))
	if p.recvTimeout == 0 {
		p.recvTimeout = 5 * time.Second
	}
	return p
}

// DropMessages drops each matching message independently with probability
// prob, using a per-stream RNG derived from the plan seed. Installs a
// default receive timeout like DropMessage.
func (p *Plan) DropMessages(from, to, tag int, prob float64) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.msgs = append(p.msgs, newMsgRule(msgRule{from: from, to: to, tag: tag, prob: prob, drop: true}))
	if p.recvTimeout == 0 {
		p.recvTimeout = 5 * time.Second
	}
	return p
}

// DelayMessage adds `seconds` of virtual transit time to every everyN-th
// message of each matching stream (everyN = 1 delays them all).
func (p *Plan) DelayMessage(from, to, tag, everyN int, seconds float64) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	if everyN < 1 {
		everyN = 1
	}
	p.msgs = append(p.msgs, newMsgRule(msgRule{from: from, to: to, tag: tag, everyN: everyN, delay: seconds}))
	return p
}

// FailCheckpoint makes the nth checkpoint write attempt (1-based, counted
// across the plan) fail after afterBytes bytes — a torn write. afterBytes
// <= 0 fails immediately.
func (p *Plan) FailCheckpoint(nth, afterBytes int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ckpts = append(p.ckpts, &ckptRule{nth: nth, afterBytes: afterBytes})
	return p
}

// FailResize makes the nth resize attempt (1-based, counted across the
// plan) panic between its pre-resize checkpoint and the grid rebuild —
// the narrowest window a real crash could hit, since the scheduler
// anchors a checkpoint immediately before touching the pipeline.
func (p *Plan) FailResize(nth int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.resizes = append(p.resizes, &resizeRule{nth: nth})
	return p
}

// ResizeCrash counts one resize attempt and panics if a resize rule
// fires. The scheduler calls it after the pre-resize checkpoint; the
// panic is recovered by the worker pool and becomes a retry from that
// checkpoint at the old processor count.
func (p *Plan) ResizeCrash() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.resizeCalls++
	for _, r := range p.resizes {
		if !r.fired && p.resizeCalls == r.nth {
			r.fired = true
			p.log = append(p.log, Injection{Kind: KindResizeCrash, Step: p.step,
				Detail: fmt.Sprintf("injected crash during resize attempt %d", r.nth)})
			step := p.step
			p.mu.Unlock()
			panic(fmt.Sprintf("faults: injected crash during resize attempt at step %d", step))
		}
	}
	p.mu.Unlock()
}

// SlowStep stalls the first pipeline step at or after step by d of real
// time — a hung PDA invocation, visible to per-job deadlines.
func (p *Plan) SlowStep(step int, d time.Duration) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.steps = append(p.steps, &stepRule{step: step, sleep: d})
	return p
}

// PanicStep panics the worker goroutine at the first pipeline step at or
// after step — exercises the scheduler's per-worker panic recovery.
func (p *Plan) PanicStep(step int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.steps = append(p.steps, &stepRule{step: step, panic: true})
	return p
}

// KillWorker schedules a one-shot kill switch at the first pipeline step
// at or after step. Unlike PanicStep — whose panic the scheduler recovers
// and retries — the kill callback models the whole process dying: the
// fleet chaos suite passes a closure that stops the worker's HTTP
// listener, halts its heartbeats and hard-kills its scheduler, so the
// only state that survives is what was already persisted to the
// checkpoint store. The callback runs outside the plan lock.
func (p *Plan) KillWorker(step int, kill func()) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.kills = append(p.kills, &killRule{step: step, kill: kill})
	return p
}

// Partition immediately blocks the from→to direction of a control-plane
// link: every hooked send over it fails as unreachable until Heal. Block
// one direction for an asymmetric partition, both for a full one.
func (p *Plan) Partition(from, to string) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.partitionLocked(linkKey{from, to}, p.step)
	return p
}

// PartitionAtStep schedules a one-shot partition of the from→to direction
// the first time a pipeline step at or after step begins, so chaos suites
// can lose a worker's heartbeats at a deterministic point in a job's
// execution — the process stays alive and keeps stepping, unlike
// KillWorker.
func (p *Plan) PartitionAtStep(step int, from, to string) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.links = append(p.links, &linkRule{step: step, link: linkKey{from, to}})
	return p
}

// Heal immediately unblocks the from→to direction.
func (p *Plan) Heal(from, to string) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.healLocked(linkKey{from, to})
	return p
}

// HealAtStep schedules a one-shot heal of the from→to direction at the
// first pipeline step at or after step.
func (p *Plan) HealAtStep(step int, from, to string) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.links = append(p.links, &linkRule{step: step, link: linkKey{from, to}, heal: true})
	return p
}

// LinkBlocked reports whether the from→to direction is currently
// partitioned. Control-plane hooks (the worker agent's heartbeat client,
// the controller's worker calls) consult it before each send and fail the
// call as unreachable when it holds.
func (p *Plan) LinkBlocked(from, to string) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.blocked[linkKey{from, to}]
}

// partitionLocked and healLocked mutate the blocked set and log the
// transition; callers hold p.mu. Re-partitioning a blocked link (or
// healing an open one) is a no-op and is not logged.
func (p *Plan) partitionLocked(k linkKey, step int) {
	if p.blocked == nil {
		p.blocked = make(map[linkKey]bool)
	}
	if p.blocked[k] {
		return
	}
	p.blocked[k] = true
	p.log = append(p.log, Injection{Kind: KindLinkPartition, Step: step,
		Detail: fmt.Sprintf("partitioned link %s->%s", k.from, k.to)})
}

func (p *Plan) healLocked(k linkKey) {
	if !p.blocked[k] {
		return
	}
	delete(p.blocked, k)
	p.log = append(p.log, Injection{Kind: KindLinkHeal, Step: p.step,
		Detail: fmt.Sprintf("healed link %s->%s", k.from, k.to)})
}

// WithRecvTimeout bounds every blocking mpi receive under this plan: a
// receive that outlives d (real time) panics its rank, which the world
// recovers and reports. Without a timeout a dropped message would hang
// its receiver forever, exactly like real MPI.
func (p *Plan) WithRecvTimeout(d time.Duration) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.recvTimeout = d
	return p
}

func newMsgRule(r msgRule) *msgRule {
	r.counts = make(map[streamKey]int)
	r.fired = make(map[streamKey]bool)
	r.rngs = make(map[streamKey]*rand.Rand)
	return &r
}

// SetStep records the pipeline step about to execute; step-scoped rules
// (rank crashes, slow/panic steps) key off it.
func (p *Plan) SetStep(step int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.step = step
	p.mu.Unlock()
}

// Step returns the pipeline step the plan currently considers active.
func (p *Plan) Step() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.step
}

// CrashPoint panics if a pending crash rule matches rank at the current
// step. mpi.World.RunRanks (and Run, which lists every rank) calls it as
// each listed rank's goroutine launches; the panic is recovered by the
// world and becomes a Run error. A rank a Run does not list never reaches
// the crash point, so its rule fires at the rank's next participation.
func (p *Plan) CrashPoint(rank int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	for _, r := range p.crashes {
		if !r.fired && match(r.rank, rank) && p.step >= r.step {
			r.fired = true
			p.log = append(p.log, Injection{Kind: KindRankCrash, Step: p.step, Rank: rank,
				Detail: fmt.Sprintf("injected crash of rank %d (scheduled step %d)", rank, r.step)})
			step := p.step
			p.mu.Unlock()
			panic(fmt.Sprintf("faults: injected crash of rank %d at step %d", rank, step))
		}
	}
	p.mu.Unlock()
}

// MessageFault reports what to do with a point-to-point message: drop it,
// and/or add virtual transit delay. Each call advances the per-stream
// counters, so hooks must call it exactly once per message.
func (p *Plan) MessageFault(from, to, tag int) (drop bool, delay float64) {
	if p == nil {
		return false, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	key := streamKey{from, to, tag}
	for _, r := range p.msgs {
		if !match(r.from, from) || !match(r.to, to) || !match(r.tag, tag) {
			continue
		}
		r.counts[key]++
		n := r.counts[key]
		fire := false
		switch {
		case r.nth > 0:
			fire = n == r.nth && !r.fired[key]
		case r.everyN > 0:
			fire = n%r.everyN == 0
		case r.prob > 0:
			rng, ok := r.rngs[key]
			if !ok {
				rng = rand.New(rand.NewSource(p.seed ^ hashKey(key)))
				r.rngs[key] = rng
			}
			fire = rng.Float64() < r.prob
		}
		if !fire {
			continue
		}
		r.fired[key] = true
		if r.drop {
			drop = true
			p.log = append(p.log, Injection{Kind: KindMessageDrop, Step: p.step, From: from, To: to, Tag: tag,
				Detail: fmt.Sprintf("dropped message %d of stream %d->%d tag %d", n, from, to, tag)})
		}
		if r.delay > 0 {
			delay += r.delay
			p.log = append(p.log, Injection{Kind: KindMessageDelay, Step: p.step, From: from, To: to, Tag: tag,
				Detail: fmt.Sprintf("delayed message %d of stream %d->%d tag %d by %gs", n, from, to, tag, r.delay)})
		}
	}
	return drop, delay
}

// RecvTimeout returns the bound on blocking receives (0 = none).
func (p *Plan) RecvTimeout() time.Duration {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.recvTimeout
}

// WrapCheckpoint counts one checkpoint write attempt and returns w, or a
// writer that tears the write partway through if a checkpoint rule fires.
func (p *Plan) WrapCheckpoint(w io.Writer) io.Writer {
	if p == nil {
		return w
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ckptCalls++
	for _, r := range p.ckpts {
		if !r.fired && p.ckptCalls == r.nth {
			r.fired = true
			p.log = append(p.log, Injection{Kind: KindCheckpointFail, Step: p.step,
				Detail: fmt.Sprintf("checkpoint write %d fails after %d bytes", r.nth, r.afterBytes)})
			return &tornWriter{w: w, remaining: r.afterBytes}
		}
	}
	return w
}

// tornWriter passes through `remaining` bytes, then fails every write.
type tornWriter struct {
	w         io.Writer
	remaining int
}

// ErrInjectedWrite is the error torn checkpoint writers return.
var ErrInjectedWrite = fmt.Errorf("faults: injected checkpoint write error")

func (t *tornWriter) Write(b []byte) (int, error) {
	if t.remaining <= 0 {
		return 0, ErrInjectedWrite
	}
	if len(b) <= t.remaining {
		t.remaining -= len(b)
		return t.w.Write(b)
	}
	n, err := t.w.Write(b[:t.remaining])
	t.remaining = 0
	if err != nil {
		return n, err
	}
	return n, ErrInjectedWrite
}

// BeforeStep runs the step-scoped rules for the pipeline step about to
// execute: it may sleep (SlowStep) or panic (PanicStep). The pipeline
// calls it at the top of Step.
func (p *Plan) BeforeStep(step int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	var sleep time.Duration
	doPanic := false
	var kills []func()
	for _, r := range p.links {
		if r.fired || step < r.step {
			continue
		}
		r.fired = true
		if r.heal {
			p.healLocked(r.link)
		} else {
			p.partitionLocked(r.link, step)
		}
	}
	for _, r := range p.kills {
		if r.fired || step < r.step {
			continue
		}
		r.fired = true
		kills = append(kills, r.kill)
		p.log = append(p.log, Injection{Kind: KindWorkerKill, Step: step,
			Detail: fmt.Sprintf("killed worker at step %d (scheduled step %d)", step, r.step)})
	}
	for _, r := range p.steps {
		if r.fired || step < r.step {
			continue
		}
		r.fired = true
		if r.panic {
			doPanic = true
			p.log = append(p.log, Injection{Kind: KindStepPanic, Step: step,
				Detail: fmt.Sprintf("injected panic at step %d", step)})
			continue
		}
		sleep += r.sleep
		p.log = append(p.log, Injection{Kind: KindSlowStep, Step: step,
			Detail: fmt.Sprintf("stalled step %d for %s", step, r.sleep)})
	}
	p.mu.Unlock()
	for _, kill := range kills {
		kill()
	}
	if sleep > 0 {
		time.Sleep(sleep)
	}
	if doPanic {
		panic(fmt.Sprintf("faults: injected panic at step %d", step))
	}
}

// Injections returns a copy of the log of fired faults, in firing order.
func (p *Plan) Injections() []Injection {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Injection(nil), p.log...)
}

func match(rule, v int) bool { return rule == Wildcard || rule == v }

func hashKey(k streamKey) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%d", k.from, k.to, k.tag)
	return int64(h.Sum64())
}
