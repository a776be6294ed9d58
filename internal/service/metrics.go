package service

import (
	"fmt"
	"io"
	"sync/atomic"

	"nestdiff/internal/obs"
)

// Metrics are the scheduler's cumulative counters, exposed in Prometheus
// text exposition format on GET /metrics without any client-library
// dependency. All fields are atomics: workers update them concurrently
// with scrapes.
type Metrics struct {
	jobsSubmitted      atomic.Int64
	jobsCompleted      atomic.Int64
	jobsCancelled      atomic.Int64
	jobsFailed         atomic.Int64
	jobRetries         atomic.Int64
	workerPanics       atomic.Int64 // panics recovered by the worker pool
	autoCheckpoints    atomic.Int64
	checkpointFailures atomic.Int64
	stepsExecuted      atomic.Int64
	adaptationEvents   atomic.Int64
	redistBytes        atomic.Int64
	pauses             atomic.Int64
	resumes            atomic.Int64
	jobsResized        atomic.Int64 // in-place processor-grid resizes applied
	resizeFailures     atomic.Int64 // resize attempts that failed (job kept its old size)
	checkpointBytes    atomic.Int64 // size of the most recent checkpoint chain
	ledgerFailures     atomic.Int64 // trace ledgers that failed to open or append

	// Fast-checkpoint-path counters.
	checkpointBytesTotal atomic.Int64 // encoded checkpoint bytes produced (full + delta blobs)
	fullCheckpoints      atomic.Int64 // checkpoints cut as full bases
	deltaCheckpoints     atomic.Int64 // checkpoints cut as replay deltas
	checkpointAppends    atomic.Int64 // delta blobs appended in place to the store file
	checkpointsTruncated atomic.Int64 // chains recovered from a torn delta tail (prefix restored)

	// Fleet and recovery counters.
	queueFullRejections  atomic.Int64 // submits/resumes shed with ErrQueueFull (HTTP 429)
	checkpointsRecovered atomic.Int64 // persisted checkpoints re-registered at startup
	checkpointsCorrupt   atomic.Int64 // persisted checkpoints rejected as torn or corrupt
	jobsImported         atomic.Int64 // jobs registered via Import (recovery, adoption, migration)
	jobsAdopted          atomic.Int64 // jobs adopted from the shared checkpoint store
	jobsFenced           atomic.Int64 // local copies killed after their placement moved elsewhere
	checkpointsFenced    atomic.Int64 // checkpoint writes refused: store file carried a higher epoch

	// Always-on latency histograms (lock-free observes), rendered as
	// Prometheus summaries. Unlike the per-job tracer, these cover every
	// job, traced or not.
	stepDur       *obs.Histogram // one parent simulation step
	ckptDur       *obs.Histogram // one auto/pause checkpoint cut, end to end
	ckptEncodeDur *obs.Histogram // the encode alone (binary codec + delta planning)
	jobDur        *obs.Histogram // completed jobs, first run to done
	resizeDur     *obs.Histogram // one in-place processor-grid resize
}

func newMetrics() *Metrics {
	return &Metrics{
		stepDur:       obs.NewHistogram(),
		ckptDur:       obs.NewHistogram(),
		ckptEncodeDur: obs.NewHistogram(),
		jobDur:        obs.NewHistogram(),
		resizeDur:     obs.NewHistogram(),
	}
}

// StepsExecuted returns the total parent steps simulated across all jobs.
func (m *Metrics) StepsExecuted() int64 { return m.stepsExecuted.Load() }

// AdaptationEvents returns the total PDA invocations that produced an
// adaptation event across all jobs.
func (m *Metrics) AdaptationEvents() int64 { return m.adaptationEvents.Load() }

// RedistBytes returns the total payload bytes that crossed the modelled
// network in nest redistributions.
func (m *Metrics) RedistBytes() int64 { return m.redistBytes.Load() }

// JobsFailed returns the number of jobs that reached the failed state.
func (m *Metrics) JobsFailed() int64 { return m.jobsFailed.Load() }

// JobRetries returns the total retry attempts scheduled across all jobs.
func (m *Metrics) JobRetries() int64 { return m.jobRetries.Load() }

// WorkerPanics returns the number of job panics recovered by the pool.
func (m *Metrics) WorkerPanics() int64 { return m.workerPanics.Load() }

// AutoCheckpoints returns the number of auto-checkpoints written cleanly.
func (m *Metrics) AutoCheckpoints() int64 { return m.autoCheckpoints.Load() }

// CheckpointFailures returns the number of checkpoint writes that failed
// (the previous good checkpoint stayed authoritative each time).
func (m *Metrics) CheckpointFailures() int64 { return m.checkpointFailures.Load() }

// JobsResized returns the in-place processor-grid resizes applied.
func (m *Metrics) JobsResized() int64 { return m.jobsResized.Load() }

// ResizeFailures returns the resize attempts that failed cleanly (each
// job kept stepping at its old size).
func (m *Metrics) ResizeFailures() int64 { return m.resizeFailures.Load() }

// StepDurations returns the streaming step-latency histogram.
func (m *Metrics) StepDurations() *obs.Histogram { return m.stepDur }

// QueueFullRejections returns the submits and resumes shed with
// ErrQueueFull (surfaced as HTTP 429 + Retry-After).
func (m *Metrics) QueueFullRejections() int64 { return m.queueFullRejections.Load() }

// CheckpointsRecovered returns the persisted checkpoints re-registered as
// paused jobs by the startup recovery scan.
func (m *Metrics) CheckpointsRecovered() int64 { return m.checkpointsRecovered.Load() }

// CheckpointsCorrupt returns the persisted checkpoints rejected as torn
// or corrupt by the recovery scan or an adoption read.
func (m *Metrics) CheckpointsCorrupt() int64 { return m.checkpointsCorrupt.Load() }

// JobsImported returns the jobs registered through Import — startup
// recovery, fleet adoption and manual checkpoint migration.
func (m *Metrics) JobsImported() int64 { return m.jobsImported.Load() }

// JobsAdopted returns the jobs this worker adopted from the shared
// checkpoint store after another worker died.
func (m *Metrics) JobsAdopted() int64 { return m.jobsAdopted.Load() }

// JobsFenced returns the local job copies this worker killed because the
// fleet re-homed them under a higher placement epoch.
func (m *Metrics) JobsFenced() int64 { return m.jobsFenced.Load() }

// CheckpointsFenced returns the checkpoint writes refused because the
// shared store already held a higher-epoch file for the job.
func (m *Metrics) CheckpointsFenced() int64 { return m.checkpointsFenced.Load() }

// CheckpointBytesTotal returns the cumulative encoded checkpoint bytes
// produced (full bases plus delta blobs — the interval cost of the fast
// checkpoint path).
func (m *Metrics) CheckpointBytesTotal() int64 { return m.checkpointBytesTotal.Load() }

// FullCheckpoints returns the checkpoints cut as full bases.
func (m *Metrics) FullCheckpoints() int64 { return m.fullCheckpoints.Load() }

// DeltaCheckpoints returns the checkpoints cut as replay deltas.
func (m *Metrics) DeltaCheckpoints() int64 { return m.deltaCheckpoints.Load() }

// CheckpointAppends returns the delta blobs the persister appended in
// place to checkpoint files instead of rewriting the whole chain.
func (m *Metrics) CheckpointAppends() int64 { return m.checkpointAppends.Load() }

// CheckpointsTruncated returns the persisted chains recovered from a torn
// delta tail — the restore fell back to the longest intact prefix.
func (m *Metrics) CheckpointsTruncated() int64 { return m.checkpointsTruncated.Load() }

// counter writes one Prometheus counter with its metadata.
func counter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

// summaryMetric writes one Prometheus summary (in seconds) from a
// streaming nanosecond histogram.
func summaryMetric(w io.Writer, name, help string, h *obs.Histogram) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s summary\n", name, help, name)
	for _, q := range []struct {
		label string
		q     float64
	}{{"0.5", 0.5}, {"0.9", 0.9}, {"0.99", 0.99}} {
		fmt.Fprintf(w, "%s{quantile=%q} %g\n", name, q.label, float64(h.QuantileNS(q.q))/1e9)
	}
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.SumNS())/1e9)
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
}

// WorkerStats is the machine-readable slice of a worker's metrics the
// fleet controller consumes: the JSON body of GET /statz. The controller
// aggregates these across live workers into its fleet-wide /metrics and
// uses the queue numbers for admission decisions; the Prometheus text on
// the worker's own /metrics stays the human/scrape surface.
type WorkerStats struct {
	Workers       int              `json:"workers"`
	QueueDepth    int              `json:"queue_depth"`
	QueueCapacity int              `json:"queue_capacity"`
	Jobs          map[JobState]int `json:"jobs"`
	StepsExecuted int64            `json:"steps_executed"`
	JobsSubmitted int64            `json:"jobs_submitted"`
	JobsCompleted int64            `json:"jobs_completed"`
	JobsFailed    int64            `json:"jobs_failed"`
	JobsImported  int64            `json:"jobs_imported"`
	JobsAdopted   int64            `json:"jobs_adopted"`
	JobsFenced    int64            `json:"jobs_fenced"`
	JobsResized   int64            `json:"jobs_resized"`
	CkptsFenced   int64            `json:"checkpoints_fenced"`
	QueueRejects  int64            `json:"queue_full_rejections"`
	// Fast-checkpoint-path counters, aggregated by the fleet controller
	// into nestctl_fleet_checkpoint_* metrics.
	CkptBytesTotal int64 `json:"checkpoint_bytes_total"`
	CkptsFull      int64 `json:"checkpoints_full"`
	CkptsDelta     int64 `json:"checkpoints_delta"`
	CkptAppends    int64 `json:"checkpoint_appends"`
	CkptsTruncated int64 `json:"checkpoints_truncated"`
	// Tile-cache counters of the read-path serving tier, aggregated by the
	// fleet controller into nestctl_tile_cache_* fleet metrics.
	TileCacheHits      int64 `json:"tile_cache_hits"`
	TileCacheMisses    int64 `json:"tile_cache_misses"`
	TileCacheEvictions int64 `json:"tile_cache_evictions"`
	TileCacheBytes     int64 `json:"tile_cache_bytes"`
	Ready              bool  `json:"ready"`
}

// Stats snapshots the worker's aggregable counters.
func (s *Scheduler) Stats() WorkerStats {
	m := s.metrics
	ts := s.tiles.Stats()
	return WorkerStats{
		Workers:            s.cfg.Workers,
		QueueDepth:         len(s.queue),
		QueueCapacity:      cap(s.queue),
		Jobs:               s.CountsByState(),
		StepsExecuted:      m.stepsExecuted.Load(),
		JobsSubmitted:      m.jobsSubmitted.Load(),
		JobsCompleted:      m.jobsCompleted.Load(),
		JobsFailed:         m.jobsFailed.Load(),
		JobsImported:       m.jobsImported.Load(),
		JobsAdopted:        m.jobsAdopted.Load(),
		JobsFenced:         m.jobsFenced.Load(),
		JobsResized:        m.jobsResized.Load(),
		CkptsFenced:        m.checkpointsFenced.Load(),
		QueueRejects:       m.queueFullRejections.Load(),
		CkptBytesTotal:     m.checkpointBytesTotal.Load(),
		CkptsFull:          m.fullCheckpoints.Load(),
		CkptsDelta:         m.deltaCheckpoints.Load(),
		CkptAppends:        m.checkpointAppends.Load(),
		CkptsTruncated:     m.checkpointsTruncated.Load(),
		TileCacheHits:      ts.Hits,
		TileCacheMisses:    ts.Misses,
		TileCacheEvictions: ts.Evictions,
		TileCacheBytes:     ts.Bytes,
		Ready:              s.Ready(),
	}
}

// WritePrometheus renders the scheduler's full metric surface: the
// jobs-by-state gauge plus the cumulative counters.
func (s *Scheduler) WritePrometheus(w io.Writer) {
	counts := s.CountsByState()
	fmt.Fprintf(w, "# HELP nestserved_jobs Number of jobs by lifecycle state.\n# TYPE nestserved_jobs gauge\n")
	for _, st := range states() {
		fmt.Fprintf(w, "nestserved_jobs{state=%q} %d\n", string(st), counts[st])
	}
	fmt.Fprintf(w, "# HELP nestserved_workers Worker-pool size.\n# TYPE nestserved_workers gauge\nnestserved_workers %d\n", s.cfg.Workers)
	fmt.Fprintf(w, "# HELP nestserved_jobs_running Jobs currently executing on the worker pool.\n# TYPE nestserved_jobs_running gauge\nnestserved_jobs_running %d\n", counts[StateRunning])
	fmt.Fprintf(w, "# HELP nestserved_queue_depth Jobs waiting in the submit queue.\n# TYPE nestserved_queue_depth gauge\nnestserved_queue_depth %d\n", len(s.queue))
	fmt.Fprintf(w, "# HELP nestserved_queue_capacity Submit queue capacity.\n# TYPE nestserved_queue_capacity gauge\nnestserved_queue_capacity %d\n", cap(s.queue))

	m := s.metrics
	counter(w, "nestserved_jobs_submitted_total", "Jobs accepted by the scheduler.", m.jobsSubmitted.Load())
	counter(w, "nestserved_jobs_completed_total", "Jobs that ran to completion.", m.jobsCompleted.Load())
	counter(w, "nestserved_jobs_cancelled_total", "Jobs cancelled before completion.", m.jobsCancelled.Load())
	counter(w, "nestserved_jobs_failed_total", "Jobs that reached the failed state.", m.jobsFailed.Load())
	counter(w, "nestserved_job_retries_total", "Retry attempts scheduled after job failures.", m.jobRetries.Load())
	counter(w, "nestserved_worker_panics_total", "Job panics recovered by the worker pool.", m.workerPanics.Load())
	counter(w, "nestserved_auto_checkpoints_total", "Periodic job checkpoints written cleanly.", m.autoCheckpoints.Load())
	counter(w, "nestserved_checkpoint_failures_total", "Checkpoint writes that failed (previous good checkpoint kept).", m.checkpointFailures.Load())
	counter(w, "nestserved_steps_executed_total", "Parent simulation steps executed across all jobs.", m.stepsExecuted.Load())
	counter(w, "nestserved_adaptation_events_total", "PDA invocations recorded as adaptation events.", m.adaptationEvents.Load())
	counter(w, "nestserved_redist_bytes_moved_total", "Nest payload bytes moved across the modelled network by redistributions.", m.redistBytes.Load())
	counter(w, "nestserved_job_pauses_total", "Pause transitions (checkpointed or queued).", m.pauses.Load())
	counter(w, "nestserved_job_resumes_total", "Resume transitions from paused.", m.resumes.Load())
	counter(w, "nestserved_job_resizes_total", "In-place processor-grid resizes applied at step boundaries.", m.jobsResized.Load())
	counter(w, "nestserved_job_resize_failures_total", "Resize attempts that failed cleanly (job kept its old size).", m.resizeFailures.Load())
	counter(w, "nestserved_trace_ledger_failures_total", "Trace ledgers that failed to open or append.", m.ledgerFailures.Load())
	counter(w, "nestserved_queue_full_rejections_total", "Submits and resumes shed because the queue was full (HTTP 429).", m.queueFullRejections.Load())
	counter(w, "nestserved_checkpoints_recovered_total", "Persisted checkpoints re-registered as paused jobs at startup.", m.checkpointsRecovered.Load())
	counter(w, "nestserved_checkpoints_corrupt_total", "Persisted checkpoints rejected as torn or corrupt.", m.checkpointsCorrupt.Load())
	counter(w, "nestserved_jobs_imported_total", "Jobs registered via import (recovery, adoption, migration).", m.jobsImported.Load())
	counter(w, "nestserved_jobs_adopted_total", "Jobs adopted from the shared checkpoint store.", m.jobsAdopted.Load())
	counter(w, "nestserved_jobs_fenced_total", "Local job copies killed after their placement moved to another worker.", m.jobsFenced.Load())
	counter(w, "nestserved_checkpoints_fenced_total", "Checkpoint writes refused because the store held a higher-epoch file.", m.checkpointsFenced.Load())
	counter(w, "nestserved_checkpoint_bytes_total", "Encoded checkpoint bytes produced (full bases plus delta blobs).", m.checkpointBytesTotal.Load())
	counter(w, "nestserved_full_checkpoints_total", "Checkpoints cut as full base blobs.", m.fullCheckpoints.Load())
	counter(w, "nestserved_delta_checkpoints_total", "Checkpoints cut as replay delta blobs.", m.deltaCheckpoints.Load())
	counter(w, "nestserved_checkpoint_appends_total", "Delta blobs appended in place to checkpoint files (no rewrite).", m.checkpointAppends.Load())
	counter(w, "nestserved_checkpoints_truncated_total", "Persisted chains recovered from a torn delta tail (longest intact prefix restored).", m.checkpointsTruncated.Load())
	ts := s.tiles.Stats()
	counter(w, "nestserved_tile_cache_hits_total", "Tile reads served from the quantized tile cache.", ts.Hits)
	counter(w, "nestserved_tile_cache_misses_total", "Tile reads that encoded a tile (cache miss).", ts.Misses)
	counter(w, "nestserved_tile_cache_evictions_total", "Tiles evicted to hold the cache byte budget.", ts.Evictions)
	counter(w, "nestserved_tile_cache_bytes_total", "Resident payload bytes currently held by the tile cache.", ts.Bytes)
	fmt.Fprintf(w, "# HELP nestserved_last_checkpoint_bytes Size of the most recent pause checkpoint.\n# TYPE nestserved_last_checkpoint_bytes gauge\nnestserved_last_checkpoint_bytes %d\n", m.checkpointBytes.Load())
	summaryMetric(w, "nestserved_step_duration_seconds", "Wall-clock duration of one parent simulation step.", m.stepDur)
	summaryMetric(w, "nestserved_checkpoint_duration_seconds", "Wall-clock duration of one auto or pause checkpoint cut, end to end.", m.ckptDur)
	summaryMetric(w, "nestserved_checkpoint_encode_seconds", "Wall-clock duration of the checkpoint encode alone (binary codec plus delta planning).", m.ckptEncodeDur)
	summaryMetric(w, "nestserved_job_duration_seconds", "Wall-clock duration of completed jobs, first run to done.", m.jobDur)
	summaryMetric(w, "nestserved_resize_duration_seconds", "Wall-clock duration of one in-place processor-grid resize (excluding its anchor checkpoints).", m.resizeDur)
}
