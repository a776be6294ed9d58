package fleet

import (
	"fmt"
	"io"
	"sync/atomic"

	"nestdiff/internal/service"
)

// metrics holds the controller's own counters. Fleet-wide simulation
// metrics are not mirrored here — GET /metrics aggregates them live from
// the workers' /statz, so the controller never becomes a stale cache of
// worker truth.
type metrics struct {
	jobsPlaced          atomic.Int64
	placementFailures   atomic.Int64
	rejectedSaturated   atomic.Int64
	adoptions           atomic.Int64
	adoptionFailures    atomic.Int64
	workersRegistered   atomic.Int64
	workersDead         atomic.Int64
	workersDeregistered atomic.Int64
	proxyErrors         atomic.Int64
	migrations          atomic.Int64 // placements moved by join-rebalance or drain
	migrationFailures   atomic.Int64 // migrations aborted (job resumed in place)
	drains              atomic.Int64 // drain requests accepted
	fencesIssued        atomic.Int64 // fence commands sent (push or heartbeat reply)
	reconciles          atomic.Int64 // placements reconciled to a higher-epoch report
	walRecords          atomic.Int64 // journal records appended or replayed
	walTruncations      atomic.Int64 // corrupt tail lines dropped at startup
	walFailures         atomic.Int64 // journal opens/appends that failed
	walCompactions      atomic.Int64 // WAL snapshot+truncate passes completed
	resizesObserved     atomic.Int64 // placement core counts reconciled after worker resizes
	autoscaleResizes    atomic.Int64 // resize commands issued by the fleet autoscaler
}

func newMetrics() *metrics { return &metrics{} }

// Accessors for tests.
func (m *metrics) JobsPlaced() int64        { return m.jobsPlaced.Load() }
func (m *metrics) PlacementFailures() int64 { return m.placementFailures.Load() }
func (m *metrics) RejectedSaturated() int64 { return m.rejectedSaturated.Load() }
func (m *metrics) Adoptions() int64         { return m.adoptions.Load() }
func (m *metrics) AdoptionFailures() int64  { return m.adoptionFailures.Load() }
func (m *metrics) WorkersDead() int64       { return m.workersDead.Load() }
func (m *metrics) Migrations() int64        { return m.migrations.Load() }
func (m *metrics) MigrationFailures() int64 { return m.migrationFailures.Load() }
func (m *metrics) FencesIssued() int64      { return m.fencesIssued.Load() }
func (m *metrics) Drains() int64            { return m.drains.Load() }
func (m *metrics) Reconciles() int64        { return m.reconciles.Load() }
func (m *metrics) WALTruncations() int64    { return m.walTruncations.Load() }
func (m *metrics) WALCompactions() int64    { return m.walCompactions.Load() }
func (m *metrics) ResizesObserved() int64   { return m.resizesObserved.Load() }
func (m *metrics) AutoscaleResizes() int64  { return m.autoscaleResizes.Load() }

// FleetStats is the aggregated view GET /metrics and GET /statz expose:
// controller counters plus the sum of every live worker's WorkerStats.
type FleetStats struct {
	WorkersLive  int `json:"workers_live"`
	WorkersTotal int `json:"workers_total"`

	JobsPlaced        int64 `json:"jobs_placed"`
	PlacementFailures int64 `json:"placement_failures"`
	RejectedSaturated int64 `json:"rejected_saturated"`
	Adoptions         int64 `json:"adoptions"`
	AdoptionFailures  int64 `json:"adoption_failures"`
	WorkersDead       int64 `json:"workers_dead"`
	Deregistered      int64 `json:"workers_deregistered"`
	ProxyErrors       int64 `json:"proxy_errors"`
	Migrations        int64 `json:"migrations"`
	MigrationFailures int64 `json:"migration_failures"`
	Drains            int64 `json:"drains"`
	FencesIssued      int64 `json:"fences_issued"`
	Reconciles        int64 `json:"placements_reconciled"`
	WALRecords        int64 `json:"wal_records"`
	WALTruncations    int64 `json:"wal_truncations"`
	WALFailures       int64 `json:"wal_failures"`
	WALCompactions    int64 `json:"wal_compactions"`
	ResizesObserved   int64 `json:"resizes_observed"`
	AutoscaleResizes  int64 `json:"autoscale_resizes"`
	AutoscaleGrows    int64 `json:"autoscale_grows"`
	AutoscaleShrinks  int64 `json:"autoscale_shrinks"`
	AutoscaleFailures int64 `json:"autoscale_failures"`

	// Placements is the full placement table (id, worker, state, epoch,
	// adoptions) — the durable state a WAL replay must reproduce exactly,
	// which is why /statz carries it verbatim.
	Placements []placement `json:"placements"`

	// Sums over live workers' /statz; UnreachableWorkers counts live
	// workers whose /statz fetch failed (their share is missing from the
	// sums below).
	UnreachableWorkers int                      `json:"unreachable_workers"`
	Jobs               map[service.JobState]int `json:"jobs"`
	QueueDepth         int                      `json:"queue_depth"`
	QueueCapacity      int                      `json:"queue_capacity"`
	WorkerSlots        int                      `json:"worker_slots"`
	StepsExecuted      int64                    `json:"steps_executed"`
	JobsSubmitted      int64                    `json:"jobs_submitted"`
	JobsCompleted      int64                    `json:"jobs_completed"`
	JobsFailed         int64                    `json:"jobs_failed"`
	JobsImported       int64                    `json:"jobs_imported"`
	JobsAdopted        int64                    `json:"jobs_adopted"`
	QueueRejects       int64                    `json:"queue_full_rejections"`
	CkptBytesTotal     int64                    `json:"checkpoint_bytes_total"`
	CkptsFull          int64                    `json:"checkpoints_full"`
	CkptsDelta         int64                    `json:"checkpoints_delta"`
	CkptAppends        int64                    `json:"checkpoint_appends"`
	CkptsTruncated     int64                    `json:"checkpoints_truncated"`
	TileCacheHits      int64                    `json:"tile_cache_hits"`
	TileCacheMisses    int64                    `json:"tile_cache_misses"`
	TileCacheEvictions int64                    `json:"tile_cache_evictions"`
	TileCacheBytes     int64                    `json:"tile_cache_bytes"`
}

// Stats fans out to every live worker's /statz and folds the results into
// one fleet-wide view.
func (c *Controller) Stats() FleetStats {
	m := c.metrics
	fs := FleetStats{
		JobsPlaced:        m.jobsPlaced.Load(),
		PlacementFailures: m.placementFailures.Load(),
		RejectedSaturated: m.rejectedSaturated.Load(),
		Adoptions:         m.adoptions.Load(),
		AdoptionFailures:  m.adoptionFailures.Load(),
		WorkersDead:       m.workersDead.Load(),
		Deregistered:      m.workersDeregistered.Load(),
		ProxyErrors:       m.proxyErrors.Load(),
		Migrations:        m.migrations.Load(),
		MigrationFailures: m.migrationFailures.Load(),
		Drains:            m.drains.Load(),
		FencesIssued:      m.fencesIssued.Load(),
		Reconciles:        m.reconciles.Load(),
		WALRecords:        m.walRecords.Load(),
		WALTruncations:    m.walTruncations.Load(),
		WALFailures:       m.walFailures.Load(),
		WALCompactions:    m.walCompactions.Load(),
		ResizesObserved:   m.resizesObserved.Load(),
		AutoscaleResizes:  m.autoscaleResizes.Load(),
		Placements:        c.Placements(),
		Jobs:              make(map[service.JobState]int),
	}
	if as := c.autoscaler; as != nil {
		fs.AutoscaleGrows, fs.AutoscaleShrinks, fs.AutoscaleFailures = as.Counters()
	}
	fs.WorkersTotal = len(c.reg.all())
	for _, w := range c.reg.live() {
		fs.WorkersLive++
		if c.linkDown(w.ID) {
			fs.UnreachableWorkers++
			continue
		}
		var ws service.WorkerStats
		if err := c.getJSON(w.URL+"/statz", &ws); err != nil {
			fs.UnreachableWorkers++
			continue
		}
		for state, n := range ws.Jobs {
			fs.Jobs[state] += n
		}
		fs.QueueDepth += ws.QueueDepth
		fs.QueueCapacity += ws.QueueCapacity
		fs.WorkerSlots += ws.Workers
		fs.StepsExecuted += ws.StepsExecuted
		fs.JobsSubmitted += ws.JobsSubmitted
		fs.JobsCompleted += ws.JobsCompleted
		fs.JobsFailed += ws.JobsFailed
		fs.JobsImported += ws.JobsImported
		fs.JobsAdopted += ws.JobsAdopted
		fs.QueueRejects += ws.QueueRejects
		fs.CkptBytesTotal += ws.CkptBytesTotal
		fs.CkptsFull += ws.CkptsFull
		fs.CkptsDelta += ws.CkptsDelta
		fs.CkptAppends += ws.CkptAppends
		fs.CkptsTruncated += ws.CkptsTruncated
		fs.TileCacheHits += ws.TileCacheHits
		fs.TileCacheMisses += ws.TileCacheMisses
		fs.TileCacheEvictions += ws.TileCacheEvictions
		fs.TileCacheBytes += ws.TileCacheBytes
	}
	return fs
}

// WritePrometheus renders the fleet-wide view in Prometheus text
// exposition format, prefixed nestctl_.
func (c *Controller) WritePrometheus(w io.Writer) {
	fs := c.Stats()
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP nestctl_%s %s\n# TYPE nestctl_%s counter\nnestctl_%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP nestctl_%s %s\n# TYPE nestctl_%s gauge\nnestctl_%s %d\n", name, help, name, name, v)
	}
	gauge("fleet_workers_live", "Workers currently passing liveness.", int64(fs.WorkersLive))
	gauge("fleet_workers_total", "Workers ever registered (live and dead).", int64(fs.WorkersTotal))
	gauge("fleet_workers_unreachable", "Live workers whose stats fetch failed this scrape.", int64(fs.UnreachableWorkers))
	counter("fleet_jobs_placed_total", "Jobs placed onto workers by the controller.", fs.JobsPlaced)
	counter("fleet_placement_failures_total", "Placements rejected or unreachable at the worker.", fs.PlacementFailures)
	counter("fleet_jobs_rejected_total", "Submissions shed with 429 by fleet admission.", fs.RejectedSaturated)
	counter("fleet_adoptions_total", "Jobs adopted by survivors after a worker death.", fs.Adoptions)
	counter("fleet_adoption_failures_total", "Adoption attempts that failed (retried each sweep).", fs.AdoptionFailures)
	counter("fleet_workers_dead_total", "Workers declared dead after missing the liveness deadline.", fs.WorkersDead)
	counter("fleet_workers_deregistered_total", "Workers that left cleanly via deregister.", fs.Deregistered)
	counter("fleet_proxy_errors_total", "Job API proxy calls that failed at the worker.", fs.ProxyErrors)
	counter("fleet_migrations_total", "Placements moved by join-rebalance or drain handoff.", fs.Migrations)
	counter("fleet_migration_failures_total", "Migrations aborted with the job resumed in place.", fs.MigrationFailures)
	counter("fleet_drains_total", "Drain requests accepted.", fs.Drains)
	counter("fleet_fences_issued_total", "Fence commands issued to workers holding stale job copies.", fs.FencesIssued)
	counter("fleet_placements_reconciled_total", "Placements reconciled to a worker reporting a higher epoch (lost-reply recovery).", fs.Reconciles)
	counter("fleet_wal_records_total", "Placement WAL records appended or replayed.", fs.WALRecords)
	counter("fleet_wal_truncations_total", "Corrupt placement WAL tail lines dropped at startup.", fs.WALTruncations)
	counter("fleet_wal_failures_total", "Placement WAL opens or appends that failed.", fs.WALFailures)
	counter("fleet_wal_compactions_total", "Placement WAL snapshot+truncate passes completed.", fs.WALCompactions)
	counter("fleet_resizes_observed_total", "Placement core counts reconciled after worker-side resizes.", fs.ResizesObserved)
	counter("fleet_autoscale_resizes_total", "Resize commands issued by the fleet autoscaler.", fs.AutoscaleResizes)
	counter("fleet_autoscale_grows_total", "Autoscaler grow decisions applied.", fs.AutoscaleGrows)
	counter("fleet_autoscale_shrinks_total", "Autoscaler shrink decisions applied.", fs.AutoscaleShrinks)
	counter("fleet_autoscale_failures_total", "Autoscaler resize commands that failed at the worker.", fs.AutoscaleFailures)

	fmt.Fprintf(w, "# HELP nestctl_fleet_jobs Jobs across live workers by state.\n# TYPE nestctl_fleet_jobs gauge\n")
	for _, state := range []service.JobState{
		service.StateQueued, service.StateRunning, service.StatePaused,
		service.StateRetrying, service.StateDone, service.StateFailed,
		service.StateCancelled, service.StateFenced,
	} {
		fmt.Fprintf(w, "nestctl_fleet_jobs{state=%q} %d\n", state, fs.Jobs[state])
	}
	gauge("fleet_queue_depth", "Queued submissions across live workers.", int64(fs.QueueDepth))
	gauge("fleet_queue_capacity", "Total submit queue capacity across live workers.", int64(fs.QueueCapacity))
	gauge("fleet_worker_slots", "Concurrent job slots across live workers.", int64(fs.WorkerSlots))
	counter("fleet_steps_executed_total", "Simulation steps executed across live workers.", fs.StepsExecuted)
	counter("fleet_jobs_submitted_total", "Jobs accepted across live workers.", fs.JobsSubmitted)
	counter("fleet_jobs_completed_total", "Jobs completed across live workers.", fs.JobsCompleted)
	counter("fleet_jobs_failed_total", "Jobs failed across live workers.", fs.JobsFailed)
	counter("fleet_jobs_imported_total", "Checkpoint envelopes imported across live workers.", fs.JobsImported)
	counter("fleet_jobs_adopted_total", "Adoptions completed across live workers.", fs.JobsAdopted)
	counter("fleet_queue_full_rejections_total", "Worker-side queue-full rejections across live workers.", fs.QueueRejects)
	counter("fleet_checkpoint_bytes_total", "Encoded checkpoint bytes produced across live workers.", fs.CkptBytesTotal)
	counter("fleet_full_checkpoints_total", "Full-base checkpoints cut across live workers.", fs.CkptsFull)
	counter("fleet_delta_checkpoints_total", "Replay delta checkpoints cut across live workers.", fs.CkptsDelta)
	counter("fleet_checkpoint_appends_total", "In-place delta appends to checkpoint files across live workers.", fs.CkptAppends)
	counter("fleet_checkpoints_truncated_total", "Chains recovered from torn delta tails across live workers.", fs.CkptsTruncated)
	counter("tile_cache_hits_total", "Tile-cache hits across live workers' serving tiers.", fs.TileCacheHits)
	counter("tile_cache_misses_total", "Tile-cache misses across live workers' serving tiers.", fs.TileCacheMisses)
	counter("tile_cache_evictions_total", "Tile-cache evictions across live workers' serving tiers.", fs.TileCacheEvictions)
	gauge("tile_cache_bytes", "Resident tile-cache bytes across live workers' serving tiers.", fs.TileCacheBytes)
}
