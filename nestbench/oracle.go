package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"nestdiff/internal/core"
	"nestdiff/internal/elastic"
	"nestdiff/internal/geom"
	"nestdiff/internal/pda"
	"nestdiff/internal/scenario"
	"nestdiff/internal/service"
	"nestdiff/internal/wrfsim"
)

// Reference is the outcome of an uninterrupted in-process run of one job
// config, built from the public constructors of the layers: the oracle a
// fleet job's adaptation events and final costs must match bit for bit.
type Reference struct {
	Digest     string // sha256 of the JSON adaptation events
	Events     int
	ExecTime   float64
	RedistTime float64
	ExecRedist float64

	// Checkpoint blobs core.CheckpointWriter cuts at the service's default
	// auto-checkpoint cadence: a deterministic count of what the job
	// persists.
	CkptFull, CkptDelta           int
	CkptFullBytes, CkptDeltaBytes int64
}

// autoCheckpointSteps is the service's default auto-checkpoint interval
// (JobConfig.AutoCheckpointSteps zero).
const autoCheckpointSteps = 25

// buildPipeline assembles the pipeline a job config names, the way
// nestserved builds a fresh job, and returns it with its storm schedule.
func buildPipeline(cfg service.JobConfig) (*core.Pipeline, []scenario.TimedCell, error) {
	strat, err := service.ParseStrategy(cfg.Strategy)
	if err != nil {
		return nil, nil, err
	}
	m, err := elastic.BuildMachine(cfg.Cores, cfg.Machine, 8)
	if err != nil {
		return nil, nil, err
	}
	tracker, err := core.NewTracker(m.Grid, m.Net, m.Model, m.Oracle, strat, core.DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	var sched []scenario.TimedCell
	var nx, ny int
	switch strings.ToLower(cfg.Scenario) {
	case "monsoon":
		c := scenario.DefaultMonsoonConfig()
		c.Steps, c.Seed = cfg.Steps, cfg.Seed
		sched, nx, ny = scenario.MonsoonSchedule(c), c.NX, c.NY
	case "cyclone":
		c := scenario.DefaultCycloneConfig()
		c.Steps, c.Seed = cfg.Steps, cfg.Seed
		sched, nx, ny = scenario.CycloneSchedule(c), c.NX, c.NY
	case "burst":
		c := scenario.DefaultBurstConfig()
		c.Steps, c.Seed = cfg.Steps, cfg.Seed
		sched, nx, ny = scenario.BurstSchedule(c), c.NX, c.NY
	default:
		return nil, nil, fmt.Errorf("reference: scenario %q not in the benchmark", cfg.Scenario)
	}
	wcfg := wrfsim.DefaultConfig()
	wcfg.NX, wcfg.NY = nx, ny
	wcfg.SpawnRate = 0
	wcfg.Seed = cfg.Seed
	wcfg.MergeEnabled = strings.ToLower(cfg.Scenario) != "cyclone"
	wcfg.DecayTau = 2400
	wcfg.OLRPerQ = 10
	model, err := wrfsim.NewModel(wcfg)
	if err != nil {
		return nil, nil, err
	}
	wrfGrid := geom.NewGrid(8, 6)
	if nx == 180 && ny == 105 {
		wrfGrid = geom.NewGrid(18, 15)
	}
	pipe, err := core.NewPipeline(model, tracker, core.PipelineConfig{
		WRFGrid:       wrfGrid,
		AnalysisRanks: cfg.AnalysisRanks,
		Interval:      cfg.Interval,
		PDA:           pda.DefaultOptions(),
		MaxNests:      cfg.MaxNests,
		Distributed:   cfg.Distributed,
	})
	return pipe, sched, err
}

// stepTo advances pipe to step n, injecting the scheduled storms on the way.
func stepTo(pipe *core.Pipeline, sched []scenario.TimedCell, n int) error {
	for pipe.StepCount() < n {
		at := pipe.StepCount()
		for _, tc := range sched {
			if tc.AtStep == at {
				if err := pipe.Model().InjectCell(tc.Cell); err != nil {
					return err
				}
			}
		}
		if err := pipe.Step(); err != nil {
			return err
		}
	}
	return nil
}

// runReference runs cfg to completion and records its oracle.
func runReference(cfg service.JobConfig) (Reference, error) {
	pipe, sched, err := buildPipeline(cfg)
	if err != nil {
		return Reference{}, err
	}
	cw := core.NewCheckpointWriter(core.CheckpointWriterOptions{MaxDeltas: cfg.CkptDeltaMax})
	var ref Reference
	for pipe.StepCount() < cfg.Steps {
		if err := stepTo(pipe, sched, pipe.StepCount()+1); err != nil {
			return Reference{}, err
		}
		if pipe.StepCount()%autoCheckpointSteps == 0 && pipe.StepCount() < cfg.Steps {
			blob, full, err := cw.Encode(pipe)
			if err != nil {
				return Reference{}, err
			}
			if full {
				ref.CkptFull++
				ref.CkptFullBytes += int64(len(blob))
			} else {
				ref.CkptDelta++
				ref.CkptDeltaBytes += int64(len(blob))
			}
		}
	}
	events := pipe.Events()
	for _, e := range events {
		ref.ExecTime += e.Metrics.ExecTime
		ref.RedistTime += e.Metrics.RedistTime
		ref.ExecRedist += e.ExecutedRedistTime
	}
	ref.Events = len(events)
	ref.Digest, err = eventsDigest(events)
	return ref, err
}

// eventsDigest hashes adaptation events in their JSON wire form. Go's JSON
// float encoding round-trips exactly, so equal digests mean bit-identical
// events.
func eventsDigest(events []core.AdaptationEvent) (string, error) {
	b, err := json.Marshal(events)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// References computes the oracle of every config in a job list, nproc at a
// time.
func references(list []service.JobConfig, workers int) ([]Reference, error) {
	refs := make([]Reference, len(list))
	errs := make([]error, len(list))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range list {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			refs[i], errs[i] = runReference(list[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference %d (%s/%s): %w", i, list[i].Scenario, list[i].Strategy, err)
		}
	}
	return refs, nil
}

// verdict compares a finished fleet job with its reference. It returns ""
// when they agree bit for bit, else the first difference.
func verdict(ref Reference, snap service.Snapshot, events []core.AdaptationEvent) string {
	if snap.State != service.StateDone {
		return fmt.Sprintf("state %s (%s)", snap.State, snap.Error)
	}
	d, err := eventsDigest(events)
	if err != nil {
		return err.Error()
	}
	switch {
	case d != ref.Digest:
		return fmt.Sprintf("adaptation events differ from the reference (%d vs %d events)", len(events), ref.Events)
	case snap.RedistTime != ref.RedistTime:
		return fmt.Sprintf("redist_time %v, reference %v", snap.RedistTime, ref.RedistTime)
	case snap.ExecTime != ref.ExecTime:
		return fmt.Sprintf("exec_time %v, reference %v", snap.ExecTime, ref.ExecTime)
	case snap.ExecutedRedistTime != ref.ExecRedist:
		return fmt.Sprintf("executed_redist_time %v, reference %v", snap.ExecutedRedistTime, ref.ExecRedist)
	}
	return ""
}
