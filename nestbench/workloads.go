package main

import (
	"fmt"
	"math/rand"

	"nestdiff/internal/service"
)

// Workload is one row of the declarative workload table, in the style of a
// Multiverse Configuration: the job variations (scenario × strategy), the
// repetitions of each (distinct scenario seeds),
// and how the single load generator offers them to the fleet.
type Workload struct {
	Name string
	Why  string

	// Clients is the number of closed-loop clients: each submits its next
	// job only after the previous one is terminal.
	Clients int

	// Variations × Repetitions is the fixed job list. Every job in a run is
	// drawn from it, and the deterministic section runs it once. The list
	// does not depend on the workload seed, so the deterministic section
	// repeats exactly between any two runs; the seed orders the jobs and
	// draws the reads.
	Scenarios   []string
	Strategies  []string
	Repetitions int
	Steps       int
	Distributed bool
	StepDelayMS int

	// Open-loop read mix: reads per second, sent on a fixed schedule while
	// the clients keep jobs running, and the workers' tile-cache budget,
	// set below the finished jobs' key set so that eviction runs.
	ReadRate       float64
	TileCacheBytes int64

	// Lifecycle: each job gets pause→resume, a resize down and back up and
	// a checkpoint export mid-run.
	Control bool
	// DefaultConfig runs service.DefaultJobConfig unchanged (one variation,
	// the default seed) instead of the scenario × strategy table.
	DefaultConfig bool
}

// defaultTileCache is the workers' tile-cache budget where a workload sets
// none (nestserved's own default).
const defaultTileCache = 64 << 20

// workloads is the benchmark's workload table. BENCHMARK.json lists the
// ones the driver runs; lifecycle is left out of it because its pause and
// resume fail at this commit (see README.md), and a driver workload must
// have no failing operation.
var workloads = []Workload{
	{
		Name:      "track",
		Why:       "the paper's pipeline on the serial path: wrfsim, pda, core tracker and checkpoint encode+persist do the work; serve sits idle",
		Clients:   2,
		Scenarios: []string{"monsoon", "cyclone", "burst"}, Strategies: []string{"diffusion", "dynamic"},
		Repetitions: 2, Steps: 300,
	},
	{
		Name:      "distributed",
		Why:       "per-step mpi.World.Run spawns, halo exchange and executed Alltoallv redistribution dominate; track is its no-change control",
		Clients:   2,
		Scenarios: []string{"monsoon", "cyclone", "burst"}, Strategies: []string{"scratch", "diffusion"},
		Repetitions: 1, Steps: 100, Distributed: true,
	},
	{
		Name:      "read-mix",
		Why:       "open-loop field reads: serve snapshots, tile encode and cache, the nestctl proxy and the service HTTP layer do the work",
		Clients:   2,
		Scenarios: []string{"monsoon", "cyclone", "burst"}, Strategies: []string{"diffusion"},
		Repetitions: 2, Steps: 200, StepDelayMS: 4,
		ReadRate: 150, TileCacheBytes: 256 << 10,
	},
	{
		Name:          "lifecycle",
		Why:           "pause/resume, resize and checkpoint export: the only workload that reads checkpoints (core.RestorePipeline, delta replay) and runs elastic.Resize",
		Clients:       1,
		DefaultConfig: true, Repetitions: 1, Steps: 300, StepDelayMS: 2,
		Control: true,
	},
}

func findWorkload(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w Workload) tileCache() int64 {
	if w.TileCacheBytes > 0 {
		return w.TileCacheBytes
	}
	return defaultTileCache
}

// listSeed seeds the scenario seeds of the fixed job lists.
const listSeed = 2607

// jobList expands the variations × repetitions into the fixed job list.
// Each repetition of a scenario gets its own scenario seed.
func (w Workload) jobList() []service.JobConfig {
	if w.DefaultConfig {
		cfg := service.DefaultJobConfig()
		cfg.Steps = w.Steps
		cfg.StepDelayMS = w.StepDelayMS
		return []service.JobConfig{cfg}
	}
	rng := rand.New(rand.NewSource(listSeed))
	var out []service.JobConfig
	for rep := 0; rep < w.Repetitions; rep++ {
		for _, sc := range w.Scenarios {
			jobSeed := 1 + rng.Int63n(1<<30)
			for _, st := range w.Strategies {
				cfg := service.DefaultJobConfig()
				cfg.Scenario, cfg.Strategy, cfg.Seed = sc, st, jobSeed
				cfg.Steps, cfg.Distributed, cfg.StepDelayMS = w.Steps, w.Distributed, w.StepDelayMS
				out = append(out, cfg)
			}
		}
	}
	return out
}

// sequence yields indices into a job list in a seeded order: shuffled
// rounds over the whole list, so every job of the list recurs equally often
// however many jobs a run completes.
type sequence struct {
	rng   *rand.Rand
	n     int
	round []int
}

func newSequence(seed int64, n int) *sequence {
	return &sequence{rng: rand.New(rand.NewSource(seed ^ 0x5eed)), n: n}
}

func (s *sequence) next() int {
	if len(s.round) == 0 {
		s.round = s.rng.Perm(s.n)
	}
	i := s.round[0]
	s.round = s.round[1:]
	return i
}
