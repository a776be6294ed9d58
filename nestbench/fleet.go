package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"nestdiff/internal/fleet"
	"nestdiff/internal/service"
)

// fleetWorkers is the number of nestserved workers in the benchmark fleet.
// Each runs a one-job pool, so the fleet simulates at most two jobs at a
// time on the two-CPU reference host.
const fleetWorkers = 2

// snapshotEvery makes each worker materialize a job's read snapshot every
// this many steps (nestserved -snapshot-every). Every job length in the
// workload table is a multiple of it, so a finished job's final state is
// readable even when nobody read the job while it ran.
const snapshotEvery = 25

// livenessDeadline is the controller's worker liveness deadline
// (nestctl -liveness-deadline). The benchmark never stops a worker, so a
// worker declared dead could only be one whose heartbeats a stalled host
// delayed past the deadline; its jobs would then be adopted and restored,
// work no workload means to measure. The deadline is longer than a host
// stall a run can survive within its time limit anyway.
const livenessDeadline = time.Minute

// Fleet is an in-process nestctl controller and its nestserved workers,
// all on loopback listeners, wired exactly as the two daemons wire them:
// the controller journals placements to a WAL state dir and the workers
// share one checkpoint dir.
type Fleet struct {
	URL     string   // controller base URL
	Workers []string // worker base URLs, index i is worker "w<i+1>"

	dir     string
	ctl     *fleet.Controller
	servers []*http.Server
	scheds  []*service.Scheduler
	agents  []*service.Agent
	served  chan error
}

// startFleet starts a fleet under a fresh directory of root and returns once
// the controller's /readyz answers 200 and lists every worker as live.
func startFleet(root string, tileCacheBytes int64) (*Fleet, error) {
	dir, err := os.MkdirTemp(root, "fleet-")
	if err != nil {
		return nil, fmt.Errorf("fleet dir: %w", err)
	}
	f := &Fleet{dir: dir, served: make(chan error, fleetWorkers+1)}
	ckptDir, walDir := filepath.Join(dir, "ckpt"), filepath.Join(dir, "wal")
	for _, d := range []string{ckptDir, walDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			f.Stop()
			return nil, err
		}
	}
	// The controller opens its WAL in an existing state dir only; without
	// one it runs in memory and counts a WAL failure.
	f.ctl = fleet.NewController(fleet.Config{StateDir: walDir, LivenessDeadline: livenessDeadline})
	if f.URL, err = f.serve(f.ctl.Handler()); err != nil {
		f.Stop()
		return nil, err
	}
	for i := 0; i < fleetWorkers; i++ {
		sched := service.NewScheduler(service.SchedulerConfig{
			Workers:         1,
			CheckpointDir:   ckptDir,
			DisableRecovery: true,
			TileCacheBytes:  tileCacheBytes,
			SnapshotEvery:   snapshotEvery,
		})
		f.scheds = append(f.scheds, sched)
		url, err := f.serve(service.NewHandler(sched))
		if err != nil {
			f.Stop()
			return nil, err
		}
		f.Workers = append(f.Workers, url)
		agent, err := service.StartAgent(service.AgentConfig{
			ControllerURL: f.URL,
			WorkerID:      fmt.Sprintf("w%d", i+1),
			AdvertiseURL:  url,
			Sched:         sched,
		})
		if err != nil {
			f.Stop()
			return nil, err
		}
		f.agents = append(f.agents, agent)
	}
	if err := f.waitReady(10 * time.Second); err != nil {
		f.Stop()
		return nil, err
	}
	return f, nil
}

// serve starts an HTTP server for h on a loopback port.
func (f *Fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	f.servers = append(f.servers, srv)
	go func() { f.served <- srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), nil
}

// waitReady polls the controller until /readyz is 200 and every worker is
// registered and live.
func (f *Fleet) waitReady(limit time.Duration) error {
	c := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if f.ready(c) {
			return nil
		}
		time.Sleep(100 * time.Microsecond)
	}
	return errors.New("fleet: not ready within " + limit.String())
}

func (f *Fleet) ready(c *http.Client) bool {
	resp, err := c.Get(f.URL + "/readyz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	resp, err = c.Get(f.URL + "/fleet/workers")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var ws []struct {
		ID   string `json:"id"`
		Live bool   `json:"live"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ws); err != nil {
		return false
	}
	live := 0
	for _, w := range ws {
		if w.Live {
			live++
		}
	}
	return live == fleetWorkers
}

// Stop shuts the fleet down, waits for every server goroutine it started
// and removes its directory.
func (f *Fleet) Stop() {
	for _, a := range f.agents {
		a.Deregister()
		a.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range f.servers {
		srv.Shutdown(ctx)
	}
	for range f.servers {
		<-f.served
	}
	for _, s := range f.scheds {
		if s.Shutdown(ctx) != nil {
			s.Kill()
		}
	}
	if f.ctl != nil {
		f.ctl.Close()
	}
	os.RemoveAll(f.dir)
}

// timeSetups starts and stops a fleet n times and returns the per-start
// set-up times.
func timeSetups(root string, tileCacheBytes int64, n int) ([]float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		f, s, err := timedStart(root, tileCacheBytes)
		if err != nil {
			return nil, err
		}
		secs = append(secs, s)
		f.Stop()
	}
	return secs, nil
}

// timedStart starts a fleet and returns it with its set-up time in seconds.
func timedStart(root string, tileCacheBytes int64) (*Fleet, float64, error) {
	t0 := time.Now()
	f, err := startFleet(root, tileCacheBytes)
	return f, time.Since(t0).Seconds(), err
}
