package wrfsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"nestdiff/internal/faults"
	"nestdiff/internal/field"
	"nestdiff/internal/geom"
)

// setupNestPair builds a serial nest and a distributed nest over the same
// region of the same model state.
func setupNestPair(t *testing.T, procs geom.Rect) (*Model, *Nest, *ParallelNest, geom.Grid) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NX, cfg.NY = 96, 72
	cfg.SpawnRate = 0
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range testCells() {
		if err := m.InjectCell(c); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 15; i++ {
		m.Step()
	}
	region := geom.NewRect(12, 10, 24, 20) // fine 72x60
	serial, err := m.SpawnNest(1, region)
	if err != nil {
		t.Fatal(err)
	}
	pg := geom.NewGrid(8, 6)
	par, err := m.NewParallelNest(1, region, pg, procs)
	if err != nil {
		t.Fatal(err)
	}
	return m, serial, par, pg
}

func maxAbsDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestParallelNestMatchesSerial(t *testing.T) {
	for _, procs := range []geom.Rect{
		geom.NewRect(0, 0, 1, 1), // single rank
		geom.NewRect(0, 0, 4, 3),
		geom.NewRect(2, 1, 5, 4), // offset sub-grid
	} {
		m, serial, par, pg := setupNestPair(t, procs)
		w := parallelWorld(t, pg.Size())
		for i := 0; i < 8; i++ {
			m.Step()
			serial.Step(m)
			if err := par.Step(w, m.Config(), m.Cells()); err != nil {
				t.Fatalf("procs %v: %v", procs, err)
			}
		}
		if par.StepCount() != serial.StepCount() {
			t.Fatalf("substep counts differ: %d vs %d", par.StepCount(), serial.StepCount())
		}
		got := par.Gather()
		if d := maxAbsDiff(got.Data, serial.QCloud().Data); d > 1e-12 {
			t.Fatalf("procs %v: distributed nest deviates from serial by %g", procs, d)
		}
	}
}

func TestParallelNestRedistributeMidRun(t *testing.T) {
	// The paper's full runtime story: step distributed, reallocate to a
	// different sub-grid with one Alltoallv, keep stepping — and stay
	// bit-identical to a serial nest that never moved.
	m, serial, par, pg := setupNestPair(t, geom.NewRect(0, 0, 4, 3))
	w := parallelWorld(t, pg.Size())
	for i := 0; i < 4; i++ {
		m.Step()
		serial.Step(m)
		if err := par.Step(w, m.Config(), m.Cells()); err != nil {
			t.Fatal(err)
		}
	}
	elapsed, err := par.Redistribute(w, geom.NewRect(4, 2, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Fatal("redistribution to a disjoint sub-grid cost nothing")
	}
	if par.Procs() != geom.NewRect(4, 2, 3, 4) {
		t.Fatalf("sub-grid not updated: %v", par.Procs())
	}
	for i := 0; i < 4; i++ {
		m.Step()
		serial.Step(m)
		if err := par.Step(w, m.Config(), m.Cells()); err != nil {
			t.Fatal(err)
		}
	}
	if d := maxAbsDiff(par.Gather().Data, serial.QCloud().Data); d > 1e-12 {
		t.Fatalf("post-redistribution nest deviates from serial by %g", d)
	}
}

func TestParallelNestRedistributeOverlapCheaper(t *testing.T) {
	// Diffusion's whole point, measured on the executed nest exchange: an
	// anchored grow beats a disjoint move.
	_, _, parGrow, pg := setupNestPair(t, geom.NewRect(0, 0, 4, 3))
	w := parallelWorld(t, pg.Size())
	tGrow, err := parGrow.Redistribute(w, geom.NewRect(0, 0, 5, 3))
	if err != nil {
		t.Fatal(err)
	}
	_, _, parFar, _ := setupNestPair(t, geom.NewRect(0, 0, 4, 3))
	tFar, err := parFar.Redistribute(w, geom.NewRect(4, 3, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if tGrow >= tFar {
		t.Fatalf("anchored grow (%g) not cheaper than disjoint move (%g)", tGrow, tFar)
	}
}

func TestParallelNestValidation(t *testing.T) {
	m, _, par, pg := setupNestPair(t, geom.NewRect(0, 0, 4, 3))
	// Region/processor validation on creation.
	if _, err := m.NewParallelNest(2, geom.Rect{}, pg, geom.NewRect(0, 0, 2, 2)); err == nil {
		t.Error("empty region accepted")
	}
	if _, err := m.NewParallelNest(2, geom.NewRect(0, 0, 10, 10), pg, geom.NewRect(7, 5, 4, 4)); err == nil {
		t.Error("out-of-grid sub-rectangle accepted")
	}
	// Too many ranks for the fine extents (blocks below halo width).
	if _, err := m.NewParallelNest(2, geom.NewRect(0, 0, 2, 2), pg, geom.NewRect(0, 0, 8, 6)); err == nil {
		t.Error("sub-halo blocks accepted")
	}
	// World size mismatch.
	wrong := parallelWorld(t, 12)
	if err := par.Step(wrong, m.Config(), nil); err == nil {
		t.Error("world size mismatch accepted by Step")
	}
	if _, err := par.Redistribute(wrong, geom.NewRect(0, 0, 2, 2)); err == nil {
		t.Error("world size mismatch accepted by Redistribute")
	}
	w := parallelWorld(t, pg.Size())
	if _, err := par.Redistribute(w, geom.Rect{}); err == nil {
		t.Error("empty new sub-rectangle accepted")
	}
	// A decomposition whose blocks fall below the halo width: a tiny nest
	// spread over many ranks.
	tiny, err := m.NewParallelNest(3, geom.NewRect(0, 0, 4, 4), pg, geom.NewRect(0, 0, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tiny.Redistribute(w, geom.NewRect(0, 0, 8, 6)); err == nil {
		t.Error("sub-halo new decomposition accepted")
	}
}

func TestParallelNestIdentityRedistributionIsFree(t *testing.T) {
	_, _, par, pg := setupNestPair(t, geom.NewRect(1, 1, 4, 3))
	w := parallelWorld(t, pg.Size())
	before := par.Gather()
	elapsed, err := par.Redistribute(w, geom.NewRect(1, 1, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed != 0 {
		t.Fatalf("identity redistribution cost %g", elapsed)
	}
	if d := maxAbsDiff(par.Gather().Data, before.Data); d != 0 {
		t.Fatal("identity redistribution corrupted data")
	}
}

// digestFields hashes the exact bits of the given fields in order.
func digestFields(fs ...*field.Field) string {
	h := sha256.New()
	var b [8]byte
	for _, f := range fs {
		binary.LittleEndian.PutUint64(b[:], uint64(f.NX)<<32|uint64(f.NY))
		h.Write(b[:])
		for _, v := range f.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenParallelNestDigest pins the exact bits TestParallelNestStepGolden
// produces. It was captured from the per-substep stepping that predates
// member-only execution; any change to the distributed nest's arithmetic
// or halo traffic breaks it (the serial-equality tests allow 1e-12 and
// cannot see a bit change).
const goldenParallelNestDigest = "fbed78404cf3883574dab7207ba7854d18e7e7a19051888b303a706b86a50d43"

// TestParallelNestStepGolden steps one nest across a mid-run
// Redistribute, then two disjoint nests concurrently on the same world,
// and compares the sha256 of the gathered fine fields with a golden.
func TestParallelNestStepGolden(t *testing.T) {
	m, _, par, pg := setupNestPair(t, geom.NewRect(0, 0, 4, 3))
	w := parallelWorld(t, pg.Size())
	step := func(ns ...*ParallelNest) {
		m.Step()
		errs := make([]error, len(ns))
		var wg sync.WaitGroup
		for i, n := range ns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = n.Step(w, m.Config(), m.Cells())
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 3; i++ {
		step(par)
	}
	if _, err := par.Redistribute(w, geom.NewRect(4, 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		step(par)
	}
	// A second nest on ranks disjoint from the first's new sub-rectangle.
	other, err := m.NewParallelNest(2, geom.NewRect(50, 40, 30, 24), pg, geom.NewRect(0, 0, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		step(par, other)
	}
	if par.StepCount() != 10*NestRatio || other.StepCount() != 4*NestRatio {
		t.Fatalf("substep counts %d, %d", par.StepCount(), other.StepCount())
	}
	if got := digestFields(par.Gather(), other.Gather()); got != goldenParallelNestDigest {
		t.Fatalf("gathered nest digest %s, golden %s", got, goldenParallelNestDigest)
	}
}

// TestParallelNestStepAllocsScaleWithMembers: a nest step costs
// allocations in proportion to the ranks of its sub-rectangle, not to the
// world it runs on — non-member ranks get no goroutine.
func TestParallelNestStepAllocsScaleWithMembers(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	for _, procs := range []geom.Rect{geom.NewRect(0, 0, 2, 2), geom.NewRect(0, 0, 4, 3)} {
		m, _, par, pg := setupNestPair(t, procs)
		w := parallelWorld(t, pg.Size())
		cfg, cells := m.Config(), m.Cells()
		step := func() {
			if err := par.Step(w, cfg, cells); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			step() // warm the per-rank buffers and the payload pool
		}
		members := procs.Area()
		allocs := testing.AllocsPerRun(20, step)
		t.Logf("procs %v (%d of %d ranks): %v allocs per Step", procs, members, pg.Size(), allocs)
		if limit := float64(3*members + 8); allocs > limit {
			t.Errorf("procs %v (%d of %d ranks): %v allocs per Step, want <= %v",
				procs, members, pg.Size(), allocs, limit)
		}
	}
}

// TestParallelNestDropFiresAtSameMessage: a drop rule aimed at one nest
// halo stream fires on exactly that message, during the parent step whose
// substep carries its tag, and fails that step.
func TestParallelNestDropFiresAtSameMessage(t *testing.T) {
	m, _, par, pg := setupNestPair(t, geom.NewRect(0, 0, 4, 3))
	w := parallelWorld(t, pg.Size())
	from := pg.Rank(geom.Point{X: 1, Y: 1})
	to := pg.Rank(geom.Point{X: 2, Y: 1})
	dropTag := (NestRatio+1)*16 + tag(1, 0) // second parent step, second substep
	plan := faults.NewPlan(1).DropMessage(from, to, dropTag, 1).WithRecvTimeout(200 * time.Millisecond)
	w.SetFaults(plan)
	failedAt := 0
	for step := 1; step <= 3 && failedAt == 0; step++ {
		plan.SetStep(step)
		m.Step()
		if err := par.Step(w, m.Config(), m.Cells()); err != nil {
			if !strings.Contains(err.Error(), "timed out") {
				t.Fatalf("step %d: error %v, want a receive timeout", step, err)
			}
			failedAt = step
		}
	}
	if failedAt != 2 {
		t.Fatalf("drop failed parent step %d, want 2", failedAt)
	}
	inj := plan.Injections()
	if len(inj) != 1 {
		t.Fatalf("injections %+v, want exactly one drop", inj)
	}
	want := faults.Injection{Kind: faults.KindMessageDrop, Step: 2, From: from, To: to, Tag: dropTag}
	got := inj[0]
	got.Detail = ""
	if got != want {
		t.Fatalf("injection %+v, want %+v", got, want)
	}
}
