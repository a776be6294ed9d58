package core

import (
	"testing"

	"nestdiff/internal/geom"
	"nestdiff/internal/pda"
	"nestdiff/internal/scenario"
	"nestdiff/internal/wrfsim"
)

// monsoonPipeline builds a small end-to-end pipeline with scripted storms.
func monsoonPipeline(t *testing.T, strategy Strategy) (*Pipeline, *wrfsim.Model) {
	t.Helper()
	wcfg := wrfsim.DefaultConfig()
	wcfg.NX, wcfg.NY = 96, 72
	wcfg.SpawnRate = 0
	m, err := wrfsim.NewModel(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []wrfsim.Cell{
		{X: 20, Y: 18, Radius: 5, Peak: 2.5, Life: 3 * 3600},
		{X: 70, Y: 50, Radius: 4, Peak: 2.0, Life: 5 * 3600},
	} {
		if err := m.InjectCell(c); err != nil {
			t.Fatal(err)
		}
	}

	tr := newTestTracker(t, geom.NewGrid(16, 16), strategy)
	pcfg := PipelineConfig{
		WRFGrid:       geom.NewGrid(8, 6),
		AnalysisRanks: 6,
		Interval:      5,
		PDA:           pda.DefaultOptions(),
		MaxNests:      6,
	}
	p, err := NewPipeline(m, tr, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, m
}

func TestNewPipelineValidation(t *testing.T) {
	m, err := wrfsim.NewModel(wrfsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTestTracker(t, geom.NewGrid(16, 16), Diffusion)
	bad := DefaultPipelineConfig()
	bad.Interval = 0
	if _, err := NewPipeline(m, tr, bad); err == nil {
		t.Error("zero interval accepted")
	}
	bad = DefaultPipelineConfig()
	bad.AnalysisRanks = bad.WRFGrid.Size() + 1
	if _, err := NewPipeline(m, tr, bad); err == nil {
		t.Error("too many analysis ranks accepted")
	}
	bad = DefaultPipelineConfig()
	cell := wrfsim.Cell{X: 20, Y: 18, Radius: 4, Peak: 2, Life: 3600}
	bad.Genesis = []scenario.TimedCell{{AtStep: 5, Cell: cell}, {AtStep: 2, Cell: cell}}
	if _, err := NewPipeline(m, tr, bad); err == nil {
		t.Error("unsorted genesis schedule accepted")
	}
	if _, err := NewPipeline(nil, tr, DefaultPipelineConfig()); err == nil {
		t.Error("nil model accepted")
	}
}

// TestPipelineInjectsGenesisOnSchedule: a scheduled cell is born at the
// top of the step that starts at its AtStep — the service's injection
// point before genesis moved into the pipeline.
func TestPipelineInjectsGenesisOnSchedule(t *testing.T) {
	wcfg := wrfsim.DefaultConfig()
	wcfg.NX, wcfg.NY = 96, 72
	wcfg.SpawnRate = 0
	m, err := wrfsim.NewModel(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(m, newTestTracker(t, geom.NewGrid(16, 16), Diffusion), PipelineConfig{
		WRFGrid:       geom.NewGrid(8, 6),
		AnalysisRanks: 6,
		Interval:      5,
		PDA:           pda.DefaultOptions(),
		Genesis: []scenario.TimedCell{
			{AtStep: 0, Cell: wrfsim.Cell{X: 20, Y: 18, Radius: 4, Peak: 2, Life: 3600}},
			{AtStep: 3, Cell: wrfsim.Cell{X: 70, Y: 50, Radius: 4, Peak: 2, Life: 3600}},
			{AtStep: 3, Cell: wrfsim.Cell{X: 20, Y: 55, Radius: 4, Peak: 2, Life: 3600}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for step, want := range []int{1, 1, 1, 3, 3} {
		if err := p.Step(); err != nil {
			t.Fatal(err)
		}
		if got := len(m.Cells()); got != want {
			t.Fatalf("after step %d: %d live cells, want %d", step+1, got, want)
		}
	}
}

func TestPipelineDetectsAndSpawnsNests(t *testing.T) {
	p, _ := monsoonPipeline(t, Diffusion)
	// One simulated hour: storms mature, PDA fires every 5 steps.
	if err := p.Run(40); err != nil {
		t.Fatal(err)
	}
	events := p.Events()
	if len(events) != 8 {
		t.Fatalf("adaptation events = %d, want 8", len(events))
	}
	if len(p.Nests()) == 0 {
		t.Fatal("no nests spawned for two mature storms")
	}
	if len(p.Nests()) > 6 {
		t.Fatalf("MaxNests cap violated: %d nests", len(p.Nests()))
	}
	// The live nest set, the tracker allocation and the nest objects must
	// agree.
	set := p.ActiveSet()
	if len(set) != len(p.Nests()) {
		t.Fatalf("active set has %d nests, %d simulations live", len(set), len(p.Nests()))
	}
	allocRects := p.tracker.Allocation().Rects
	for _, spec := range set {
		nest, ok := p.Nests()[spec.ID]
		if !ok {
			t.Fatalf("nest %d has no simulation", spec.ID)
		}
		if nest.Region != spec.Region {
			t.Fatalf("nest %d region mismatch: sim %v, set %v", spec.ID, nest.Region, spec.Region)
		}
		if _, ok := allocRects[spec.ID]; !ok {
			t.Fatalf("nest %d has no processor allocation", spec.ID)
		}
	}
	if err := p.tracker.Allocation().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineRetainsNestIdentityAcrossSteps(t *testing.T) {
	p, _ := monsoonPipeline(t, Diffusion)
	if err := p.Run(25); err != nil {
		t.Fatal(err)
	}
	before := p.ActiveSet().IDs()
	if len(before) == 0 {
		t.Skip("storms not yet detected at this horizon")
	}
	if err := p.Run(10); err != nil {
		t.Fatal(err)
	}
	after := p.ActiveSet()
	retained := 0
	for _, id := range before {
		if _, ok := after.ByID(id); ok {
			retained++
		}
	}
	if retained == 0 {
		t.Fatal("no nest identity retained across adaptation points for persistent storms")
	}
	// Later events should show retained nests in their diffs.
	last := p.Events()[len(p.Events())-1]
	if len(last.Set) > 0 && len(last.Diff.Retained) == 0 && len(last.Diff.Added) == len(last.Set) {
		t.Fatal("diff treats persistent storms as all-new nests")
	}
}

func TestPipelineNestsDisappearWithStorms(t *testing.T) {
	// With short-lived storms and long runs, nests must eventually be
	// deleted when the clouds dissipate.
	wcfg := wrfsim.DefaultConfig()
	wcfg.NX, wcfg.NY = 96, 72
	wcfg.SpawnRate = 0
	m, err := wrfsim.NewModel(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InjectCell(wrfsim.Cell{X: 40, Y: 30, Radius: 5, Peak: 2.5, Life: 2400}); err != nil {
		t.Fatal(err)
	}
	tr := newTestTracker(t, geom.NewGrid(16, 16), Diffusion)
	p, err := NewPipeline(m, tr, PipelineConfig{
		WRFGrid:       geom.NewGrid(8, 6),
		AnalysisRanks: 4,
		Interval:      5,
		PDA:           pda.DefaultOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(30); err != nil {
		t.Fatal(err)
	}
	sawNest := len(p.Nests()) > 0      // storm active around one simulated hour
	if err := p.Run(150); err != nil { // five more hours: full decay
		t.Fatal(err)
	}
	if !sawNest {
		// The storm must at least have been detected at some point.
		for _, e := range p.Events() {
			if len(e.Set) > 0 {
				sawNest = true
				break
			}
		}
	}
	if !sawNest {
		t.Fatal("storm never detected")
	}
	if len(p.Nests()) != 0 {
		t.Fatalf("%d nests still alive long after the storm dissipated", len(p.Nests()))
	}
}

func TestPipelineEventMetricsFlow(t *testing.T) {
	// Run long enough for the shorter-lived storm's cloud to fully decay
	// (cell dies at 90 steps, then a few decay e-foldings): its nest
	// deletion forces a reallocation that redistributes the surviving
	// nest.
	p, _ := monsoonPipeline(t, Dynamic)
	if err := p.Run(320); err != nil {
		t.Fatal(err)
	}
	var redistSeen bool
	for _, e := range p.Events() {
		if len(e.Diff.Retained) > 0 && e.Metrics.RedistTime > 0 {
			redistSeen = true
		}
	}
	if !redistSeen {
		t.Fatal("no adaptation event recorded redistribution for retained nests")
	}
}

func TestMatchROIsGreedyBestOverlap(t *testing.T) {
	p, _ := monsoonPipeline(t, Diffusion)
	p.set = scenario.Set{
		{ID: 3, Region: geom.NewRect(0, 0, 20, 20)},
		{ID: 5, Region: geom.NewRect(40, 40, 20, 20)},
	}
	p.nextID = 6
	rects := []geom.Rect{
		geom.NewRect(2, 2, 20, 20),   // overlaps nest 3 strongly
		geom.NewRect(41, 41, 18, 18), // overlaps nest 5
		geom.NewRect(70, 10, 15, 15), // new
	}
	got := p.matchROIs(rects)
	if len(got) != 3 {
		t.Fatalf("matched %d nests", len(got))
	}
	if got[0].ID != 3 || got[1].ID != 5 {
		t.Fatalf("identities not retained: %v", got.IDs())
	}
	if got[2].ID != 6 {
		t.Fatalf("new nest ID = %d, want 6", got[2].ID)
	}
	// A second new rect later must get 7.
	got2 := p.matchROIs([]geom.Rect{geom.NewRect(0, 50, 10, 10)})
	if got2[0].ID != 7 {
		t.Fatalf("next ID = %d, want 7", got2[0].ID)
	}
}

func TestMatchROIsOneRectPerNest(t *testing.T) {
	p, _ := monsoonPipeline(t, Diffusion)
	p.set = scenario.Set{{ID: 2, Region: geom.NewRect(0, 0, 30, 30)}}
	p.nextID = 3
	// Two rects both overlap nest 2: the larger overlap keeps the ID (and
	// the frozen region); the smaller one, overlapping the retained
	// region, is dropped — WRF sibling domains must be disjoint.
	rects := []geom.Rect{
		geom.NewRect(20, 20, 20, 20), // small overlap (10x10)
		geom.NewRect(0, 0, 25, 25),   // large overlap
	}
	got := p.matchROIs(rects)
	if len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("match result = %v, want only retained nest 2", got.IDs())
	}
	if got[0].Region != geom.NewRect(0, 0, 30, 30) {
		t.Fatalf("retained nest region changed: %v", got[0].Region)
	}
}

func TestMatchROIsKeepsSiblingsDisjoint(t *testing.T) {
	p, _ := monsoonPipeline(t, Diffusion)
	p.set = scenario.Set{{ID: 1, Region: geom.NewRect(0, 0, 20, 20)}}
	p.nextID = 2
	rects := []geom.Rect{
		geom.NewRect(5, 5, 20, 20),   // retained as nest 1
		geom.NewRect(15, 15, 20, 20), // overlaps nest 1's frozen region: dropped
		geom.NewRect(50, 50, 20, 20), // disjoint: new nest
	}
	got := p.matchROIs(rects)
	for i := range got {
		for j := i + 1; j < len(got); j++ {
			if got[i].Region.Overlaps(got[j].Region) {
				t.Fatalf("sibling nests overlap: %v and %v", got[i], got[j])
			}
		}
	}
	if len(got) != 2 {
		t.Fatalf("got %d nests, want 2 (overlapping new ROI dropped)", len(got))
	}
}

func TestDistributedPipelineEndToEnd(t *testing.T) {
	// The paper's full runtime in distributed mode: every nest lives
	// block-distributed over its allocated sub-rectangle; every
	// reallocation executes a real Alltoallv.
	wcfg := wrfsim.DefaultConfig()
	wcfg.NX, wcfg.NY = 96, 72
	wcfg.SpawnRate = 0
	m, err := wrfsim.NewModel(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []wrfsim.Cell{
		{X: 20, Y: 18, Radius: 5, Peak: 2.5, Life: 2 * 3600},
		{X: 70, Y: 50, Radius: 4, Peak: 2.0, Life: 6 * 3600},
	} {
		if err := m.InjectCell(c); err != nil {
			t.Fatal(err)
		}
	}
	tr := newTestTracker(t, geom.NewGrid(8, 6), Diffusion)
	p, err := NewPipeline(m, tr, PipelineConfig{
		WRFGrid:       geom.NewGrid(8, 6),
		AnalysisRanks: 6,
		Interval:      5,
		PDA:           pda.DefaultOptions(),
		MaxNests:      4,
		Distributed:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Run past the first storm's decay so a deletion forces reallocation
	// of the surviving nest.
	if err := p.Run(260); err != nil {
		t.Fatal(err)
	}
	if len(p.Nests()) != 0 {
		t.Fatal("distributed pipeline spawned serial nests")
	}
	dn := p.DistributedNests()
	if len(dn) == 0 {
		t.Fatal("no distributed nests live")
	}
	// Every live nest sits inside its allocated sub-rectangle (clamped so
	// blocks stay above the halo width).
	rects := tr.Allocation().Rects
	for id, nest := range dn {
		if !rects[id].ContainsRect(nest.Procs()) {
			t.Fatalf("nest %d on %v, allocated %v", id, nest.Procs(), rects[id])
		}
	}
	// At least one adaptation event executed a real exchange.
	executed := false
	for _, e := range p.Events() {
		if e.ExecutedRedistTime > 0 {
			executed = true
			if e.Metrics.RedistTime <= 0 {
				t.Fatal("executed exchange without analytical counterpart")
			}
		}
	}
	if !executed {
		t.Fatal("no adaptation event executed an Alltoallv")
	}
	// The distributed nests carry real state: cloud water is present.
	for id, nest := range dn {
		if nest.Gather().Max() <= 0 {
			t.Fatalf("nest %d holds no cloud state", id)
		}
	}
}
