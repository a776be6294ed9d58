package core

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"nestdiff/internal/geom"
)

// cutBlob encodes one checkpoint blob and returns a stable copy (the
// writer's arenas recycle every other Encode, so tests that accumulate a
// chain must copy each blob before the next cut).
func cutBlob(t *testing.T, cw *CheckpointWriter, p *Pipeline) ([]byte, bool) {
	t.Helper()
	blob, full, err := cw.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), blob...), full
}

// runDeltaChainRoundTrip cuts a full base at step k, then delta
// checkpoints every interval steps, restores the assembled chain, and
// verifies the resumed run reproduces the uninterrupted run's adaptation
// events and final nest set exactly — bit-identical to the full-save path.
func runDeltaChainRoundTrip(t *testing.T, distributed bool) {
	t.Helper()
	const k, segs, interval, total = 60, 4, 20, 180
	const cut = k + segs*interval
	g := geom.NewGrid(8, 6)

	ref := checkpointPipeline(t, g, Diffusion, distributed)
	if err := ref.Run(total); err != nil {
		t.Fatal(err)
	}

	chk := checkpointPipeline(t, g, Diffusion, distributed)
	cw := NewCheckpointWriter(CheckpointWriterOptions{MaxDeltas: 64})
	if err := chk.Run(k); err != nil {
		t.Fatal(err)
	}
	base, full := cutBlob(t, cw, chk)
	if !full {
		t.Fatal("first checkpoint cut was not a full base")
	}
	chain := append([]byte(nil), base...)
	deltaBytes := 0
	for i := 0; i < segs; i++ {
		if err := chk.Run(interval); err != nil {
			t.Fatal(err)
		}
		blob, full := cutBlob(t, cw, chk)
		if full {
			t.Fatalf("cut %d was a full base, want a delta (MaxDeltas 64)", i+1)
		}
		deltaBytes += len(blob)
		chain = append(chain, blob...)
	}
	eventsAtCut := len(chk.Events())

	// Replay deltas must be materially smaller than the base they extend —
	// that is the point of the chain.
	if avg := deltaBytes / segs; avg >= len(base)/20 {
		t.Fatalf("average replay delta blob %d bytes, want well under 1/20 of the %d-byte base", avg, len(base))
	}

	// The assembled chain is structurally valid: linked seq/crc blobs.
	if err := ValidateCheckpoint(chain); err != nil {
		t.Fatalf("assembled chain failed validation: %v", err)
	}
	off := 0
	var prevCRC uint32
	for seq := uint32(0); off < len(chain); seq++ {
		h, _, size, err := parseBlob(chain[off:])
		if err != nil {
			t.Fatalf("blob %d: %v", seq, err)
		}
		if h.seq != seq || h.delta != (seq > 0) || h.link != prevCRC {
			t.Fatalf("blob %d header {seq %d delta %v link %#x}, want {seq %d delta %v link %#x}",
				seq, h.seq, h.delta, h.link, seq, seq > 0, prevCRC)
		}
		prevCRC = h.crc
		off += size
	}

	net, model, oracle := testEnv(t, g)
	resumed, err := RestorePipeline(bytes.NewReader(chain), net, model, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.StepCount() != cut {
		t.Fatalf("restored pipeline at step %d, want %d", resumed.StepCount(), cut)
	}
	if len(resumed.Events()) != eventsAtCut {
		t.Fatalf("restored pipeline has %d events, want %d", len(resumed.Events()), eventsAtCut)
	}
	if err := resumed.Run(total - cut); err != nil {
		t.Fatal(err)
	}

	refEvents, resEvents := ref.Events(), resumed.Events()
	if len(refEvents) != len(resEvents) {
		t.Fatalf("event count diverged: uninterrupted %d, resumed %d", len(refEvents), len(resEvents))
	}
	if len(refEvents) == eventsAtCut {
		t.Fatal("no adaptation events after the last delta; tail comparison is vacuous")
	}
	for i := eventsAtCut; i < len(refEvents); i++ {
		a, b := refEvents[i], resEvents[i]
		if a.Step != b.Step || !stepMetricsEqual(a.Metrics, b.Metrics) ||
			a.ExecutedRedistTime != b.ExecutedRedistTime {
			t.Fatalf("event %d diverged:\nuninterrupted %+v\nresumed       %+v", i, a, b)
		}
	}
	a, b := ref.ActiveSet(), resumed.ActiveSet()
	if len(a) != len(b) {
		t.Fatalf("final nest sets differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("final nest %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestCheckpointDeltaChainRoundTripSerial(t *testing.T) {
	runDeltaChainRoundTrip(t, false)
}

func TestCheckpointDeltaChainRoundTripDistributed(t *testing.T) {
	runDeltaChainRoundTrip(t, true)
}

// TestCheckpointWriterMaxDeltasForcesBase: the chain length bound. After
// MaxDeltas delta cuts the writer must start a fresh full base, so restore
// cost and torn-tail blast radius stay bounded.
func TestCheckpointWriterMaxDeltasForcesBase(t *testing.T) {
	p := checkpointPipeline(t, geom.NewGrid(8, 6), Diffusion, false)
	cw := NewCheckpointWriter(CheckpointWriterOptions{MaxDeltas: 2})
	want := []bool{true, false, false, true, false, false, true}
	for i, wantFull := range want {
		if err := p.Run(5); err != nil {
			t.Fatal(err)
		}
		_, full := cutBlob(t, cw, p)
		if full != wantFull {
			t.Fatalf("cut %d: full = %v, want %v (MaxDeltas 2)", i, full, wantFull)
		}
	}
}

// TestCheckpointWriterNegativeMaxDeltasAlwaysFull: MaxDeltas < 0 disables
// deltas entirely (the SaveState configuration).
func TestCheckpointWriterNegativeMaxDeltasAlwaysFull(t *testing.T) {
	p := checkpointPipeline(t, geom.NewGrid(8, 6), Diffusion, false)
	cw := NewCheckpointWriter(CheckpointWriterOptions{MaxDeltas: -1})
	for i := 0; i < 3; i++ {
		if err := p.Run(5); err != nil {
			t.Fatal(err)
		}
		blob, full := cutBlob(t, cw, p)
		if !full {
			t.Fatalf("cut %d: got a delta with MaxDeltas -1", i)
		}
		// Each full blob restores standalone.
		g := geom.NewGrid(8, 6)
		net, model, oracle := testEnv(t, g)
		restored, err := RestorePipeline(bytes.NewReader(blob), net, model, oracle)
		if err != nil {
			t.Fatalf("cut %d: standalone restore: %v", i, err)
		}
		if restored.StepCount() != p.StepCount() {
			t.Fatalf("cut %d restored at step %d, want %d", i, restored.StepCount(), p.StepCount())
		}
	}
}

// TestCheckpointWriterInvalidateForcesBase: after Invalidate (the
// scheduler calls it on failed persists and after elastic resizes) the
// next cut must be a self-contained full base with reset chain links.
func TestCheckpointWriterInvalidateForcesBase(t *testing.T) {
	p := checkpointPipeline(t, geom.NewGrid(8, 6), Diffusion, false)
	cw := NewCheckpointWriter(CheckpointWriterOptions{MaxDeltas: 64})
	if err := p.Run(20); err != nil {
		t.Fatal(err)
	}
	cutBlob(t, cw, p)
	if err := p.Run(5); err != nil {
		t.Fatal(err)
	}
	if _, full := cutBlob(t, cw, p); full {
		t.Fatal("second cut should have been a delta")
	}
	cw.Invalidate()
	if err := p.Run(5); err != nil {
		t.Fatal(err)
	}
	blob, full := cutBlob(t, cw, p)
	if !full {
		t.Fatal("cut after Invalidate was not a full base")
	}
	h, _, _, err := parseBlob(blob)
	if err != nil {
		t.Fatal(err)
	}
	if h.delta || h.seq != 0 || h.link != 0 {
		t.Fatalf("post-Invalidate base has chain links {delta %v seq %d link %#x}", h.delta, h.seq, h.link)
	}
	g := geom.NewGrid(8, 6)
	net, model, oracle := testEnv(t, g)
	restored, err := RestorePipeline(bytes.NewReader(blob), net, model, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if restored.StepCount() != p.StepCount() {
		t.Fatalf("restored at step %d, want %d", restored.StepCount(), p.StepCount())
	}
}

// TestRestoreDeltaChainBrokenTailFallsBack: damage confined to the delta
// tail — torn mid-blob, a flipped payload bit, or a severed link — must
// not lose the checkpoint. Restore falls back to the longest valid prefix
// and ValidateCheckpoint reports ErrDeltaChainBroken so callers can count
// the truncation. Damage to the base itself stays fatal.
func TestRestoreDeltaChainBrokenTailFallsBack(t *testing.T) {
	g := geom.NewGrid(8, 6)
	p := checkpointPipeline(t, g, Diffusion, false)
	cw := NewCheckpointWriter(CheckpointWriterOptions{MaxDeltas: 64})
	if err := p.Run(60); err != nil {
		t.Fatal(err)
	}
	base, _ := cutBlob(t, cw, p)
	if err := p.Run(5); err != nil {
		t.Fatal(err)
	}
	d1, _ := cutBlob(t, cw, p)
	if err := p.Run(5); err != nil {
		t.Fatal(err)
	}
	d2, _ := cutBlob(t, cw, p)
	chain := append(append(append([]byte(nil), base...), d1...), d2...)

	cases := []struct {
		name     string
		mutate   func() []byte
		wantStep int
	}{
		{"torn mid final delta", func() []byte {
			return chain[:len(base)+len(d1)+len(d2)/2]
		}, 65},
		{"torn final delta header", func() []byte {
			return chain[:len(base)+len(d1)+3]
		}, 65},
		{"flipped bit in final delta", func() []byte {
			c := append([]byte(nil), chain...)
			c[len(base)+len(d1)+ckptV2HeaderLen+8] ^= 0x10
			return c
		}, 65},
		{"torn first delta", func() []byte {
			return chain[:len(base)+len(d1)/2]
		}, 60},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate()
			if err := ValidateCheckpoint(data); !errors.Is(err, ErrDeltaChainBroken) {
				t.Fatalf("ValidateCheckpoint = %v, want ErrDeltaChainBroken", err)
			}
			net, model, oracle := testEnv(t, g)
			restored, err := RestorePipeline(bytes.NewReader(data), net, model, oracle)
			if err != nil {
				t.Fatalf("broken-tail chain did not restore from its prefix: %v", err)
			}
			if restored.StepCount() != tc.wantStep {
				t.Fatalf("restored at step %d, want %d (longest valid prefix)", restored.StepCount(), tc.wantStep)
			}
		})
	}

	t.Run("torn base is fatal", func(t *testing.T) {
		data := chain[:len(base)/2]
		err := ValidateCheckpoint(data)
		if err == nil {
			t.Fatal("torn base accepted")
		}
		if errors.Is(err, ErrDeltaChainBroken) {
			t.Fatalf("torn base reported as a recoverable broken chain: %v", err)
		}
		net, model, oracle := testEnv(t, g)
		if _, err := RestorePipeline(bytes.NewReader(data), net, model, oracle); err == nil {
			t.Fatal("torn base restored")
		}
	})
}

// FuzzRestorePipeline feeds arbitrary bytes through ValidateCheckpoint and
// RestorePipeline: neither may panic, whatever the input. Seeds are the
// committed v1 fixture, a lone v2 base, and a base plus two replay deltas;
// any cut of that chain inside its deltas must restore the longest valid
// prefix.
func FuzzRestorePipeline(f *testing.F) {
	g := geom.NewGrid(8, 6)
	fixture, err := os.ReadFile(v1FixturePath)
	if err != nil {
		f.Fatal(err)
	}
	p := checkpointPipeline(f, g, Diffusion, false)
	cw := NewCheckpointWriter(CheckpointWriterOptions{MaxDeltas: 64})
	var chain []byte
	ends := make([]int, 3) // chain length after the base, d1 and d2
	for i := range ends {
		steps := 5
		if i == 0 {
			steps = 60
		}
		if err := p.Run(steps); err != nil {
			f.Fatal(err)
		}
		blob, _, err := cw.Encode(p)
		if err != nil {
			f.Fatal(err)
		}
		chain = append(chain, blob...)
		ends[i] = len(chain)
	}
	f.Add(fixture)
	f.Add(chain[:ends[0]])
	f.Add(chain)

	net, model, oracle := testEnv(f, g)
	f.Fuzz(func(t *testing.T, data []byte) {
		verr := ValidateCheckpoint(data)
		restored, rerr := RestorePipeline(bytes.NewReader(data), net, model, oracle)
		if len(data) <= ends[0] || !bytes.HasPrefix(chain, data) {
			return
		}
		// A prefix of the seed chain that keeps its base: the restore
		// lands on the last delta wholly inside the cut.
		want := 60
		for i, end := range ends[1:] {
			if len(data) >= end {
				want = 60 + 5*(i+1)
			}
		}
		if rerr != nil {
			t.Fatalf("chain cut to %d of %d bytes did not restore: %v", len(data), len(chain), rerr)
		}
		if restored.StepCount() != want {
			t.Fatalf("chain cut to %d bytes restored at step %d, want %d", len(data), restored.StepCount(), want)
		}
		whole := len(data) == ends[1] || len(data) == ends[2]
		if whole && verr != nil {
			t.Fatalf("whole-blob prefix failed validation: %v", verr)
		}
		if !whole && !errors.Is(verr, ErrDeltaChainBroken) {
			t.Fatalf("torn delta tail: ValidateCheckpoint = %v, want ErrDeltaChainBroken", verr)
		}
	})
}
