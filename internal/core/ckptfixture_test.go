package core

import (
	"bytes"
	"os"
	"testing"

	"nestdiff/internal/geom"
)

const (
	v1FixturePath  = "testdata/v1-diffusion-60step.ckpt"
	v1FixtureSteps = 60
)

// TestV1CheckpointFixtureCrossVersionRestore pins compatibility with
// checkpoints written before the v2 envelope existed: a committed v1 gob
// file must validate, restore, re-save through the v2 writer, and the two
// restored pipelines must continue bit-identically. The fixture was
// written by the retired v1 encoder and is never regenerated: it stands
// for checkpoint files already on disk.
func TestV1CheckpointFixtureCrossVersionRestore(t *testing.T) {
	g := geom.NewGrid(8, 6)
	data, err := os.ReadFile(v1FixturePath)
	if err != nil {
		t.Fatalf("committed v1 fixture missing: %v", err)
	}
	if data[4] != ckptEnvelopeVersion {
		t.Fatalf("fixture has envelope version %d, want v1 (%d)", data[4], ckptEnvelopeVersion)
	}
	if err := ValidateCheckpoint(data); err != nil {
		t.Fatalf("v1 fixture failed validation: %v", err)
	}

	net, model, oracle := testEnv(t, g)
	v1p, err := RestorePipeline(bytes.NewReader(data), net, model, oracle)
	if err != nil {
		t.Fatalf("v1 fixture no longer restores: %v", err)
	}
	if v1p.StepCount() != v1FixtureSteps {
		t.Fatalf("v1 fixture restored at step %d, want %d", v1p.StepCount(), v1FixtureSteps)
	}

	// Cross-version: re-save the restored pipeline through the current
	// writer (v2 envelope) and restore that.
	var v2 bytes.Buffer
	if err := v1p.SaveState(&v2); err != nil {
		t.Fatal(err)
	}
	if v2.Bytes()[4] != ckptEnvelopeV2 {
		t.Fatalf("SaveState wrote envelope version %d, want v2 (%d)", v2.Bytes()[4], ckptEnvelopeV2)
	}
	net2, model2, oracle2 := testEnv(t, g)
	v2p, err := RestorePipeline(bytes.NewReader(v2.Bytes()), net2, model2, oracle2)
	if err != nil {
		t.Fatal(err)
	}

	// Both restored pipelines continue identically: same events, same
	// final nest set — the v1→v2 conversion lost nothing.
	const extra = 60
	if err := v1p.Run(extra); err != nil {
		t.Fatal(err)
	}
	if err := v2p.Run(extra); err != nil {
		t.Fatal(err)
	}
	aEv, bEv := v1p.Events(), v2p.Events()
	if len(aEv) != len(bEv) {
		t.Fatalf("event counts diverged: v1 restore %d, v2 restore %d", len(aEv), len(bEv))
	}
	for i := range aEv {
		if aEv[i].Step != bEv[i].Step || !stepMetricsEqual(aEv[i].Metrics, bEv[i].Metrics) {
			t.Fatalf("event %d diverged:\nv1 restore %+v\nv2 restore %+v", i, aEv[i], bEv[i])
		}
	}
	a, b := v1p.ActiveSet(), v2p.ActiveSet()
	if len(a) != len(b) {
		t.Fatalf("final nest sets differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("final nest %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if !bitsEqual(v1p.Model().QCloud().Data, v2p.Model().QCloud().Data) {
		t.Fatal("model fields diverged after the continuation")
	}
}
