package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"nestdiff/internal/field"
	"nestdiff/internal/geom"
	"nestdiff/internal/perfmodel"
	"nestdiff/internal/scenario"
	"nestdiff/internal/topology"
	"nestdiff/internal/wrfsim"
)

// pipelineState is the gob-serialized form of a Pipeline in the v1
// envelope. It nests the two existing checkpoint formats — the weather
// model's (wrfsim/checkpoint.go) and the tracker's (checkpoint.go) — and
// adds the pipeline-only state: the live nest fields, the active set, the
// ID counter and the recorded events. v1 is kept as a restore path only;
// checkpoints are written in the v2 binary format (ckptcodec.go,
// ckptwriter.go).
type pipelineState struct {
	Version int
	Cfg     PipelineConfig
	Model   []byte // wrfsim.Model checkpoint
	Tracker []byte // Tracker checkpoint
	Set     scenario.Set
	NextID  int
	Events  []AdaptationEvent
	Nests   []nestState
}

// nestState captures one live nested simulation, serial or distributed.
type nestState struct {
	ID     int
	Region geom.Rect
	NX, NY int
	Data   []float64
	Steps  int
	Procs  geom.Rect // distributed mode only
}

const pipelineStateVersion = 1

// Checkpoint envelope: the payload is framed by a fixed header so that
// RestorePipeline can reject torn or corrupt files outright instead of
// partially decoding them —
//
//	magic "NDCP" (4) | envelope version (1) | payload length (8, LE) | CRC-32C of payload (4)
//
// Version 1 frames a single gob payload; version 2 extends the header and
// frames a chain of binary blobs (see ckptcodec.go). A write that dies
// mid-checkpoint leaves a file that fails the length check; a bit flip
// anywhere in the payload fails the checksum.
var ckptMagic = [4]byte{'N', 'D', 'C', 'P'}

const (
	ckptEnvelopeVersion = 1
	ckptHeaderLen       = 4 + 1 + 8 + 4
	// ckptMaxPayload bounds the allocation a (possibly corrupt) header can
	// demand.
	ckptMaxPayload = 1 << 32
)

var ckptCRC = crc32.MakeTable(crc32.Castagnoli)

// SaveState writes a checkpoint of the whole pipeline: parent model, live
// nests (serial or distributed), tracker, active set and event history,
// as a single full v2 base blob. A pipeline restored from it via
// RestorePipeline continues bit-identically, so a paused run resumed later
// produces the same StepMetrics tail as an uninterrupted one. Callers that
// checkpoint repeatedly should hold a CheckpointWriter instead: it reuses
// its buffers and emits delta blobs between bases.
func (p *Pipeline) SaveState(w io.Writer) error {
	cw := NewCheckpointWriter(CheckpointWriterOptions{MaxDeltas: -1, Workers: p.cfg.NestWorkers})
	blob, _, err := cw.Encode(p)
	if err != nil {
		return err
	}
	if _, err := w.Write(blob); err != nil {
		return fmt.Errorf("core: save pipeline state: %w", err)
	}
	return nil
}

// ValidateCheckpoint checks that data is a complete, uncorrupted pipeline
// checkpoint without decoding any payload. For a v1 envelope that means
// magic, version, exact payload length and CRC-32C; for a v2 chain it
// walks every blob — header, payload CRC, record framing with per-record
// CRCs, record kinds and lengths, and base→delta link continuity — the
// same walk RestorePipeline makes before it decodes. It is the cheap
// integrity test the scheduler's startup recovery scan runs over every
// *.ckpt file before re-registering the job.
//
// A v2 chain whose base is intact but whose delta tail is torn, corrupt or
// discontinuous returns an error matching ErrDeltaChainBroken (via
// errors.Is): the checkpoint still restores — RestorePipeline falls back
// to the longest valid prefix — but the caller may want to count or log
// the truncation. Any other non-nil error means the checkpoint is
// unusable.
func ValidateCheckpoint(data []byte) error {
	if len(data) < ckptHeaderLen {
		return fmt.Errorf("core: validate checkpoint: %d bytes is shorter than the envelope header", len(data))
	}
	if !bytes.Equal(data[:4], ckptMagic[:]) {
		return fmt.Errorf("core: validate checkpoint: bad magic %q (not a nestdiff pipeline checkpoint)", data[:4])
	}
	switch data[4] {
	case ckptEnvelopeVersion:
		n := binary.LittleEndian.Uint64(data[5:13])
		if n == 0 || n > ckptMaxPayload {
			return fmt.Errorf("core: validate checkpoint: implausible payload length %d (corrupt header)", n)
		}
		if uint64(len(data)-ckptHeaderLen) != n {
			return fmt.Errorf("core: validate checkpoint: torn checkpoint (%d payload bytes, header promises %d)", len(data)-ckptHeaderLen, n)
		}
		if sum := crc32.Checksum(data[ckptHeaderLen:], ckptCRC); sum != binary.LittleEndian.Uint32(data[13:17]) {
			return fmt.Errorf("core: validate checkpoint: checksum mismatch (corrupt checkpoint)")
		}
		return nil
	case ckptEnvelopeV2:
		return validateChainV2(data)
	default:
		return fmt.Errorf("core: validate checkpoint: unsupported envelope version %d", data[4])
	}
}

// validateChainV2 walks a v2 blob chain structurally: blob headers and
// CRCs, record framing and shape, and link continuity.
func validateChainV2(data []byte) error {
	return walkChain(data, func(bool, []record) error { return nil })
}

// walkChain validates the blobs of a v2 chain in order — the base, then
// each delta that continues its predecessor — and hands each blob's
// records to visit. Damage to the base (or a visit error on it) is fatal;
// damage from the first delta on stops the walk with an error wrapping
// ErrDeltaChainBroken, every blob before it having been visited.
func walkChain(data []byte, visit func(delta bool, recs []record) error) error {
	if len(data) == 0 {
		return fmt.Errorf("core: load pipeline state: empty checkpoint chain")
	}
	var recs []record
	var prevSeq, prevCRC uint32
	for off := 0; off < len(data); {
		h, payload, size, err := parseBlob(data[off:])
		switch {
		case err != nil:
		case off == 0 && h.delta:
			err = fmt.Errorf("core: load pipeline state: chain starts with a delta blob (missing base)")
		case off == 0 && (h.seq != 0 || h.link != 0):
			err = fmt.Errorf("core: load pipeline state: base blob with nonzero chain links")
		case off > 0 && (!h.delta || h.seq != prevSeq+1 || h.link != prevCRC):
			err = fmt.Errorf("core: load pipeline state: blob %d does not continue blob %d", h.seq, prevSeq)
		default:
			recs, err = splitRecords(payload, recs[:0])
		}
		if err == nil {
			err = checkRecords(recs, h.delta)
		}
		if err == nil {
			err = visit(h.delta, recs)
		}
		if err != nil {
			if off == 0 {
				return err
			}
			return fmt.Errorf("%w: after blob %d: %v", ErrDeltaChainBroken, prevSeq, err)
		}
		prevSeq, prevCRC = h.seq, h.crc
		off += size
	}
	return nil
}

// fixed layout sizes of the binary record prefixes.
const (
	nestFullPrefix = 4 + 16 + 4 + 1 + 16 + 8 // id, region, steps, flags, procs, nx, ny
	fieldDimPrefix = 4 + 4                   // nx, ny
	replayPrefix   = 4 + 4                   // target step, model CRC
)

// checkRecords validates the kinds and lengths of one blob's records
// without decoding any field: a base is the metadata record, one parent
// field and complete nest records; a delta is the metadata record and one
// replay directive. Any other kind, including those of the retired
// field-diff deltas, is rejected.
func checkRecords(recs []record, delta bool) error {
	if len(recs) == 0 || recs[0].kind != recMeta {
		return fmt.Errorf("core: load pipeline state: blob does not start with a metadata record")
	}
	if delta {
		if len(recs) != 2 || recs[1].kind != recReplay {
			return fmt.Errorf("core: load pipeline state: delta blob is not a single replay directive")
		}
		b := recs[1].payload
		if len(b) < replayPrefix+1 {
			return fmt.Errorf("core: load pipeline state: short replay directive")
		}
		n, used := binary.Uvarint(b[replayPrefix:])
		if used <= 0 || n > 1<<16 {
			return fmt.Errorf("core: load pipeline state: implausible replay nest count")
		}
		if len(b) != replayPrefix+used+8*int(n) {
			return fmt.Errorf("core: load pipeline state: replay directive has %d bytes for %d nests", len(b), n)
		}
		return nil
	}
	models := 0
	for _, rec := range recs[1:] {
		b := rec.payload
		switch rec.kind {
		case recModelRaw:
			if len(b) < fieldDimPrefix {
				return fmt.Errorf("core: load pipeline state: short model record")
			}
			nx := int(binary.LittleEndian.Uint32(b[0:4]))
			ny := int(binary.LittleEndian.Uint32(b[4:8]))
			if nx <= 0 || ny <= 0 || nx*ny > 1<<24 {
				return fmt.Errorf("core: load pipeline state: implausible model domain %dx%d", nx, ny)
			}
			if len(b) != fieldDimPrefix+8*nx*ny {
				return fmt.Errorf("core: load pipeline state: model record has %d bytes for %dx%d", len(b), nx, ny)
			}
			models++
		case recNestFull:
			if len(b) < nestFullPrefix {
				return fmt.Errorf("core: load pipeline state: short nest record")
			}
			nx := int(binary.LittleEndian.Uint32(b[41:45]))
			ny := int(binary.LittleEndian.Uint32(b[45:49]))
			if nx <= 0 || ny <= 0 || nx*ny > 1<<24 {
				return fmt.Errorf("core: load pipeline state: implausible nest domain %dx%d", nx, ny)
			}
			if len(b) != nestFullPrefix+8*nx*ny {
				id := binary.LittleEndian.Uint32(b[0:4])
				return fmt.Errorf("core: nest %d field has %d samples for %dx%d", id, (len(b)-nestFullPrefix)/8, nx, ny)
			}
		default:
			return fmt.Errorf("core: load pipeline state: unknown record kind %d in a base blob", rec.kind)
		}
	}
	if models != 1 {
		return fmt.Errorf("core: load pipeline state: checkpoint base has %d model fields, want 1", models)
	}
	return nil
}

// RestorePipeline rebuilds a pipeline from a checkpoint written by
// SaveState or assembled from a CheckpointWriter's blob chain, attaching
// the given machine and performance models (they are configuration, not
// state, like RestoreTracker's). The restored pipeline continues exactly
// where the saved one stopped. A v2 chain with a broken delta tail
// restores from the longest valid prefix — the run re-executes the lost
// steps, which is exactly the crash-retry semantics the scheduler needs —
// while a damaged base (or v1 envelope) is rejected outright.
func RestorePipeline(r io.Reader, net topology.Network, model *perfmodel.ExecModel, oracle *perfmodel.Oracle) (*Pipeline, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: load pipeline state: %w", err)
	}
	if len(data) < ckptHeaderLen {
		return nil, fmt.Errorf("core: load pipeline state: truncated checkpoint header (%d bytes)", len(data))
	}
	if !bytes.Equal(data[:4], ckptMagic[:]) {
		return nil, fmt.Errorf("core: load pipeline state: bad magic %q (not a nestdiff pipeline checkpoint)", data[:4])
	}
	switch data[4] {
	case ckptEnvelopeVersion:
		return restorePipelineV1(data, net, model, oracle)
	case ckptEnvelopeV2:
		return restorePipelineV2(data, net, model, oracle)
	default:
		return nil, fmt.Errorf("core: load pipeline state: unsupported checkpoint envelope version %d", data[4])
	}
}

// restorePipelineV1 decodes the legacy single-gob envelope.
func restorePipelineV1(data []byte, net topology.Network, model *perfmodel.ExecModel, oracle *perfmodel.Oracle) (*Pipeline, error) {
	n := binary.LittleEndian.Uint64(data[5:13])
	if n == 0 || n > ckptMaxPayload {
		return nil, fmt.Errorf("core: load pipeline state: implausible payload length %d (corrupt header)", n)
	}
	if uint64(len(data)-ckptHeaderLen) < n {
		return nil, fmt.Errorf("core: load pipeline state: torn checkpoint (%d payload bytes, header promises %d)",
			len(data)-ckptHeaderLen, n)
	}
	payload := data[ckptHeaderLen : ckptHeaderLen+int(n)]
	if sum := crc32.Checksum(payload, ckptCRC); sum != binary.LittleEndian.Uint32(data[13:17]) {
		return nil, fmt.Errorf("core: load pipeline state: checksum mismatch (corrupt checkpoint)")
	}
	var st pipelineState
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: load pipeline state: %w", err)
	}
	if st.Version != pipelineStateVersion {
		return nil, fmt.Errorf("core: unsupported pipeline state version %d", st.Version)
	}
	m, err := wrfsim.Load(bytes.NewReader(st.Model))
	if err != nil {
		return nil, err
	}
	tr, err := RestoreTracker(bytes.NewReader(st.Tracker), net, model, oracle)
	if err != nil {
		return nil, err
	}
	p, err := NewPipeline(m, tr, st.Cfg)
	if err != nil {
		return nil, err
	}
	p.restoreHistory(st.Set, st.NextID, st.Events)
	for _, ns := range st.Nests {
		fine := &field.Field{NX: ns.NX, NY: ns.NY, Data: ns.Data}
		if len(ns.Data) != ns.NX*ns.NY {
			return nil, fmt.Errorf("core: nest %d field has %d samples for %dx%d", ns.ID, len(ns.Data), ns.NX, ns.NY)
		}
		if st.Cfg.Distributed {
			n, err := wrfsim.RestoreParallelNest(ns.ID, ns.Region, tr.Grid(), ns.Procs, fine, ns.Steps)
			if err != nil {
				return nil, fmt.Errorf("core: restore nest %d: %w", ns.ID, err)
			}
			p.dnests[ns.ID] = n
		} else {
			n, err := wrfsim.RestoreNest(ns.ID, ns.Region, fine, ns.Steps)
			if err != nil {
				return nil, fmt.Errorf("core: restore nest %d: %w", ns.ID, err)
			}
			p.nests[ns.ID] = n
		}
	}
	return p, nil
}

// restoreHistory installs the decoded active set, ID counter and events.
// gob decodes an empty slice as nil, but every set the pipeline adopts at
// an adaptation point is non-nil (MatchROIs always allocates one), so
// empty sets are restored as empty, not nil: a restored run's events and
// active set then compare and serialize exactly like the uninterrupted
// run's.
func (p *Pipeline) restoreHistory(set scenario.Set, nextID int, events []AdaptationEvent) {
	if set == nil && len(events) > 0 {
		set = scenario.Set{}
	}
	p.set = set
	p.nextID = nextID
	p.events = events
	for i := range p.events {
		if p.events[i].Set == nil {
			p.events[i].Set = scenario.Set{}
		}
	}
}

// chainNest is one nest decoded from a base blob.
type chainNest struct {
	id     int
	region geom.Rect
	procs  geom.Rect
	steps  int
	fine   *field.Field
}

// replayNestCRC is one nest's recorded identity in a replay directive.
type replayNestCRC struct {
	id  int
	crc uint32
}

// replayDirective is a decoded recReplay record.
type replayDirective struct {
	step     int
	modelCRC uint32
	nests    []replayNestCRC
}

// chainV2 is a decoded v2 chain: the base's state plus the last intact
// replay directive (nil when the chain is a lone base).
type chainV2 struct {
	meta   ckptMetaV2
	model  []float64
	nests  []chainNest
	replay *replayDirective
}

// decodeChain decodes the chain's one base, then keeps the directive of
// each delta that continues it, so the last intact delta wins. Damage
// after the base stops at the longest valid prefix; damage to the base is
// fatal.
func decodeChain(data []byte) (*chainV2, error) {
	st := &chainV2{}
	err := walkChain(data, func(delta bool, recs []record) error {
		if delta {
			st.replay = decodeReplay(recs[1].payload)
			return nil
		}
		return st.decodeBase(recs)
	})
	if err != nil && !errors.Is(err, ErrDeltaChainBroken) {
		return nil, err
	}
	return st, nil
}

// decodeBase decodes a base blob's records, which checkRecords has
// validated.
func (st *chainV2) decodeBase(recs []record) error {
	r := bytes.NewReader(recs[0].payload)
	if err := gob.NewDecoder(r).Decode(&st.meta); err != nil {
		return fmt.Errorf("core: load pipeline state: checkpoint metadata: %w", err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("core: load pipeline state: checkpoint metadata: trailing bytes")
	}
	for _, rec := range recs[1:] {
		b := rec.payload
		if rec.kind == recModelRaw {
			st.model = make([]float64, (len(b)-fieldDimPrefix)/8)
			decodeRawField(st.model, b[fieldDimPrefix:])
			continue
		}
		n := chainNest{
			id:     int(binary.LittleEndian.Uint32(b[0:4])),
			region: decodeRect(b[4:20]),
			steps:  int(binary.LittleEndian.Uint32(b[20:24])),
			procs:  decodeRect(b[25:41]),
		}
		n.fine = field.New(int(binary.LittleEndian.Uint32(b[41:45])), int(binary.LittleEndian.Uint32(b[45:49])))
		decodeRawField(n.fine.Data, b[nestFullPrefix:])
		st.nests = append(st.nests, n)
	}
	return nil
}

// decodeReplay decodes a replay directive that checkRecords has validated.
func decodeReplay(b []byte) *replayDirective {
	d := &replayDirective{
		step:     int(binary.LittleEndian.Uint32(b[0:4])),
		modelCRC: binary.LittleEndian.Uint32(b[4:8]),
	}
	n, used := binary.Uvarint(b[replayPrefix:])
	b = b[replayPrefix+used:]
	for i := 0; i < int(n); i++ {
		d.nests = append(d.nests, replayNestCRC{
			id:  int(binary.LittleEndian.Uint32(b[0:4])),
			crc: binary.LittleEndian.Uint32(b[4:8]),
		})
		b = b[8:]
	}
	return d
}

// restorePipelineV2 decodes a v2 blob chain, rebuilds the pipeline from
// its base and replays it to the last intact directive.
func restorePipelineV2(data []byte, net topology.Network, model *perfmodel.ExecModel, oracle *perfmodel.Oracle) (*Pipeline, error) {
	st, err := decodeChain(data)
	if err != nil {
		return nil, err
	}
	meta := st.meta
	m, err := wrfsim.RestoreModel(meta.MCfg, st.model, meta.Cells, meta.RNG, meta.Time, meta.Step)
	if err != nil {
		return nil, err
	}
	tr, err := restoreTrackerState(meta.Tracker, net, model, oracle)
	if err != nil {
		return nil, err
	}
	p, err := NewPipeline(m, tr, meta.Cfg)
	if err != nil {
		return nil, err
	}
	p.restoreHistory(meta.Set, meta.NextID, meta.Events)
	for _, ns := range st.nests {
		if meta.Cfg.Distributed {
			n, err := wrfsim.RestoreParallelNest(ns.id, ns.region, tr.Grid(), ns.procs, ns.fine, ns.steps)
			if err != nil {
				return nil, fmt.Errorf("core: restore nest %d: %w", ns.id, err)
			}
			p.dnests[ns.id] = n
		} else {
			n, err := wrfsim.RestoreNest(ns.id, ns.region, ns.fine, ns.steps)
			if err != nil {
				return nil, fmt.Errorf("core: restore nest %d: %w", ns.id, err)
			}
			p.nests[ns.id] = n
		}
	}
	if st.replay != nil {
		if err := replayToDirective(p, st.replay); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// replayToDirective re-executes the restored base pipeline up to the thin
// delta's target step and proves the result bit-identical to the state the
// writer checkpointed, via the directive's model and per-nest CRCs. The
// pipeline is deterministic, so this reproduces exactly the steps the
// original run took between the base and the delta cut.
func replayToDirective(p *Pipeline, d *replayDirective) error {
	k := d.step - p.StepCount()
	if k < 0 {
		return fmt.Errorf("core: load pipeline state: replay directive targets step %d behind the base at step %d",
			d.step, p.StepCount())
	}
	if k > 0 {
		if err := p.Run(k); err != nil {
			return fmt.Errorf("core: load pipeline state: delta replay: %w", err)
		}
	}
	chunk := make([]byte, 4096)
	if got := fieldCRC(p.model.QCloud().Data, chunk); got != d.modelCRC {
		return fmt.Errorf("core: load pipeline state: model field diverged during delta replay (checkpoint crc %#x, replayed %#x)",
			d.modelCRC, got)
	}
	live := len(p.nests) + len(p.dnests)
	if live != len(d.nests) {
		return fmt.Errorf("core: load pipeline state: %d nests after delta replay, checkpoint recorded %d",
			live, len(d.nests))
	}
	var gather *field.Field
	for _, rn := range d.nests {
		var cur []float64
		if p.cfg.Distributed {
			n := p.dnests[rn.id]
			if n == nil {
				return fmt.Errorf("core: load pipeline state: nest %d missing after delta replay", rn.id)
			}
			gather = n.GatherInto(gather)
			cur = gather.Data
		} else {
			n := p.nests[rn.id]
			if n == nil {
				return fmt.Errorf("core: load pipeline state: nest %d missing after delta replay", rn.id)
			}
			cur = n.QCloud().Data
		}
		if got := fieldCRC(cur, chunk); got != rn.crc {
			return fmt.Errorf("core: load pipeline state: nest %d field diverged during delta replay (checkpoint crc %#x, replayed %#x)",
				rn.id, rn.crc, got)
		}
	}
	return nil
}
