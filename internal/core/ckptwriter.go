package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"runtime"
	"slices"

	"nestdiff/internal/field"
	"nestdiff/internal/geom"
	"nestdiff/internal/scenario"
	"nestdiff/internal/wrfsim"
)

// ckptMetaV2 is the non-field state of one v2 checkpoint blob: everything
// a restore needs except the float64 arrays, which travel as binary field
// records. It is small (events, tracker history, cell population), so gob
// remains the right tool for it; the arrays it excludes are ~99% of the
// payload and go through the binary codec instead.
type ckptMetaV2 struct {
	Cfg     PipelineConfig
	Set     scenario.Set
	NextID  int
	Events  []AdaptationEvent
	Tracker trackerState
	MCfg    wrfsim.Config
	Cells   []wrfsim.Cell
	RNG     uint64
	Time    float64
	Step    int
}

// CheckpointWriterOptions tunes a CheckpointWriter.
type CheckpointWriterOptions struct {
	// MaxDeltas bounds the delta chain: after this many consecutive delta
	// blobs the next Encode emits a full base. Zero means the default (8);
	// negative disables deltas entirely, so every Encode is a full base.
	MaxDeltas int
	// Workers bounds how many nests encode concurrently (the same knob as
	// PipelineConfig.NestWorkers). Zero means runtime.GOMAXPROCS(0).
	Workers int
}

const defaultMaxDeltas = 8

// nestScratch is the pooled gather target of one distributed nest, reused
// across checkpoints so gathering a steady-state nest allocates nothing.
type nestScratch struct {
	gather *field.Field
}

// CheckpointWriter encodes pipeline checkpoints as NDCP v2 blobs: a full
// base (every field, raw) followed by up to MaxDeltas replay deltas. A
// replay delta carries no field data, only the step the restore must
// re-execute to and CRCs of the model and every live nest field at that
// step, so it costs about a hundred bytes. All buffers — the two output
// arenas, the per-nest encode buffers, the distributed gather targets —
// are pooled, so a steady-state delta cut allocates nothing and a base
// allocates only what gob needs for the metadata record.
//
// The writer assumes it sees every checkpoint of one pipeline in order:
// a delta only restores on top of the blobs since the last base. A caller
// that drops a blob (failed write) or mutates the pipeline outside
// stepping (elastic resize) must call Invalidate so the next Encode
// re-bases.
//
// Not safe for concurrent use; Encode must not run while the pipeline is
// stepping.
type CheckpointWriter struct {
	opts CheckpointWriterOptions

	// Chain bookkeeping: valid gates delta encoding, deltas counts blobs
	// since the last base, seq/prevCRC seed the next blob's header links.
	valid   bool
	deltas  int
	seq     uint32
	prevCRC uint32

	// arenas double-buffer the encoded output: the blob returned by one
	// Encode stays untouched through the next Encode (which uses the other
	// arena), so a caller can hand it to an async persister without a copy.
	arenas [2][]byte
	cur    int

	// metaEnc is the chain-scoped gob stream: type descriptors are sent
	// once per chain (on the base blob) instead of once per checkpoint.
	// meta lives on the writer because gob takes it by reference — a local
	// would escape and cost one heap allocation per Encode.
	metaEnc *gob.Encoder
	metaRaw bytes.Buffer
	meta    ckptMetaV2

	// Reused encode scratch.
	ids      []int
	scratch  map[int]*nestScratch
	nestBufs [][]byte
	cells    []wrfsim.Cell
	crc      []byte
}

// NewCheckpointWriter returns a writer whose first Encode emits a full
// base.
func NewCheckpointWriter(opts CheckpointWriterOptions) *CheckpointWriter {
	return &CheckpointWriter{opts: opts, scratch: make(map[int]*nestScratch), crc: make([]byte, 4096)}
}

// Invalidate forces the next Encode to emit a full base blob. Callers use
// it when a returned blob was not durably committed (so the chain no
// longer ends at the last persisted state) or when pipeline state changed
// outside stepping (elastic resize redistributes fields ULP-equivalently,
// not bit-identically, so replay from the old base would diverge).
func (cw *CheckpointWriter) Invalidate() { cw.valid = false }

func (cw *CheckpointWriter) maxDeltas() int {
	if cw.opts.MaxDeltas < 0 {
		return 0
	}
	if cw.opts.MaxDeltas == 0 {
		return defaultMaxDeltas
	}
	return cw.opts.MaxDeltas
}

func (cw *CheckpointWriter) workers() int {
	if cw.opts.Workers > 0 {
		return cw.opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Encode captures the pipeline's current state as one v2 blob and reports
// whether it is a full base. A delta blob only restores on top of the
// chain of blobs since the last full base; callers append it to the bytes
// of that chain. The returned slice aliases one of the writer's two
// arenas: it is stable through the next Encode call and overwritten by the
// one after, so callers that keep it longer must copy.
func (cw *CheckpointWriter) Encode(p *Pipeline) (blob []byte, full bool, err error) {
	full = !cw.valid || cw.deltas >= cw.maxDeltas()
	cw.cur ^= 1
	buf := cw.arenas[cw.cur][:0]
	var hdr [ckptV2HeaderLen]byte
	buf = append(buf, hdr[:]...)

	// Metadata record first: gob encoding is the only fallible step.
	if full {
		cw.metaEnc = gob.NewEncoder(&cw.metaRaw)
	}
	meta := &cw.meta
	*meta = ckptMetaV2{
		RNG:  p.model.RNGState(),
		Time: p.model.Time(),
		Step: p.model.StepCount(),
	}
	if full {
		// Replay deltas rebuild everything below from the base, so their
		// metadata record carries only the step bookkeeping above.
		cw.cells = p.model.AppendCells(cw.cells[:0])
		meta.Cfg = p.cfg
		meta.Set = p.set
		meta.NextID = p.nextID
		meta.Events = p.events
		meta.Tracker = p.tracker.state()
		meta.MCfg = p.model.Config()
		meta.Cells = cw.cells
	}
	cw.metaRaw.Reset()
	if err := cw.metaEnc.Encode(meta); err != nil {
		cw.valid = false
		return nil, false, fmt.Errorf("core: save pipeline state: %w", err)
	}
	buf, start := beginRecord(buf, recMeta)
	buf = append(buf, cw.metaRaw.Bytes()...)
	buf = endRecord(buf, start)

	ids := cw.liveNests(p)
	if full {
		buf = cw.encodeBase(buf, p, ids)
	} else {
		buf = cw.encodeReplay(buf, p, ids)
	}

	payload := buf[ckptV2HeaderLen:]
	h := blobHeader{
		payloadLen: uint64(len(payload)),
		crc:        crc32.Checksum(payload, ckptCRC),
		delta:      !full,
	}
	if full {
		cw.seq, cw.deltas = 0, 0
	} else {
		cw.seq++
		cw.deltas++
		h.seq = cw.seq
		h.link = cw.prevCRC
	}
	putBlobHeader(buf[:ckptV2HeaderLen], h)
	cw.prevCRC = h.crc
	cw.valid = true
	cw.arenas[cw.cur] = buf
	return buf, full, nil
}

// liveNests returns the live nest IDs in ascending order, giving each live
// distributed nest a gather scratch and dropping the scratch of nests that
// vanished since the previous blob.
func (cw *CheckpointWriter) liveNests(p *Pipeline) []int {
	ids := cw.ids[:0]
	if p.cfg.Distributed {
		for id := range p.dnests {
			ids = append(ids, id)
			if cw.scratch[id] == nil {
				cw.scratch[id] = &nestScratch{}
			}
		}
	} else {
		for id := range p.nests {
			ids = append(ids, id)
		}
	}
	for id := range cw.scratch {
		if _, live := p.dnests[id]; !live {
			delete(cw.scratch, id)
		}
	}
	slices.Sort(ids)
	cw.ids = ids
	return ids
}

// nestData returns a live nest's fine samples: a serial nest's own field,
// or a distributed nest gathered into its scratch. Each call touches only
// its own nest's scratch, so nests gather concurrently.
func (cw *CheckpointWriter) nestData(p *Pipeline, id int) []float64 {
	if !p.cfg.Distributed {
		return p.nests[id].QCloud().Data
	}
	sc := cw.scratch[id]
	sc.gather = p.dnests[id].GatherInto(sc.gather)
	return sc.gather.Data
}

// encodeBase appends the full field records: the raw parent field, then
// one complete record per live nest in ID order. The nest records encode
// concurrently into pooled per-nest buffers.
func (cw *CheckpointWriter) encodeBase(buf []byte, p *Pipeline, ids []int) []byte {
	q := p.model.QCloud()
	buf, start := beginRecord(buf, recModelRaw)
	buf = appendU32(buf, uint32(q.NX))
	buf = appendU32(buf, uint32(q.NY))
	buf = appendRawField(buf, q.Data)
	buf = endRecord(buf, start)

	for len(cw.nestBufs) < len(ids) {
		cw.nestBufs = append(cw.nestBufs, nil)
	}
	bufs := cw.nestBufs
	runBounded(cw.workers(), len(ids), func(i int) {
		bufs[i] = cw.encodeNest(p, ids[i], bufs[i][:0])
	})
	for i := range ids {
		buf = append(buf, bufs[i]...)
	}
	return buf
}

// encodeNest encodes one nest's complete record into nb.
func (cw *CheckpointWriter) encodeNest(p *Pipeline, id int, nb []byte) []byte {
	var region, procs geom.Rect
	var nx, ny, steps int
	var flags byte
	if p.cfg.Distributed {
		n := p.dnests[id]
		region, procs, steps = n.Region, n.Procs(), n.StepCount()
		nx, ny = n.Size()
		flags |= 1
	} else {
		n := p.nests[id]
		q := n.QCloud()
		region, steps = n.Region, n.StepCount()
		nx, ny = q.NX, q.NY
	}
	nb, start := beginRecord(nb, recNestFull)
	nb = appendU32(nb, uint32(id))
	nb = appendRect(nb, region)
	nb = appendU32(nb, uint32(steps))
	nb = append(nb, flags)
	nb = appendRect(nb, procs)
	nb = appendU32(nb, uint32(nx))
	nb = appendU32(nb, uint32(ny))
	nb = appendRawField(nb, cw.nestData(p, id))
	return endRecord(nb, start)
}

// encodeReplay appends the replay directive: the step the restore must
// re-execute to, plus CRCs of the model and every live nest field at that
// step so the replayed state is provably bit-identical.
func (cw *CheckpointWriter) encodeReplay(buf []byte, p *Pipeline, ids []int) []byte {
	buf, start := beginRecord(buf, recReplay)
	buf = appendU32(buf, uint32(p.model.StepCount()))
	buf = appendU32(buf, fieldCRC(p.model.QCloud().Data, cw.crc))
	buf = appendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = appendU32(buf, uint32(id))
		buf = appendU32(buf, fieldCRC(cw.nestData(p, id), cw.crc))
	}
	return endRecord(buf, start)
}
