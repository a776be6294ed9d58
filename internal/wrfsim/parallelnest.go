package wrfsim

import (
	"fmt"
	"math"
	"time"

	"nestdiff/internal/field"
	"nestdiff/internal/geom"
	"nestdiff/internal/mpi"
	"nestdiff/internal/obs"
)

// ParallelNest is a nested simulation whose fine-resolution field lives
// block-distributed over the processor sub-rectangle the allocator gave
// it — the paper's actual runtime arrangement ("each nested simulation is
// executed on disjoint subsets of the total number of processors"). It
// steps with halo exchange on its sub-grid, and when the allocator moves
// it to a different sub-rectangle, Redistribute performs the
// block-intersection Alltoallv in place: the new owners receive exactly
// the state they need and continue stepping, bit-identically to a serial
// nest (verified in tests).
type ParallelNest struct {
	ID     int
	Region geom.Rect // region of interest in parent grid points

	pg    geom.Grid
	procs geom.Rect // current processor sub-rectangle
	nx    int       // fine extents
	ny    int
	// local[rank] is the block owned by that rank (nil for ranks outside
	// the sub-grid). A slice, not a map: each rank's goroutine writes only
	// its own element, which is race-free.
	local []*field.Field
	// members lists the world ranks of procs in ascending order, and
	// nbrs[rank] is that member's halo neighbour directions inside procs
	// (nil for non-members). Both are fixed per layout: setLayout rebuilds
	// them whenever procs changes, so Step derives neither.
	members []int
	nbrs    [][]neighbour
	// next, ext, and sendBuf are per-rank step scratch (advection double
	// buffer, halo-extended source, halo staging buffer), indexed like
	// local and touched only by the owning rank's goroutine. They are
	// sized lazily in Step — block shapes change on Redistribute — carry
	// no state between substeps, and are never checkpointed.
	next    []*field.Field
	ext     []*field.Field
	sendBuf [][]float64
	recvBuf [][]float64
	// redistScratch[rank] is that rank's Alltoallv arena, reused across
	// redistributions (indexed like local: each rank touches only its own
	// element, which is race-free).
	redistScratch []mpi.Scratch
	steps         int

	// tracer, when set, receives one redist event per executed Alltoallv.
	// It is runtime wiring, not state: checkpoints never carry it.
	tracer *obs.Tracer
}

// SetTracer installs a structured tracer on the nest (nil removes it);
// Redistribute then emits one event per executed exchange.
func (n *ParallelNest) SetTracer(tr *obs.Tracer) { n.tracer = tr }

// NewParallelNest spawns a distributed nest over the given processor
// sub-rectangle, initializing each owner's block by interpolating the
// parent model's field (exactly like the serial SpawnNest, then
// scattered).
func (m *Model) NewParallelNest(id int, region geom.Rect, pg geom.Grid, procs geom.Rect) (*ParallelNest, error) {
	if region.Empty() || !m.qcloud.Bounds().ContainsRect(region) {
		return nil, fmt.Errorf("wrfsim: invalid nest region %v", region)
	}
	if procs.Empty() || !pg.Bounds().ContainsRect(procs) {
		return nil, fmt.Errorf("wrfsim: invalid processor sub-rectangle %v", procs)
	}
	fine := field.Refine(m.qcloud, region, NestRatio)
	n := &ParallelNest{
		ID:     id,
		Region: region,
		pg:     pg,
		nx:     fine.NX,
		ny:     fine.NY,
	}
	if err := n.scatter(fine, procs); err != nil {
		return nil, err
	}
	return n, nil
}

// scatter distributes a full fine field into per-rank blocks over procs.
func (n *ParallelNest) scatter(fine *field.Field, procs geom.Rect) error {
	dist := geom.NewBlockDist(n.nx, n.ny, procs)
	local := make([]*field.Field, n.pg.Size())
	var bad geom.Rect
	ok := true
	dist.Blocks(func(p geom.Point, blk geom.Rect) {
		if blk.Width() < haloWidth || blk.Height() < haloWidth {
			ok = false
			bad = blk
			return
		}
		local[n.pg.Rank(p)] = fine.Sub(blk)
	})
	if !ok {
		return fmt.Errorf("wrfsim: nest %d block %v narrower than the %d-cell halo; use fewer ranks",
			n.ID, bad, haloWidth)
	}
	n.setLayout(procs, local)
	n.next = make([]*field.Field, n.pg.Size())
	n.ext = make([]*field.Field, n.pg.Size())
	n.sendBuf = make([][]float64, n.pg.Size())
	n.recvBuf = make([][]float64, n.pg.Size())
	n.redistScratch = make([]mpi.Scratch, n.pg.Size())
	return nil
}

// setLayout installs a processor sub-rectangle with its per-rank blocks
// and caches the member rank list and every member's halo neighbours.
func (n *ParallelNest) setLayout(procs geom.Rect, local []*field.Field) {
	n.procs = procs
	n.local = local
	n.members = n.pg.Ranks(procs)
	n.nbrs = make([][]neighbour, n.pg.Size())
	for _, rid := range n.members {
		n.nbrs[rid] = neighboursIn(n.pg.Coord(rid), procs)
	}
}

// Procs returns the current processor sub-rectangle.
func (n *ParallelNest) Procs() geom.Rect { return n.procs }

// Size returns the fine-grid extents.
func (n *ParallelNest) Size() (nx, ny int) { return n.nx, n.ny }

// StepCount returns completed fine substeps.
func (n *ParallelNest) StepCount() int { return n.steps }

// Step advances the nest through NestRatio fine substeps on the world,
// mirroring the serial Nest physics. It runs only on the nest's member
// ranks (World.RunRanks), with one Run per parent step that loops the
// substeps inside each rank, so the ranks of other nests — or idle ones
// — cost nothing. cells must be the parent model's current cell
// population.
func (n *ParallelNest) Step(w *mpi.World, cfg Config, cells []Cell) error {
	if w.Size() != n.pg.Size() {
		return fmt.Errorf("wrfsim: world of %d ranks for grid of %d", w.Size(), n.pg.Size())
	}
	dist := geom.NewBlockDist(n.nx, n.ny, n.procs)
	dtFine := cfg.Dt / NestRatio
	ux := cfg.FlowU * dtFine * NestRatio // fine cells per substep
	vy := cfg.FlowV * dtFine * NestRatio
	decay := math.Exp(-dtFine / cfg.DecayTau)

	err := w.RunRanks(n.members, func(r *mpi.Rank) {
		rid := r.ID()
		blk := dist.BlockOf(n.pg.Coord(rid))
		for s := 0; s < NestRatio; s++ {
			f := n.local[rid]

			// Deposit the scaled sources into the owned block.
			for _, c := range cells {
				scaled := c
				scaled.Peak = c.Peak / NestRatio
				depositNest(f, blk, scaled, cfg.Dt, n.Region)
			}
			r.Compute(float64(blk.Area()) * 5e-9)

			ext := n.exchangeNestHalo(r, n.steps+s, dist, blk, f)

			// Advect+decay into the rank's double buffer, then swap it
			// with the owned block.
			next := n.next[rid]
			if next == nil || next.NX != blk.Width() || next.NY != blk.Height() {
				next = field.New(blk.Width(), blk.Height())
			}
			field.AdvectDecay(next, ext, field.AdvectSpec{
				UX: ux, VY: vy,
				GX0: blk.X0, GY0: blk.Y0,
				GNX: n.nx, GNY: n.ny,
				OffX: haloWidth, OffY: haloWidth,
				Decay: decay,
			})
			n.local[rid], n.next[rid] = next, f
			r.Compute(float64(blk.Area()) * 2e-8)
		}
	})
	if err != nil {
		return err
	}
	n.steps += NestRatio
	return nil
}

// exchangeNestHalo mirrors ParallelModel.exchangeHalo on the nest's
// sub-grid for fine substep number sub, which keys the message tags
// (sub*16 + direction) so consecutive substeps never share a stream.
func (n *ParallelNest) exchangeNestHalo(r *mpi.Rank, sub int, dist geom.BlockDist, blk geom.Rect, f *field.Field) *field.Field {
	rid := r.ID()
	me := n.pg.Coord(rid)
	// Reuse the rank's extended buffer; zero it first so cells no strip
	// rewrites stay at their fresh-field value.
	ext := n.ext[rid]
	if ext == nil || ext.NX != blk.Width()+2*haloWidth || ext.NY != blk.Height()+2*haloWidth {
		ext = field.New(blk.Width()+2*haloWidth, blk.Height()+2*haloWidth)
		n.ext[rid] = ext
	} else {
		ext.Fill(0)
	}
	ext.SetSub(geom.NewRect(haloWidth, haloWidth, blk.Width(), blk.Height()), f)

	// Rank.Send copies payloads, so one staging buffer per rank serves
	// every neighbour in turn.
	for _, nbr := range n.nbrs[rid] {
		strip := stripOf(blk, nbr.dx, nbr.dy)
		payload := n.sendBuf[rid][:0]
		strip.Cells(func(p geom.Point) {
			payload = append(payload, f.At(p.X-blk.X0, p.Y-blk.Y0))
		})
		n.sendBuf[rid] = payload
		to := n.pg.Rank(geom.Point{X: me.X + nbr.dx, Y: me.Y + nbr.dy})
		r.Send(to, sub*16+tag(nbr.dx, nbr.dy), payload)
	}
	for _, nbr := range n.nbrs[rid] {
		from := geom.Point{X: me.X + nbr.dx, Y: me.Y + nbr.dy}
		// RecvInto reuses the rank's staging buffer and recycles the
		// transport buffer, keeping the steady-state exchange allocation-free.
		payload := r.RecvInto(n.pg.Rank(from), sub*16+tag(-nbr.dx, -nbr.dy), n.recvBuf[rid])
		n.recvBuf[rid] = payload
		theirBlk := dist.BlockOf(from)
		strip := stripOf(theirBlk, -nbr.dx, -nbr.dy)
		if strip.Area() != len(payload) {
			panic(fmt.Sprintf("nest halo payload %d != strip %v", len(payload), strip))
		}
		i := 0
		strip.Cells(func(p geom.Point) {
			ex := p.X - blk.X0 + haloWidth
			ey := p.Y - blk.Y0 + haloWidth
			if ex >= 0 && ex < ext.NX && ey >= 0 && ey < ext.NY {
				ext.Set(ex, ey, payload[i])
			}
			i++
		})
	}
	return ext
}

// depositNest adds the cell's Gaussian source restricted to the owned
// fine block (same maths as the serial Model.deposit at NestRatio with
// the region origin).
func depositNest(f *field.Field, blk geom.Rect, c Cell, dt float64, region geom.Rect) {
	inten := c.Intensity() * dt / 60
	if inten <= 0 {
		return
	}
	ratio := float64(NestRatio)
	cx := (c.X - float64(region.X0)) * ratio
	cy := (c.Y - float64(region.Y0)) * ratio
	rad := c.Radius * ratio
	nx := region.Width() * NestRatio
	ny := region.Height() * NestRatio
	// Global fine-domain extent of the source (as the serial deposit
	// computes it), intersected with the owned block.
	x0 := max(blk.X0, max(0, int(cx-3*rad)))
	x1 := min(blk.X1-1, min(nx-1, int(cx+3*rad)+1))
	y0 := max(blk.Y0, max(0, int(cy-3*rad)))
	y1 := min(blk.Y1-1, min(ny-1, int(cy+3*rad)+1))
	f.AddSeparableGaussian(cx, cy, inten, 1/(2*rad*rad), x0, y0, x1, y1, blk.X0, blk.Y0)
}

// Redistribute moves the nest's distributed state from its current
// sub-rectangle to newProcs with one Alltoallv (§IV, Fig. 3): senders ship
// the intersections of their old block with each receiver's new block,
// uninvolved ranks participate with zero counts. Returns the modelled
// exchange time.
func (n *ParallelNest) Redistribute(w *mpi.World, newProcs geom.Rect) (float64, error) {
	if w.Size() != n.pg.Size() {
		return 0, fmt.Errorf("wrfsim: world of %d ranks for grid of %d", w.Size(), n.pg.Size())
	}
	if newProcs.Empty() || !n.pg.Bounds().ContainsRect(newProcs) {
		return 0, fmt.Errorf("wrfsim: invalid new sub-rectangle %v", newProcs)
	}
	oldDist := geom.NewBlockDist(n.nx, n.ny, n.procs)
	newDist := geom.NewBlockDist(n.nx, n.ny, newProcs)
	// Pre-check the new decomposition's halo viability.
	var bad geom.Rect
	ok := true
	newDist.Blocks(func(_ geom.Point, blk geom.Rect) {
		if blk.Width() < haloWidth || blk.Height() < haloWidth {
			ok = false
			bad = blk
		}
	})
	if !ok {
		return 0, fmt.Errorf("wrfsim: nest %d new block %v narrower than the %d-cell halo",
			n.ID, bad, haloWidth)
	}

	all, err := w.All()
	if err != nil {
		return 0, err
	}
	tr := n.tracer
	var wallStart time.Time
	if tr != nil {
		wallStart = time.Now()
	}
	oldProcs := n.procs
	newLocal := make([]*field.Field, n.pg.Size())
	var elapsed float64
	runErr := w.Run(func(r *mpi.Rank) {
		me := n.pg.Coord(r.ID())
		// Send and receive rows both come from the rank's own scratch
		// arena; Alltoallv copies receive rows out before its final
		// rendezvous, so rewinding here cannot race with a peer still
		// reading a previous redistribution's payloads.
		s := &n.redistScratch[r.ID()]
		s.Reset()
		start := r.Clock()

		send := s.Rows(n.pg.Size())
		if n.procs.Contains(me) {
			myBlock := oldDist.BlockOf(me)
			f := n.local[r.ID()]
			newDist.Blocks(func(recv geom.Point, rblk geom.Rect) {
				inter := myBlock.Intersect(rblk)
				if inter.Empty() {
					return
				}
				payload := s.Buf(inter.Area())
				inter.Cells(func(p geom.Point) {
					payload = append(payload, f.At(p.X-myBlock.X0, p.Y-myBlock.Y0))
				})
				send[n.pg.Rank(recv)] = payload
			})
		}

		recv := all.AlltoallvInto(r, send, s)

		if newProcs.Contains(me) {
			myBlock := newDist.BlockOf(me)
			out := field.New(myBlock.Width(), myBlock.Height())
			for from := 0; from < n.pg.Size(); from++ {
				payload := recv[from]
				if len(payload) == 0 {
					continue
				}
				sender := n.pg.Coord(from)
				inter := oldDist.BlockOf(sender).Intersect(myBlock)
				if inter.Area() != len(payload) {
					panic(fmt.Sprintf("redistribution payload %d != intersection %v", len(payload), inter))
				}
				i := 0
				inter.Cells(func(p geom.Point) {
					out.Set(p.X-myBlock.X0, p.Y-myBlock.Y0, payload[i])
					i++
				})
			}
			newLocal[r.ID()] = out
		}
		if r.ID() == 0 {
			elapsed = r.Clock() - start
		}
	})
	if runErr != nil {
		return 0, runErr
	}
	n.setLayout(newProcs, newLocal)
	if tr != nil {
		// Remote payload of the executed exchange: every old-block/new-block
		// intersection whose owner changed, at 8 bytes per float64 sample.
		remote := 0
		oldDist.Blocks(func(sp geom.Point, sblk geom.Rect) {
			newDist.Blocks(func(rp geom.Point, rblk geom.Rect) {
				if sp != rp {
					remote += sblk.Intersect(rblk).Area()
				}
			})
		})
		tr.Emit(obs.Event{
			Kind:        obs.KindRedist,
			NestID:      n.ID,
			DurNS:       time.Since(wallStart).Nanoseconds(),
			Actual:      elapsed,
			RedistBytes: int64(remote) * 8,
			Detail:      fmt.Sprintf("procs %v -> %v", oldProcs, newProcs),
		})
	}
	return elapsed, nil
}

// Gather reassembles the full fine field (testing/feedback only).
func (n *ParallelNest) Gather() *field.Field {
	return n.GatherInto(nil)
}

// GatherInto reassembles the full fine field into out, reallocating only
// when out is nil or the wrong shape — the allocation-free counterpart of
// Gather for callers (the checkpoint encoder) that keep a scratch field
// across intervals. The blocks tile the fine grid exactly, so every sample
// of out is overwritten.
func (n *ParallelNest) GatherInto(out *field.Field) *field.Field {
	if out == nil || out.NX != n.nx || out.NY != n.ny {
		out = field.New(n.nx, n.ny)
	}
	dist := geom.NewBlockDist(n.nx, n.ny, n.procs)
	dist.Blocks(func(p geom.Point, blk geom.Rect) {
		out.SetSub(blk, n.local[n.pg.Rank(p)])
	})
	return out
}

// Feedback coarsens the distributed nest's state back onto the parent
// domain (two-way nesting), like the serial Nest.Feedback.
func (n *ParallelNest) Feedback(m *Model) {
	coarse := field.Coarsen(n.Gather(), NestRatio)
	m.qcloud.SetSub(n.Region, coarse)
	m.updateOLR()
}
