package node

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/sim"
	"github.com/turbdb/turbdb/internal/stencil"
)

// Breakdown records per-phase durations of one node-local query evaluation,
// in the node's time base (virtual time in simulation mode, wall-clock in
// real mode). These are the per-node inputs to the paper's Fig. 8/9
// stacked-bar breakdowns.
type Breakdown struct {
	CacheLookup time.Duration
	IO          time.Duration
	Compute     time.Duration
	CacheUpdate time.Duration
	Total       time.Duration

	// AtomsRead counts local atom records read (including redundant halo
	// re-reads across workers); HaloAtoms counts atoms fetched from peers;
	// PointsExamined counts kernel evaluations.
	AtomsRead      int
	HaloAtoms      int
	PointsExamined int
	// AtomsSkipped counts shard atoms left unevaluated because their halo
	// band was unreachable (partial-halo degradation). Non-zero means the
	// result is partial and must not be cached.
	AtomsSkipped int
}

// Add accumulates another breakdown (used by the mediator for summaries).
func (b *Breakdown) Add(o Breakdown) {
	b.CacheLookup += o.CacheLookup
	b.IO += o.IO
	b.Compute += o.Compute
	b.CacheUpdate += o.CacheUpdate
	b.Total += o.Total
	b.AtomsRead += o.AtomsRead
	b.HaloAtoms += o.HaloAtoms
	b.PointsExamined += o.PointsExamined
	b.AtomsSkipped += o.AtomsSkipped
}

// Max keeps the element-wise maximum of phase durations (used to form the
// cluster-level critical path across nodes).
func (b *Breakdown) Max(o Breakdown) {
	if o.CacheLookup > b.CacheLookup {
		b.CacheLookup = o.CacheLookup
	}
	if o.IO > b.IO {
		b.IO = o.IO
	}
	if o.Compute > b.Compute {
		b.Compute = o.Compute
	}
	if o.CacheUpdate > b.CacheUpdate {
		b.CacheUpdate = o.CacheUpdate
	}
	if o.Total > b.Total {
		b.Total = o.Total
	}
	b.AtomsRead += o.AtomsRead
	b.HaloAtoms += o.HaloAtoms
	b.PointsExamined += o.PointsExamined
	b.AtomsSkipped += o.AtomsSkipped
}

// errAtomMissing marks an atom block absent at assembly time — after a
// degraded halo fetch this is expected, and partial-halo mode skips just
// the affected shard atom instead of failing the query.
var errAtomMissing = faulttol.Permanent("node: atom missing")

// workerData is the outcome of one worker's I/O phase: per raw field, the
// atom blocks the shard's kernel computations need.
type workerData struct {
	blocks    map[string]map[morton.Code]*field.Block
	atomsRead int
	haloAtoms int
	err       error
}

// bufferPool tracks which local atoms have already been charged to disk
// within one query evaluation on one node. Later readers of the same atom
// are served from the database buffer pool without disk time: the node's
// RAM comfortably holds one query's working set (the paper's nodes pair
// 24 GB of memory with ~3 GB shards and credit "a larger buffer pool, which
// reduces the I/O time"). The *redundant work* across workers still costs
// deserialization and, for remote halo atoms, network transfer time.
type poolKey struct {
	field string
	code  morton.Code
}

type bufferPool struct {
	//turbdb:lockrank node.bufpool 60
	mu   sync.Mutex
	seen map[poolKey]bool // guarded by mu
}

func newBufferPool() *bufferPool {
	return &bufferPool{seen: make(map[poolKey]bool)}
}

// admit splits codes into cold (first touch, pays disk) and warm.
func (b *bufferPool) admit(fieldName string, codes []morton.Code) (cold, warm []morton.Code) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, c := range codes {
		k := poolKey{fieldName, c}
		if b.seen[k] {
			warm = append(warm, c)
		} else {
			b.seen[k] = true
			cold = append(cold, c)
		}
	}
	return cold, warm
}

// gather is the I/O phase of one worker: for every raw input field, read
// every atom the shard's kernel computations touch — the shard itself plus
// a halo band of one kernel half-width, with halo atoms owned by other
// nodes fetched from peers.
func (n *Node) gather(ctx context.Context, wp *sim.Proc, rawFields []derived.RawInput, step int, shard []morton.Code, qbox grid.Box, hw int, pool *bufferPool) workerData {
	out := workerData{blocks: make(map[string]map[morton.Code]*field.Block, len(rawFields))}
	for _, rf := range rawFields {
		if err := ctx.Err(); err != nil {
			return workerData{err: err}
		}
		one := n.gatherField(ctx, wp, rf.Name, step, shard, qbox, hw, pool)
		if one.err != nil {
			return one
		}
		for name, blocks := range one.blocks {
			out.blocks[name] = blocks
		}
		out.atomsRead += one.atomsRead
		out.haloAtoms += one.haloAtoms
	}
	return out
}

// gatherField is gather for one raw field.
func (n *Node) gatherField(ctx context.Context, wp *sim.Proc, rawField string, step int, shard []morton.Code, qbox grid.Box, hw int, pool *bufferPool) workerData {
	g := n.store.Grid()
	meta, err := n.store.FieldMeta(rawField)
	if err != nil {
		return workerData{err: err}
	}

	// scanShard assembles the halo of the whole atom, not just of its part
	// inside qbox, so the gather fetches the same set.
	needed := make(map[morton.Code]struct{}, len(shard)*2)
	for _, c := range shard {
		abox := g.AtomBox(c)
		if abox.Intersect(qbox).Empty() {
			continue
		}
		if hw == 0 {
			needed[c] = struct{}{}
			continue
		}
		covers, err := g.AtomsCovering(abox.Expand(hw))
		if err != nil {
			return workerData{err: err}
		}
		for _, cc := range covers {
			needed[cc] = struct{}{}
		}
	}

	// Replica ranges count as local: a halo atom this node also holds as a
	// replica is served from its own store instead of a peer fetch. The
	// data-presence check matters mid-rebalance — an adopted range whose
	// atoms are still streaming in is fetched from a peer, not read from
	// the (empty) local store.
	var local, remote []morton.Code
	for c := range needed {
		if n.store.Owns(c) && n.store.HasAtom(rawField, step, c) {
			local = append(local, c)
		} else {
			remote = append(remote, c)
		}
	}
	sortCodes(local)
	sortCodes(remote)

	if len(remote) > 0 && n.peers == nil {
		return workerData{err: faulttol.Permanentf("node %d: %d halo atoms not owned and no peer fetcher configured", n.id, len(remote))}
	}
	// Atoms another worker already pulled in this query come from the
	// buffer pool: local ones skip the disk charge, remote ones skip the
	// network transfer (the node fetched them once and holds the pages).
	cold, warm := pool.admit(rawField, local)
	remoteCold, remoteWarm := pool.admit(rawField, remote)

	// Disk reads and halo fetches proceed concurrently, as the production
	// system's asynchronous requests to adjacent nodes do.
	var blobs, warmBlobs, remoteBlobs map[morton.Code][]byte
	var localErr, warmErr, remoteErr error
	n.exec.Fork(wp, 2, func(i int, fp *sim.Proc) {
		if i == 0 {
			blobs, localErr = n.store.ReadAtoms(fp, rawField, step, cold)
			if localErr == nil {
				warmBlobs, warmErr = n.store.ReadAtoms(nil, rawField, step, warm)
			}
		} else if len(remote) > 0 {
			_, hsp := obs.StartSpan(ctx, "halo_fetch")
			defer hsp.End()
			var coldBlobs, warmRemote map[morton.Code][]byte
			if len(remoteCold) > 0 {
				coldBlobs, remoteErr = n.peers.FetchAtoms(ctx, fp, rawField, step, remoteCold)
			}
			if remoteErr == nil && len(remoteWarm) > 0 {
				warmRemote, remoteErr = n.peers.FetchAtoms(ctx, nil, rawField, step, remoteWarm)
			}
			remoteBlobs = make(map[morton.Code][]byte, len(remote))
			for c, b := range coldBlobs {
				remoteBlobs[c] = b
			}
			for c, b := range warmRemote {
				remoteBlobs[c] = b
			}
		}
	})
	if localErr != nil {
		return workerData{err: localErr}
	}
	if warmErr != nil {
		return workerData{err: warmErr}
	}
	if remoteErr != nil {
		// Partial-halo degradation: with unreachable peers, proceed with
		// whatever halo atoms did arrive — the compute phase skips (and
		// counts) exactly the shard atoms whose band stayed incomplete.
		// Cancellation is the caller giving up, never a degradation.
		if !n.partialHalo || ctx.Err() != nil {
			return workerData{err: fmt.Errorf("node %d: halo fetch: %w", n.id, remoteErr)}
		}
	}
	for c, b := range warmBlobs {
		blobs[c] = b
	}
	for c, b := range remoteBlobs {
		blobs[c] = b
	}

	blocks := make(map[morton.Code]*field.Block, len(blobs))
	for c, blob := range blobs {
		bl, err := field.BlockFromBytes(g.AtomBox(c), meta.NComp, blob)
		if err != nil {
			return workerData{err: err}
		}
		blocks[c] = bl
	}
	return workerData{
		blocks:    map[string]map[morton.Code]*field.Block{rawField: blocks},
		atomsRead: len(cold), haloAtoms: len(remoteCold),
	}
}

// blockPool recycles halo-extended computation blocks across atoms, queries
// and workers, bucketed by payload size (the element count is uniform
// within one query — atom box expanded by the kernel half-width — but
// varies across component counts, halo widths and atom-size ablations).
// Without it assembleExtended allocates a fresh multi-KB block per atom per
// raw field per worker, which dominates steady-state garbage.
type blockPool struct {
	//turbdb:lockrank node.blockpool 65
	mu    sync.Mutex
	pools map[int]*sync.Pool // guarded by mu
}

func newBlockPool() *blockPool {
	return &blockPool{pools: make(map[int]*sync.Pool)}
}

// get returns a block shaped over box with nc components; contents are
// undefined (assembly overwrites every point: the atom tiles partition the
// box).
func (bp *blockPool) get(box grid.Box, nc int) *field.Block {
	n := box.NumPoints() * nc
	bp.mu.Lock()
	p := bp.pools[n]
	if p == nil {
		p = &sync.Pool{}
		bp.pools[n] = p
	}
	bp.mu.Unlock()
	mPoolGets.Inc()
	if v := p.Get(); v != nil {
		if bl, ok := v.(*field.Block); ok {
			bl.Reset(box, nc)
			return bl
		}
	}
	mPoolNews.Inc()
	return field.NewBlock(box, nc)
}

// put returns a block obtained from get for reuse. nil is ignored.
func (bp *blockPool) put(bl *field.Block) {
	if bl == nil {
		return
	}
	bp.mu.Lock()
	p := bp.pools[len(bl.Data)]
	bp.mu.Unlock()
	if p != nil {
		mPoolPuts.Inc()
		p.Put(bl)
	}
}

// assembleExtended stitches the atoms covering box (with periodic wrapping)
// into one dense block for kernel evaluation. The block comes from the
// node's pool; the caller must return it with extPool.put when done. The
// tile walk is inlined (rather than grid.AtomOriginsCovering) so the
// steady-state path performs no per-atom allocations.
func (n *Node) assembleExtended(g grid.Grid, blocks map[morton.Code]*field.Block, box grid.Box, nc int) (*field.Block, error) {
	ext := n.extPool.get(box, nc)
	side := g.AtomSide
	for az := floorDiv(box.Lo.Z, side); az*side < box.Hi.Z; az++ {
		for ay := floorDiv(box.Lo.Y, side); ay*side < box.Hi.Y; ay++ {
			for ax := floorDiv(box.Lo.X, side); ax*side < box.Hi.X; ax++ {
				origin := grid.Point{X: ax * side, Y: ay * side, Z: az * side}
				wrapped := g.WrapPoint(origin)
				code := g.AtomCode(wrapped)
				bl, ok := blocks[code]
				if !ok {
					n.extPool.put(ext)
					return nil, fmt.Errorf("%w: atom %v during assembly of %v", errAtomMissing, code, box)
				}
				offset := grid.Point{X: origin.X - wrapped.X, Y: origin.Y - wrapped.Y, Z: origin.Z - wrapped.Z}
				if err := ext.CopyFrom(bl, offset); err != nil {
					n.extPool.put(ext)
					return nil, err
				}
			}
		}
	}
	return ext, nil
}

// floorDiv divides rounding toward negative infinity (halo boxes have
// negative coordinates before wrapping).
//
//turbdb:rowkernel
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// scanShard is the compute phase of one worker: evaluate the derived field's
// norm at every grid point of the shard's atoms inside qbox, invoking visit
// for each. visit returning false aborts the scan (result-limit
// enforcement). Compute time is charged to the simulated CPU per atom.
//
// Evaluation is row-wise: each x-fastest run of the ROI is computed in one
// derived.NormRow call into a reusable norms buffer, and visit then walks
// that buffer. All working buffers are sized once per call (rows never
// exceed the atom side) and extended blocks come from the node's pool, so
// the steady-state loop performs zero heap allocations per atom.
func (n *Node) scanShard(
	ctx context.Context,
	wp *sim.Proc,
	f *derived.Field,
	st stencil.Stencil,
	step int,
	shard []morton.Code,
	blocks map[string]map[morton.Code]*field.Block,
	qbox grid.Box,
	hw int,
	visit func(pt grid.Point, norm float64) bool,
) (pointsExamined, atomsSkipped int, err error) {
	g := n.store.Grid()
	dx := g.Dx
	perPoint := n.costs.Cost(f.Name)
	// Row buffers: an ROI is contained in one atom box, so rows are at most
	// AtomSide points wide.
	rowW := g.AtomSide
	norms := make([]float64, rowW)
	vals := make([]float64, rowW*f.OutComp)
	var scratch []float64
	if f.RowScratchPerPoint > 0 {
		scratch = make([]float64, rowW*f.RowScratchPerPoint)
	}
	exts := make([]*field.Block, len(f.Raws))
	pooled := make([]*field.Block, len(f.Raws))
	release := func() {
		for i, bl := range pooled {
			if bl != nil {
				n.extPool.put(bl)
				pooled[i] = nil
			}
		}
	}
	defer release()
scan:
	for _, c := range shard {
		if err := ctx.Err(); err != nil {
			return pointsExamined, atomsSkipped, err
		}
		abox := g.AtomBox(c)
		roi := abox.Intersect(qbox)
		if roi.Empty() {
			continue
		}
		for i, rf := range f.Raws {
			fieldBlocks := blocks[rf.Name]
			if hw == 0 {
				exts[i] = fieldBlocks[c]
				if exts[i] == nil {
					return pointsExamined, atomsSkipped, faulttol.Permanentf("node: atom %v of %q missing", c, rf.Name)
				}
			} else {
				exts[i], err = n.assembleExtended(g, fieldBlocks, abox.Expand(hw), rf.NComp)
				if err != nil {
					release()
					if n.partialHalo && errors.Is(err, errAtomMissing) {
						// The halo band of this atom stayed incomplete
						// after a degraded peer fetch: fail this atom
						// only, not the query.
						atomsSkipped++
						continue scan
					}
					return pointsExamined, atomsSkipped, err
				}
				pooled[i] = exts[i]
			}
		}
		n.exec.ChargeCompute(wp, perPoint*time.Duration(roi.NumPoints()))
		nx := roi.Hi.X - roi.Lo.X
		var pt grid.Point
		for pt.Z = roi.Lo.Z; pt.Z < roi.Hi.Z; pt.Z++ {
			for pt.Y = roi.Lo.Y; pt.Y < roi.Hi.Y; pt.Y++ {
				pt.X = roi.Lo.X
				f.NormRow(st, exts, pt, nx, dx, norms, vals, scratch)
				for i := 0; i < nx; i++ {
					pointsExamined++
					if !visit(grid.Point{X: roi.Lo.X + i, Y: pt.Y, Z: pt.Z}, norms[i]) {
						return pointsExamined, atomsSkipped, nil
					}
				}
			}
		}
		release()
	}
	return pointsExamined, atomsSkipped, nil
}

// sortCodes sorts Morton codes ascending. Gathers sort the cold/warm code
// lists of every worker on every query — potentially thousands of codes —
// so this is pdqsort via the standard library, not an insertion sort.
func sortCodes(cs []morton.Code) {
	slices.Sort(cs)
}

// evalPhases runs the two-phase (I/O then compute) data-parallel evaluation
// over the atoms codes (this node's shard of qbox, from scanAtomsCovering)
// and reports phase timings. visitFor builds each worker's visit callback.
func (n *Node) evalPhases(
	ctx context.Context,
	p *sim.Proc,
	f *derived.Field,
	st stencil.Stencil,
	step int,
	qbox grid.Box,
	codes []morton.Code,
	hw int,
	visitFor func(worker int) func(pt grid.Point, norm float64) bool,
) (Breakdown, error) {
	var bd Breakdown
	procs := n.Processes()
	shards := splitWork(codes, procs)

	// Phase 1: I/O — every worker reads its shard plus halo into memory.
	// Workers share a per-query buffer pool so each atom record pays disk
	// time once per node per query.
	pool := newBufferPool()
	ioStart := n.exec.Now()
	ioCtx, ioSp := obs.StartSpan(ctx, "scan_io")
	data := make([]workerData, procs)
	n.exec.Fork(p, procs, func(i int, wp *sim.Proc) {
		data[i] = n.gather(ioCtx, wp, f.Raws, step, shards[i], qbox, hw, pool)
	})
	ioSp.End()
	bd.IO = n.exec.Now() - ioStart
	mScanIO.Observe(bd.IO.Seconds())
	for _, d := range data {
		if d.err != nil {
			return bd, d.err
		}
		bd.AtomsRead += d.atomsRead
		bd.HaloAtoms += d.haloAtoms
	}

	// Phase 2: compute — evaluate the kernel at every point and visit.
	compStart := n.exec.Now()
	compCtx, compSp := obs.StartSpan(ctx, "scan_compute")
	errs := make([]error, procs)
	examined := make([]int, procs)
	skipped := make([]int, procs)
	n.exec.Fork(p, procs, func(i int, wp *sim.Proc) {
		examined[i], skipped[i], errs[i] = n.scanShard(compCtx, wp, f, st, step, shards[i], data[i].blocks, qbox, hw, visitFor(i))
	})
	compSp.End()
	bd.Compute = n.exec.Now() - compStart
	mScanCompute.Observe(bd.Compute.Seconds())
	for i, e := range errs {
		if e != nil {
			return bd, e
		}
		bd.PointsExamined += examined[i]
		bd.AtomsSkipped += skipped[i]
	}
	mPointsExam.Add(int64(bd.PointsExamined))
	mAtomsSkipped.Add(int64(bd.AtomsSkipped))
	return bd, nil
}
