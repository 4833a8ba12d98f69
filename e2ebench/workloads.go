package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"github.com/turbdb/turbdb/internal/cache"
	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/wire"
	"github.com/turbdb/turbdb/internal/workload"
)

// answer is what a user receives: points for threshold and top-k queries,
// bin counts for PDF queries.
type answer struct {
	points []query.ResultPoint
	counts []int64
}

// diff reports how got differs from want by count and Float32bits; nil
// means bit-for-bit identical.
func (want answer) diff(got answer) error {
	if len(got.points) != len(want.points) || len(got.counts) != len(want.counts) {
		return fmt.Errorf("got %d points/%d bins, want %d/%d", len(got.points), len(got.counts), len(want.points), len(want.counts))
	}
	for i, w := range want.points {
		g := got.points[i]
		if g.Code != w.Code || math.Float32bits(g.Value) != math.Float32bits(w.Value) {
			return fmt.Errorf("point %d: got (%d, %#x), want (%d, %#x)", i, g.Code, math.Float32bits(g.Value), w.Code, math.Float32bits(w.Value))
		}
	}
	for i, w := range want.counts {
		if got.counts[i] != w {
			return fmt.Errorf("bin %d: got %d, want %d", i, got.counts[i], w)
		}
	}
	return nil
}

type opKind int

const (
	opThreshold opKind = iota
	opPDF
	opTopK
)

func (k opKind) String() string {
	return [...]string{"threshold", "pdf", "topk"}[k]
}

// op is one user query with its reference answer.
type op struct {
	kind opKind
	th   query.Threshold
	pdf  query.PDF
	topk query.TopK
	want answer
}

func (o *op) key() string {
	switch o.kind {
	case opPDF:
		return fmt.Sprintf("pdf %+v", o.pdf)
	case opTopK:
		return fmt.Sprintf("topk %+v", o.topk)
	}
	return fmt.Sprintf("threshold %+v", o.th)
}

// call sends the op through the user's wire.Client.
func (o *op) call(ctx context.Context, c *wire.Client) (answer, error) {
	switch o.kind {
	case opPDF:
		r, err := c.GetPDF(ctx, nil, o.pdf)
		if err != nil {
			return answer{}, err
		}
		return answer{counts: r.Counts}, nil
	case opTopK:
		r, err := c.GetTopK(ctx, nil, o.topk)
		if err != nil {
			return answer{}, err
		}
		return answer{points: r.Points}, nil
	}
	pts, _, err := c.ThresholdStats(ctx, o.th, false)
	return answer{points: pts}, err
}

// reference evaluates the op on the oracle mediator.
func (o *op) reference(ctx context.Context, m *mediator.Mediator) (answer, error) {
	switch o.kind {
	case opPDF:
		counts, _, err := m.PDF(ctx, nil, o.pdf)
		return answer{counts: counts}, err
	case opTopK:
		pts, _, err := m.TopK(ctx, nil, o.topk)
		return answer{points: pts}, err
	}
	pts, _, err := m.Threshold(ctx, nil, o.th)
	return answer{points: pts}, err
}

// spec is one workload: a seeded stream of ops replayed by closed-loop
// clients, the first warmup ops of which run before the timed phase.
type spec struct {
	clients  int
	cacheCap int64
	warmup   int
	stream   []*op
	// coldField, when set, has its cache entries dropped before every op,
	// outside the op's timed interval.
	coldField string
	notes     []string
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"cold-scan", "dense-result", "multi-tenant"}

// paperRows are the vorticity result sizes of the paper's Table 1 at 1024³
// (high, medium, low threshold).
var paperRows = [3]int{4247, 86580, 909274}

// paperCounts scales the paper's rows to this grid by result fraction:
// 1, 21 and 222 points at 64³.
func paperCounts() [3]int {
	var out [3]int
	for i, r := range paperRows {
		out[i] = max(1, int(math.Round(float64(r)*gridN*gridN*gridN/(1<<30))))
	}
	return out
}

// calibrate returns the threshold selecting the k largest values of field
// in box, derived with top-k the way experiments.Levels does: result values
// are float32, so the k-th value may round above the true norm, and the
// threshold is nudged down by one part in a million.
func calibrate(ctx context.Context, m *mediator.Mediator, ds *dataset, field string, box grid.Box, k int) (float64, error) {
	top, _, err := m.TopK(ctx, nil, query.TopK{Dataset: ds.name, Field: field, Box: box, K: k})
	if err != nil {
		return 0, fmt.Errorf("calibrating %s: %w", field, err)
	}
	if len(top) != k {
		return 0, fmt.Errorf("calibrating %s: top-%d returned %d points", field, k, len(top))
	}
	return float64(top[k-1].Value) * (1 - 1e-6), nil
}

// resolve computes the reference answer of every distinct op in the
// stream on the oracle.
func resolve(ctx context.Context, m *mediator.Mediator, stream []*op) error {
	refs := make(map[string]answer)
	for _, o := range stream {
		k := o.key()
		want, ok := refs[k]
		if !ok {
			var err error
			if want, err = o.reference(ctx, m); err != nil {
				return fmt.Errorf("reference for %s: %w", k, err)
			}
			refs[k] = want
		}
		o.want = want
	}
	return nil
}

const streamLen = 10000

// buildSpec calibrates the named workload on the oracle, generates its
// stream from seed and attaches every reference answer.
func buildSpec(ctx context.Context, name string, seed int64, ds *dataset) (*spec, error) {
	m := ds.oracle
	rng := rand.New(rand.NewSource(seed))
	domain := ds.grid.Domain()
	switch name {
	case "cold-scan":
		return coldScan(ctx, rng, m, ds, domain)
	case "dense-result":
		return denseResult(ctx, rng, m, ds, domain)
	case "multi-tenant":
		return multiTenant(ctx, seed, rng, m, ds, domain)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// coldScan: current-density threshold queries over the whole domain at the
// paper's three result fractions, each evaluated from the raw data.
func coldScan(ctx context.Context, rng *rand.Rand, m *mediator.Mediator, ds *dataset, domain grid.Box) (*spec, error) {
	sp := &spec{clients: 1, warmup: 3, coldField: derived.Current}
	var levels []*op
	for _, k := range paperCounts() {
		thr, err := calibrate(ctx, m, ds, derived.Current, domain, k)
		if err != nil {
			return nil, err
		}
		o := &op{kind: opThreshold, th: query.Threshold{Dataset: ds.name, Field: derived.Current, Threshold: thr}}
		if err := resolve(ctx, m, []*op{o}); err != nil {
			return nil, err
		}
		if got := len(o.want.points); got != k {
			return nil, fmt.Errorf("cold-scan: threshold %g selects %d points, want the paper fraction's %d", thr, got, k)
		}
		sp.notes = append(sp.notes, fmt.Sprintf("fraction %.4f%%: threshold %.6g selects %d points (target %d)",
			100*float64(k)/float64(domain.NumPoints()), thr, len(o.want.points), k))
		levels = append(levels, o)
	}
	for len(sp.stream) < streamLen {
		for _, i := range rng.Perm(len(levels)) {
			sp.stream = append(sp.stream, levels[i])
		}
	}
	return sp, nil
}

// denseTarget is the dense-result size class: a quarter of the grid, with
// room for the calibration nudge to admit a few tied points.
const denseTarget = gridN * gridN * gridN / 4

func inDenseClass(n int) bool { return n >= denseTarget && n <= denseTarget+denseTarget/100 }

// denseResult: current-density queries over seeded boxes whose answers are
// all about a quarter of the grid; after one warm-up pass every node answer
// comes from the semantic cache.
func denseResult(ctx context.Context, rng *rand.Rand, m *mediator.Mediator, ds *dataset, domain grid.Box) (*spec, error) {
	const boxes = 6
	sp := &spec{clients: 1, warmup: boxes}
	sides := []int{40, 48, 56, 64}
	var pool []*op
	for len(pool) < boxes {
		nx, ny, nz := sides[rng.Intn(len(sides))], sides[rng.Intn(len(sides))], sides[rng.Intn(len(sides))]
		if v := nx * ny * nz; v < 2*denseTarget || v > 3*denseTarget {
			continue // keep the threshold between the box's median and upper quartile
		}
		box := alignedBox(rng, ds.grid.AtomSide, nx, ny, nz)
		thr, err := calibrate(ctx, m, ds, derived.Current, box, denseTarget)
		if err != nil {
			return nil, err
		}
		o := &op{kind: opThreshold, th: query.Threshold{Dataset: ds.name, Field: derived.Current, Box: box, Threshold: thr}}
		if err := resolve(ctx, m, []*op{o}); err != nil {
			return nil, err
		}
		if !inDenseClass(len(o.want.points)) {
			return nil, fmt.Errorf("dense-result: box %v selects %d points, outside the size class [%d, %d]",
				box, len(o.want.points), denseTarget, denseTarget+denseTarget/100)
		}
		sp.notes = append(sp.notes, fmt.Sprintf("box %v: threshold %.6g selects %d points (size class %d..%d)",
			box, thr, len(o.want.points), denseTarget, denseTarget+denseTarget/100))
		pool = append(pool, o)
	}
	sp.stream = append(sp.stream, pool...)
	for len(sp.stream) < streamLen {
		sp.stream = append(sp.stream, pool[rng.Intn(len(pool))])
	}
	return sp, nil
}

// Multi-tenant stream shape. Every query lands in its tenant's hot box:
// a whole-domain query costs about ten hot-box ones, and the seeded share
// of them moved throughput by 15 % from seed to seed. The node caches hold
// 80 % of the stream's distinct cached bytes, so about 4 % of node lookups
// miss and evict, while hits keep p50 in the fast mode and PDF, top-k and
// misses put p99 in the slow one.
const (
	mtRevisit   = 0.7 // share of revisits of a hot (field, level)
	mtHotBias   = 1.0 // share of a tenant's queries inside its hot box
	mtPDFShare  = 0.06
	mtTopKShare = 0.04
	mtCacheFrac = 0.8 // node cache capacity / distinct cached bytes
	mtHotSide   = 32
	mtWarmup    = 100
)

// mtLevels are the whole-domain result sizes the multi-tenant thresholds
// select, lowest threshold first (revisits move up this list).
var mtLevels = []int{8000, 2000, 222}

// multiTenant: one seeded stream of three tenants over overlapping hot
// boxes, three derived fields, revisits at the same or a higher threshold
// mixed with exploratory queries, and a minority of PDF and top-k queries.
func multiTenant(ctx context.Context, seed int64, rng *rand.Rand, m *mediator.Mediator, ds *dataset, domain grid.Box) (*spec, error) {
	sp := &spec{clients: 2, warmup: mtWarmup}
	fields := []string{derived.Current, derived.Vorticity, derived.QCriterion}
	thresholds := make(map[string][]float64, len(fields))
	maxima := make(map[string]float64, len(fields))
	for _, f := range fields {
		for _, k := range mtLevels {
			thr, err := calibrate(ctx, m, ds, f, domain, k)
			if err != nil {
				return nil, err
			}
			thresholds[f] = append(thresholds[f], thr)
		}
		top, err := calibrate(ctx, m, ds, f, domain, 1)
		if err != nil {
			return nil, err
		}
		maxima[f] = top
	}
	// Fixed hot boxes around the domain centre, offset by one atom each way
	// so that every pair overlaps.
	tenants := make([]workload.TenantProfile, 3)
	side := ds.grid.AtomSide
	for i := range tenants {
		lo := grid.Point{X: gridN/2 - mtHotSide/2, Y: gridN/2 - mtHotSide/2, Z: gridN/2 - mtHotSide/2}
		switch i {
		case 0:
			lo = lo.Add(-side, 0, 0)
		case 1:
			lo = lo.Add(0, -side, side)
		case 2:
			lo = lo.Add(side, side, -side)
		}
		tenants[i] = workload.TenantProfile{
			Name: fmt.Sprintf("tenant%d", i), HotBias: mtHotBias,
			Hot: grid.Box{Lo: lo, Hi: lo.Add(mtHotSide, mtHotSide, mtHotSide)},
		}
		sp.notes = append(sp.notes, fmt.Sprintf("%s hot box %v", tenants[i].Name, tenants[i].Hot))
	}
	qs, err := workload.GenerateMulti(workload.MultiParams{
		Params: workload.Params{
			Seed: seed, Queries: streamLen, Dataset: ds.name, Fields: fields, Steps: 1,
			Revisit: mtRevisit, Thresholds: thresholds,
		},
		Tenants: tenants,
	})
	if err != nil {
		return nil, err
	}
	for _, q := range qs {
		o := &op{kind: opThreshold, th: q.Threshold}
		switch r := rng.Float64(); {
		case r < mtPDFShare:
			o = &op{kind: opPDF, pdf: query.PDF{
				Dataset: q.Dataset, Field: q.Field, Box: q.Box, Tenant: q.Tenant,
				Bins: 64, Width: maxima[q.Field] / 64,
			}}
		case r < mtPDFShare+mtTopKShare:
			o = &op{kind: opTopK, topk: query.TopK{Dataset: q.Dataset, Field: q.Field, Box: q.Box, Tenant: q.Tenant, K: 64}}
		}
		sp.stream = append(sp.stream, o)
	}
	if err := resolve(ctx, m, sp.stream); err != nil {
		return nil, err
	}

	// Size the node caches below the bytes the stream's distinct threshold
	// answers would occupy, so the cache evicts under the mix.
	perNode := distinctCachedBytes(ds, sp.stream)
	least := perNode[0]
	for _, b := range perNode {
		least = min(least, b)
	}
	sp.cacheCap = int64(float64(least) * mtCacheFrac)
	sp.notes = append(sp.notes, fmt.Sprintf("node cache capacity %d bytes; distinct cached bytes per node %v", sp.cacheCap, perNode))
	return sp, nil
}

// alignedBox draws a box of the given size whose faces lie on atom
// boundaries. Boxes are atom-aligned because a derived-field query over a
// box that cuts through atoms fails at this commit (see probeUnaligned).
func alignedBox(rng *rand.Rand, side, nx, ny, nz int) grid.Box {
	at := func(n int) int { return side * rng.Intn((gridN-n)/side+1) }
	lo := grid.Point{X: at(nx), Y: at(ny), Z: at(nz)}
	return grid.Box{Lo: lo, Hi: lo.Add(nx, ny, nz)}
}

// probeUnaligned runs one current-density query over a box that cuts
// through atoms on the reference mediator and reports the outcome. At this
// commit such queries fail with "atom missing": the node gathers the halo
// of each atom's clipped region but assembles the halo of the whole atom.
// The workloads therefore use atom-aligned boxes, and every run prints
// this probe so the defect stays visible until it is fixed.
func probeUnaligned(ctx context.Context, ds *dataset) string {
	lo := grid.Point{X: 3, Y: 5, Z: 7}
	q := query.Threshold{Dataset: ds.name, Field: derived.Current, Box: grid.Box{Lo: lo, Hi: lo.Add(40, 40, 40)}}
	if _, _, err := ds.oracle.Threshold(ctx, nil, q); err != nil {
		return fmt.Sprintf("KNOWN DEFECT: derived-field query over atom-unaligned box %v fails: %v", q.Box, err)
	}
	return fmt.Sprintf("derived-field query over atom-unaligned box %v succeeds", q.Box)
}

// distinctCachedBytes is, per node, the modeled cache footprint of every
// distinct threshold answer in the stream (one entry per query, the way a
// miss stores it).
func distinctCachedBytes(ds *dataset, stream []*op) []int64 {
	const infoBytes = 512 // the cache's modeled cacheInfo row
	out := make([]int64, len(ds.stores))
	seen := make(map[string]bool)
	for _, o := range stream {
		if o.kind != opThreshold || seen[o.key()] {
			continue
		}
		seen[o.key()] = true
		perNode := make([]int64, len(ds.stores))
		for _, p := range o.want.points {
			atom := ds.grid.AtomCode(p.Coords())
			for i, st := range ds.stores {
				if st.Owned().Contains(atom) {
					perNode[i]++
				}
			}
		}
		for i, n := range perNode {
			out[i] += infoBytes + n*cache.PointDiskSize
		}
	}
	return out
}
