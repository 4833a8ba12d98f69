package node

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"github.com/turbdb/turbdb/internal/cache"
	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
	"github.com/turbdb/turbdb/internal/stencil"
)

// ThresholdBatchResult is one node's answer to a shared-scan batch of
// threshold queries. Results and Errs are indexed like the request slice;
// exactly one of Results[i] / Errs[i] is set per member. A member error
// (e.g. over its point limit) never fails the other members — only
// batch-wide problems (bad field, I/O failure, cancellation) surface as
// the call's error.
type ThresholdBatchResult struct {
	Results []*ThresholdResult
	Errs    []error
	// AtomsScanned is the size of the single union pass that served every
	// non-cached member (0 when all members hit the cache).
	AtomsScanned int
}

// unionBox returns the bounding box of two half-open boxes.
func unionBox(a, b grid.Box) grid.Box {
	if a.Empty() {
		return b
	}
	if b.Empty() {
		return a
	}
	return grid.Box{
		Lo: grid.Point{X: min(a.Lo.X, b.Lo.X), Y: min(a.Lo.Y, b.Lo.Y), Z: min(a.Lo.Z, b.Lo.Z)},
		Hi: grid.Point{X: max(a.Hi.X, b.Hi.X), Y: max(a.Hi.Y, b.Hi.Y), Z: max(a.Hi.Z, b.Hi.Z)},
	}
}

// sameScan reports whether two scan restrictions are identical.
func sameScan(a, b []morton.Range) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// GetThresholdBatch evaluates several threshold queries over the same
// (dataset, field, FD order, time-step, scan) in ONE pass over the union of
// their boxes — the node's only threshold evaluator, behind both the
// mediator scheduler's batching window and GetThreshold. Each member
// follows the paper's Algorithm 1:
//
//  1. interrogate the local cache: an entry for (dataset, field, time-step)
//     whose region contains the member's box and whose stored threshold is
//     ≤ the requested one answers the member by an index scan;
//  2. otherwise the member joins the shared pass, which reads the raw data
//     (plus halo) into memory, derives the field at every grid location of
//     the union box, and keeps for each member the locations inside its
//     box whose norm is ≥ its threshold; the member's result is then
//     stored in the cache, so a batch warms the cache exactly like the
//     equivalent solo queries would have.
//
// Per-point derived norms do not depend on the enclosing scan box (the row
// kernels are row-start independent, proven bit-for-bit in the kernel
// differential tests), so evaluating member i's predicate while scanning
// the union box yields exactly the points a one-member batch over q_i.Box
// would have produced, in the same order after the Morton sort.
//
// A member over its q.Limit gets *query.ErrTooManyPoints and nothing is
// cached for it; the pass aborts only once every member is over. ctx
// bounds the evaluation: cancellation or an expired deadline aborts both
// the I/O and compute phases between atoms. A nil ctx means no deadline
// (accepted for in-process convenience).
func (n *Node) GetThresholdBatch(ctx context.Context, p *sim.Proc, qs []query.Threshold) (*ThresholdBatchResult, error) {
	if len(qs) == 0 {
		return nil, faulttol.Permanent("node: empty threshold batch")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	domain := n.Grid().Domain()
	k := len(qs)
	nqs := make([]query.Threshold, k)
	for i, q := range qs {
		nqs[i] = q.Normalize(domain)
		if err := nqs[i].Validate(domain); err != nil {
			return nil, err
		}
		if nqs[i].Dataset != n.dataset {
			return nil, faulttol.Permanentf("node: serves dataset %q, not %q", n.dataset, nqs[i].Dataset)
		}
		if i > 0 && (nqs[i].Field != nqs[0].Field || nqs[i].FDOrder != nqs[0].FDOrder ||
			nqs[i].Timestep != nqs[0].Timestep || !sameScan(nqs[i].Scan, nqs[0].Scan)) {
			return nil, faulttol.Permanentf("node: batch member %d disagrees with member 0 on (field, order, step, scan)", i)
		}
	}
	f, err := n.resolveField(nqs[0].Field)
	if err != nil {
		return nil, err
	}
	hw, err := f.HalfWidth(nqs[0].FDOrder)
	if err != nil {
		return nil, err
	}
	st, err := stencil.Get(nqs[0].FDOrder)
	if err != nil {
		return nil, err
	}

	res := &ThresholdBatchResult{
		Results: make([]*ThresholdResult, k),
		Errs:    make([]error, k),
	}
	start := n.exec.Now()

	// Cache interrogation per member; misses join the shared scan.
	ckeys := make([]string, k)
	lookupDur := make([]time.Duration, k)
	active := make([]int, 0, k)
	for i := range nqs {
		q := nqs[i]
		ckeys[i] = cacheFieldKey(q.Field, q.FDOrder) + scanCacheSuffix(q.Scan)
		if n.cache == nil {
			active = append(active, i)
			continue
		}
		t0 := n.exec.Now()
		_, sp := obs.StartSpan(ctx, "cache_lookup")
		pts, ok, err := n.cache.Lookup(p, q.Dataset, ckeys[i], q.Timestep, q.Threshold, q.Box)
		sp.End()
		lookupDur[i] = n.exec.Now() - t0
		mCacheLookup.Observe(lookupDur[i].Seconds())
		if err != nil {
			return nil, err
		}
		if !ok {
			active = append(active, i)
			continue
		}
		if len(pts) > q.Limit {
			res.Errs[i] = &query.ErrTooManyPoints{Limit: q.Limit, Seen: len(pts)}
			continue
		}
		sort.Slice(pts, func(a, b int) bool { return pts[a].Code < pts[b].Code })
		res.Results[i] = &ThresholdResult{
			Points:    pts,
			FromCache: true,
			Breakdown: Breakdown{CacheLookup: lookupDur[i], Total: n.exec.Now() - start},
		}
	}
	if len(active) == 0 {
		return res, nil
	}

	// The shared pass covers the union bounding box of the active members.
	scan := nqs[0].Scan
	ub := nqs[active[0]].Box
	minThreshold := nqs[active[0]].Threshold
	for _, i := range active[1:] {
		ub = unionBox(ub, nqs[i].Box)
		minThreshold = min(minThreshold, nqs[i].Threshold)
	}
	codes, err := n.scanAtomsCovering(ub, scan)
	if err != nil {
		return nil, err
	}
	res.AtomsScanned = len(codes)

	// Scan-cost accounting: the union pass is charged to the first active
	// member, whose own box lies inside the union, so it saves nothing;
	// every other member saves the whole scan it would have made alone.
	saved := make([]int, k)
	for _, i := range active[1:] {
		own, err := n.scanAtomsCovering(nqs[i].Box, scan)
		if err != nil {
			return nil, err
		}
		saved[i] = len(own)
	}

	// One evaluation pass; every point is tested against all live member
	// predicates. A member that exceeds its point limit goes dead (its
	// answer is already an error) without disturbing the others; the scan
	// itself aborts only when every member is dead.
	totals := make([]atomic.Int64, k)
	dead := make([]atomic.Bool, k)
	var alive atomic.Int64
	alive.Store(int64(len(active)))
	perWorker := make([][][]query.ResultPoint, n.Processes())
	visitFor := func(worker int) func(grid.Point, float64) bool {
		rows := make([][]query.ResultPoint, len(active))
		perWorker[worker] = rows
		return func(pt grid.Point, norm float64) bool {
			// Almost every point qualifies for no member: one compare
			// rejects it before the member loop.
			if norm < minThreshold {
				return true
			}
			accepted := false
			for ai, qi := range active {
				q := &nqs[qi]
				if norm < q.Threshold || dead[qi].Load() || !q.Box.Contains(pt) {
					continue
				}
				accepted = true
				rows[ai] = append(rows[ai], query.PointFor(pt, norm))
				if int(totals[qi].Add(1)) > q.Limit {
					if !dead[qi].Swap(true) {
						alive.Add(-1)
					}
				}
			}
			// Only an accepted point can kill a member.
			return !accepted || alive.Load() > 0
		}
	}
	bd, err := n.evalPhases(ctx, p, f, st, nqs[0].Timestep, ub, codes, hw, visitFor)
	if err != nil {
		return nil, err
	}

	for pos, qi := range active {
		q := nqs[qi]
		if dead[qi].Load() {
			res.Errs[qi] = &query.ErrTooManyPoints{Limit: q.Limit, Seen: int(totals[qi].Load())}
			continue
		}
		var pts []query.ResultPoint
		for w := range perWorker {
			if perWorker[w] != nil {
				pts = append(pts, perWorker[w][pos]...)
			}
		}
		sort.Slice(pts, func(a, b int) bool { return pts[a].Code < pts[b].Code })

		r := &ThresholdResult{Points: pts, Breakdown: bd, Shared: len(active), ScansSaved: saved[qi]}
		r.Breakdown.CacheLookup = lookupDur[qi]

		// Caching is best-effort: a result too large for the cache is
		// simply served uncached. A degraded (partial-halo) result is never
		// cached — it would poison later complete queries.
		if n.cache != nil && bd.AtomsSkipped == 0 {
			t0 := n.exec.Now()
			_, sp := obs.StartSpan(ctx, "cache_update")
			err := n.cache.Store(p, q.Dataset, ckeys[qi], q.Timestep, q.Threshold, q.Box, pts)
			sp.End()
			if err != nil && !errors.Is(err, cache.ErrEntryTooLarge) {
				return nil, fmt.Errorf("node: cache update: %w", err)
			}
			r.Breakdown.CacheUpdate = n.exec.Now() - t0
			mCacheUpdate.Observe(r.Breakdown.CacheUpdate.Seconds())
		}
		r.Breakdown.Total = n.exec.Now() - start
		res.Results[qi] = r
	}
	return res, nil
}
