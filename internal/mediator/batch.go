package mediator

// Shared-scan batch fan-out: several concurrent threshold queries over the
// same (field, order, step) are pushed to the nodes as ONE request per node,
// evaluated there in one pass over the union of their boxes, and fanned back
// out per query. The scheduler (internal/sched) decides WHAT to batch; this
// file implements HOW a batch crosses the cluster — through the same
// topology fan-out as a single query, so a batch re-routes per range
// exactly like a single query does.

import (
	"context"
	"time"

	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
)

// BatchAnswer is one member's result of a batched fan-out: exactly the
// (points, stats, error) triple the member's solo Threshold call would have
// returned. Stats.Failures and Coverage are shared across members (the
// batch saw one cluster state); Stats.ScansSaved and SharedScan are
// per-member.
type BatchAnswer struct {
	Points []query.ResultPoint
	Stats  *QueryStats
	Err    error
}

// batchCompatible reports whether two normalized members may share a scan.
func batchCompatible(a, b query.Threshold) bool {
	if a.Dataset != b.Dataset || a.Field != b.Field ||
		a.FDOrder != b.FDOrder || a.Timestep != b.Timestep {
		return false
	}
	if len(a.Scan) != len(b.Scan) {
		return false
	}
	for i := range a.Scan {
		if a.Scan[i] != b.Scan[i] {
			return false
		}
	}
	return true
}

// batchPoints is the modeled response size of one node's batch answer.
func batchPoints(r *node.ThresholdBatchResult) int {
	total := 0
	for _, rr := range r.Results {
		if rr != nil {
			total += len(rr.Points)
		}
	}
	return total
}

// ThresholdBatch evaluates several threshold queries over the same (field,
// order, step) in one fan-out: each node sees the whole batch once and
// shares a scan across the members. Answers come back per member and are
// bit-for-bit identical to what the equivalent solo Threshold calls would
// have produced (see the sched differential tests). The returned slice is
// indexed like qs; a batch-wide failure (validation, every replica of a
// range down in strict mode) is the call's error instead.
func (m *Mediator) ThresholdBatch(ctx context.Context, p *sim.Proc, qs []query.Threshold) ([]BatchAnswer, error) {
	if len(qs) == 0 {
		return nil, faulttol.Permanent("mediator: empty threshold batch")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, qsp := obs.StartSpan(ctx, "threshold_batch")
	defer qsp.End()
	_, psp := obs.StartSpan(ctx, "plan")
	domain := m.Grid().Domain()
	nqs := make([]query.Threshold, len(qs))
	for i, q := range qs {
		nqs[i] = q.Normalize(domain)
		if err := nqs[i].Validate(domain); err != nil {
			psp.End()
			mQueryErrs.Add(int64(len(qs)))
			return nil, err
		}
		if i > 0 && !batchCompatible(nqs[0], nqs[i]) {
			psp.End()
			mQueryErrs.Add(int64(len(qs)))
			return nil, faulttol.Permanentf("mediator: batch member %d disagrees with member 0 on (field, order, step, scan)", i)
		}
	}
	psp.End()

	start := m.exec.Now()
	cov := &QueryStats{}
	results, err := scatter(m, ctx, p, cov, func(ctx context.Context, wp *sim.Proc, cli NodeClient, scan []morton.Range) (*node.ThresholdBatchResult, error) {
		qq := make([]query.Threshold, len(nqs))
		for i := range nqs {
			qq[i] = nqs[i]
			qq[i].Scan = scan
		}
		return cli.GetThresholdBatch(ctx, wp, qq)
	}, func(r *node.ThresholdBatchResult) int { return query.WireBytes(batchPoints(r)) })
	if err != nil {
		mQueryErrs.Add(int64(len(nqs)))
		return nil, err
	}
	return m.mergeBatch(ctx, nqs, results, cov, m.exec.Now()-start, start), nil
}

// mergeBatch assembles per-member answers from the per-node batch results.
// cov carries the batch-wide availability picture (coverage, failures,
// reroutes) every member's stats share.
func (m *Mediator) mergeBatch(ctx context.Context, nqs []query.Threshold, results []*node.ThresholdBatchResult, cov *QueryStats, fanout, start time.Duration) []BatchAnswer {
	_, msp := obs.StartSpan(ctx, "merge")
	defer msp.End()
	answers := make([]BatchAnswer, len(nqs))
	for j := range nqs {
		st := &QueryStats{
			Trace:    obs.TraceFrom(ctx),
			Coverage: cov.Coverage,
			Failures: cov.Failures,
			Reroutes: cov.Reroutes,
		}
		rs := make([]*node.ThresholdResult, 0, len(results))
		var memberErr error
		for _, r := range results {
			if j >= len(r.Results) {
				memberErr = faulttol.Permanentf("mediator: node batch answer has %d members, want %d", len(r.Results), len(nqs))
				break
			}
			if r.Errs[j] != nil {
				memberErr = r.Errs[j]
				break
			}
			rs = append(rs, r.Results[j])
		}
		var pts []query.ResultPoint
		if memberErr == nil {
			pts, memberErr = mergeThreshold(rs, nqs[j].Limit, st)
		}
		if memberErr != nil {
			mQueryErrs.Inc()
			answers[j] = BatchAnswer{Err: memberErr}
			continue
		}
		st.MediatorDBComm = max(fanout-st.NodeCritical.Total, 0)
		st.Points = len(pts)
		st.Total = m.exec.Now() - start
		m.noteQuery(st)
		answers[j] = BatchAnswer{Points: pts, Stats: st}
	}
	return answers
}
