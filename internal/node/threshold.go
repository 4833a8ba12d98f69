package node

import (
	"context"
	"fmt"
	"strings"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
)

// ThresholdResult is one node's answer to a threshold query.
type ThresholdResult struct {
	// Points are the qualifying locations in this node's shard, ordered by
	// Morton code.
	Points []query.ResultPoint
	// FromCache reports whether the answer came from the semantic cache.
	FromCache bool
	// Breakdown gives the phase timings of this node's evaluation.
	Breakdown Breakdown
	// Shared is the number of queries that shared the node-side scan that
	// produced this answer (0 for a cache hit, 1 for a solo evaluation,
	// ≥ 2 inside a shared-scan batch).
	Shared int
	// ScansSaved counts the atom scans this query avoided because the pass
	// was shared: the atoms a solo evaluation would have read minus this
	// query's share of the union pass.
	ScansSaved int
}

// cacheFieldKey builds the cache key component for a field: results depend
// on the finite-difference order, so it is part of the key.
func cacheFieldKey(fieldName string, order int) string {
	return fmt.Sprintf("%s/fd%d", fieldName, order)
}

// scanCacheSuffix makes routed scans cache-distinct: the same box over
// different assigned ranges yields different point sets, so the scan
// signature joins the cache key. Empty for a direct caller's scan of the
// node's whole primary range.
func scanCacheSuffix(scan []morton.Range) string {
	if len(scan) == 0 {
		return ""
	}
	var b strings.Builder
	for _, r := range scan {
		fmt.Fprintf(&b, "@%d-%d", uint64(r.Lo), uint64(r.Hi))
	}
	return b.String()
}

// resolveField looks up the queried field and verifies this node stores its
// raw input.
func (n *Node) resolveField(fieldName string) (*derived.Field, error) {
	f, err := n.registry.Lookup(fieldName)
	if err != nil {
		return nil, err
	}
	for _, rf := range f.Raws {
		if _, err := n.store.FieldMeta(rf.Name); err != nil {
			return nil, faulttol.Permanentf("node: dataset %q does not store %q (needed for %q)",
				n.dataset, rf.Name, fieldName)
		}
	}
	return f, nil
}

// GetThreshold evaluates a threshold query over this node's shard of the
// data (the paper's Algorithm 1): a one-member GetThresholdBatch, whose
// member error, such as *query.ErrTooManyPoints over q.Limit, is the
// call's error.
func (n *Node) GetThreshold(ctx context.Context, p *sim.Proc, q query.Threshold) (*ThresholdResult, error) {
	res, err := n.GetThresholdBatch(ctx, p, []query.Threshold{q})
	if err != nil {
		return nil, err
	}
	if res.Errs[0] != nil {
		return nil, res.Errs[0]
	}
	return res.Results[0], nil
}

// DropCacheEntry removes cached results for (field, order, step), used to
// force cold-cache runs in experiments. The in-process drop is quick; ctx
// matters for the mediator.NodeClient contract (the wire implementation
// blocks on the network) and is still honored if already canceled.
func (n *Node) DropCacheEntry(ctx context.Context, fieldName string, order, step int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n.cache == nil {
		return nil
	}
	if order == 0 {
		order = query.DefaultFDOrder
	}
	base := cacheFieldKey(fieldName, order)
	if err := n.cache.Drop(n.dataset, base, step); err != nil {
		return err
	}
	// Replica-routed scans cache under scan-suffixed keys; drop those too so
	// a cold-cache request stays cold regardless of the routing in effect.
	for _, row := range n.cache.Entries() {
		if row.Dataset == n.dataset && row.Timestep == step && strings.HasPrefix(row.Field, base+"@") {
			if err := n.cache.Drop(n.dataset, row.Field, step); err != nil {
				return err
			}
		}
	}
	return nil
}
