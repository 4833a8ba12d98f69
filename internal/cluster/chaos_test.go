package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/faultinject"
	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
	"github.com/turbdb/turbdb/internal/synth"
)

// dyingClient forwards to a real node until killed, then fails every query
// with a transient injected error — a node crashing mid-workload.
type dyingClient struct {
	mediator.NodeClient
	dead  atomic.Bool
	calls atomic.Int64
	// killAfter kills the node once this many query calls have started
	// (0 = dead from the first call).
	killAfter int64
}

func (d *dyingClient) fail() error {
	n := d.calls.Add(1)
	if d.dead.Load() || n > d.killAfter {
		d.dead.Store(true)
		return &faultinject.InjectedError{Key: "node", Call: int(n)}
	}
	return nil
}

func (d *dyingClient) GetThreshold(ctx context.Context, p *sim.Proc, q query.Threshold) (*node.ThresholdResult, error) {
	if err := d.fail(); err != nil {
		return nil, err
	}
	return d.NodeClient.GetThreshold(ctx, p, q)
}

func (d *dyingClient) GetThresholdBatch(ctx context.Context, p *sim.Proc, qs []query.Threshold) (*node.ThresholdBatchResult, error) {
	if err := d.fail(); err != nil {
		return nil, err
	}
	return d.NodeClient.GetThresholdBatch(ctx, p, qs)
}

func (d *dyingClient) GetPDF(ctx context.Context, p *sim.Proc, q query.PDF) (*node.PDFResult, error) {
	if err := d.fail(); err != nil {
		return nil, err
	}
	return d.NodeClient.GetPDF(ctx, p, q)
}

func (d *dyingClient) GetTopK(ctx context.Context, p *sim.Proc, q query.TopK) (*node.TopKResult, error) {
	if err := d.fail(); err != nil {
		return nil, err
	}
	return d.NodeClient.GetTopK(ctx, p, q)
}

// fastRetry keeps chaos tests quick: two attempts, millisecond backoff.
func fastRetry() *faulttol.Policy {
	return &faulttol.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
}

// chaosMediator builds a real-mode 4-node cluster and a mediator over it
// with node `kill` wrapped to die after killAfter calls.
func chaosMediator(t *testing.T, allowPartial bool, kill int, killAfter int64) (*Cluster, *mediator.Mediator, morton.Range) {
	t.Helper()
	c := buildTest(t, Config{Nodes: 4, AllowPartial: allowPartial}, synth.Isotropic, 16)
	clients := make([]mediator.NodeClient, len(c.Nodes()))
	for i, n := range c.Nodes() {
		if i == kill {
			clients[i] = &dyingClient{NodeClient: n, killAfter: killAfter}
		} else {
			clients[i] = n
		}
	}
	m, err := mediator.New(mediator.Config{
		Nodes: clients, AllowPartial: allowPartial, Retry: fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, m, c.Nodes()[kill].Owned()
}

func chaosQuery() query.Threshold {
	return query.Threshold{Dataset: "isotropic", Field: derived.Vorticity, Threshold: 1.0}
}

func TestChaosStrictModeFailsQuery(t *testing.T) {
	_, m, _ := chaosMediator(t, false, 2, 0)
	_, _, err := m.Threshold(context.Background(), nil, chaosQuery())
	if err == nil {
		t.Fatal("strict mediator answered despite a dead node")
	}
	var inj *faultinject.InjectedError
	if !errors.As(err, &inj) {
		t.Fatalf("err = %v, want the injected node failure wrapped", err)
	}
}

func TestChaosPartialModeDegrades(t *testing.T) {
	// Reference: the complete answer from a healthy cluster.
	healthy := buildTest(t, Config{Nodes: 4}, synth.Isotropic, 16)
	full, _, err := healthy.Mediator.Threshold(context.Background(), nil, chaosQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(full) == 0 {
		t.Fatal("reference query returned nothing")
	}

	_, m, deadRange := chaosMediator(t, true, 2, 0)
	pts, stats, err := m.Threshold(context.Background(), nil, chaosQuery())
	if err != nil {
		t.Fatalf("partial mediator failed outright: %v", err)
	}
	if stats.Coverage >= 1 || stats.Coverage <= 0 {
		t.Errorf("Coverage = %v, want in (0, 1)", stats.Coverage)
	}
	if !stats.Partial() || len(stats.Failures) != 1 || stats.Failures[0].Node != 2 {
		t.Errorf("Failures = %+v, want exactly node 2", stats.Failures)
	}
	// The partial answer must be exactly the complete answer minus the dead
	// node's Morton range.
	g := healthy.Generator().Grid()
	var want []query.ResultPoint
	for _, p := range full {
		if !deadRange.Contains(g.AtomCode(p.Coords())) {
			want = append(want, p)
		}
	}
	if len(pts) != len(want) {
		t.Fatalf("partial answer has %d points, want %d (full %d)", len(pts), len(want), len(full))
	}
	for i := range pts {
		if pts[i] != want[i] {
			t.Fatalf("partial answer diverges at %d: %v vs %v", i, pts[i], want[i])
		}
	}
}

// TestChaosConcurrentQueriesSurviveNodeDeath kills 1 of 4 nodes while
// several queries are in flight; run under -race this exercises the
// mediator's shared state (breakers, retry executors) across goroutines.
func TestChaosConcurrentQueriesSurviveNodeDeath(t *testing.T) {
	_, m, _ := chaosMediator(t, true, 1, 2)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	covs := make([]float64, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, stats, err := m.Threshold(context.Background(), nil, chaosQuery())
			errs[i] = err
			if stats != nil {
				covs[i] = stats.Coverage
			}
		}(i)
	}
	wg.Wait()
	sawPartial := false
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d failed in partial mode: %v", i, err)
		}
		if covs[i] < 1 {
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Error("node died but every answer claims full coverage")
	}
}

// fanPeers routes halo fetches across the cluster's nodes in-process (the
// same routing the cluster's internal fetcher performs in real mode).
type fanPeers struct {
	nodes []*node.Node
	self  int
}

func (f *fanPeers) FetchAtoms(ctx context.Context, p *sim.Proc, rawField string, step int, codes []morton.Code) (map[morton.Code][]byte, error) {
	out := make(map[morton.Code][]byte, len(codes))
	for _, c := range codes {
		for i, n := range f.nodes {
			if i == f.self || !n.Owned().Contains(c) {
				continue
			}
			blobs, err := n.FetchAtoms(ctx, p, rawField, step, []morton.Code{c})
			if err != nil {
				return nil, err
			}
			out[c] = blobs[c]
			break
		}
	}
	return out, nil
}

// TestChaosHaloDegradation injects peer-fetch failures on one node. With
// AllowPartial the node skips exactly the shard atoms whose halo stayed
// incomplete (counted in the breakdown) instead of failing; strict mode
// fails the query.
func TestChaosHaloDegradation(t *testing.T) {
	run := func(allowPartial bool) (*mediator.QueryStats, error) {
		c := buildTest(t, Config{Nodes: 4, AllowPartial: allowPartial}, synth.Isotropic, 16)
		plan := faultinject.NewPlan(1, &faultinject.Rule{Mode: faultinject.ModeError})
		c.Nodes()[0].SetPeers(faultinject.NewPeerFetcher(&fanPeers{nodes: c.Nodes(), self: 0}, plan))
		_, stats, err := c.Mediator.Threshold(context.Background(), nil, chaosQuery())
		return stats, err
	}

	if _, err := run(false); err == nil {
		t.Error("strict node evaluated with an unreachable peer")
	}

	stats, err := run(true)
	if err != nil {
		t.Fatalf("partial-halo query failed: %v", err)
	}
	if stats.NodeCritical.AtomsSkipped == 0 {
		t.Error("halo fetches failed but no atoms were skipped")
	}
	if stats.Coverage != 1 {
		t.Errorf("Coverage = %v; halo degradation must not change node coverage", stats.Coverage)
	}
}
