package faultinject

import (
	"context"
	"errors"
	"testing"

	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
)

// stubNode counts the calls that actually reach the (pretend) node.
type stubNode struct{ threshold, batch, pdf, topk, mgmt int }

func (s *stubNode) GetThreshold(ctx context.Context, p *sim.Proc, q query.Threshold) (*node.ThresholdResult, error) {
	s.threshold++
	return &node.ThresholdResult{}, nil
}

func (s *stubNode) GetThresholdBatch(ctx context.Context, p *sim.Proc, qs []query.Threshold) (*node.ThresholdBatchResult, error) {
	s.batch++
	return &node.ThresholdBatchResult{Results: make([]*node.ThresholdResult, len(qs)), Errs: make([]error, len(qs))}, nil
}

func (s *stubNode) GetPDF(ctx context.Context, p *sim.Proc, q query.PDF) (*node.PDFResult, error) {
	s.pdf++
	return &node.PDFResult{}, nil
}

func (s *stubNode) GetTopK(ctx context.Context, p *sim.Proc, q query.TopK) (*node.TopKResult, error) {
	s.topk++
	return &node.TopKResult{}, nil
}

func (s *stubNode) DropCacheEntry(ctx context.Context, fieldName string, order, step int) error {
	s.mgmt++
	return nil
}

func (s *stubNode) SetProcesses(ctx context.Context, p int) error { s.mgmt++; return nil }

func (s *stubNode) Describe(ctx context.Context) (node.Description, error) {
	s.mgmt++
	return node.Description{}, nil
}

func TestKillPrimaryDownsNodeForGood(t *testing.T) {
	st := &stubNode{}
	c := WrapNode(st, NewPlan(1, KillPrimary(2, 2)), 2)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := c.GetThreshold(ctx, nil, query.Threshold{}); err != nil {
			t.Fatalf("call %d failed before the kill point: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		_, err := c.GetTopK(ctx, nil, query.TopK{})
		var inj *InjectedError
		if !errors.As(err, &inj) {
			t.Fatalf("call %d after kill: err = %v, want InjectedError", i, err)
		}
	}
	if st.threshold != 2 || st.topk != 0 {
		t.Errorf("node saw %d threshold + %d topk calls, want 2 + 0", st.threshold, st.topk)
	}
}

// A shared-scan batch is one "threshold" call to the plan, however many
// members it carries, and a killed node fails batches like solo queries.
func TestKillPrimaryCountsBatchAsOneThresholdCall(t *testing.T) {
	st := &stubNode{}
	c := WrapNode(st, NewPlan(1, KillPrimary(2, 2)), 2)
	ctx := context.Background()
	three := []query.Threshold{{}, {}, {}}
	if _, err := c.GetThresholdBatch(ctx, nil, three); err != nil {
		t.Fatalf("batch before the kill point: %v", err)
	}
	if _, err := c.GetThreshold(ctx, nil, query.Threshold{}); err != nil {
		t.Fatalf("solo call before the kill point: %v", err)
	}
	var inj *InjectedError
	if _, err := c.GetThresholdBatch(ctx, nil, three); !errors.As(err, &inj) {
		t.Fatalf("batch after kill: err = %v, want InjectedError", err)
	}
	if st.batch != 1 || st.threshold != 1 {
		t.Errorf("node saw %d batch + %d solo calls, want 1 + 1", st.batch, st.threshold)
	}
}

func TestKillPrimaryLeavesOtherNodesAlone(t *testing.T) {
	plan := NewPlan(1, KillPrimary(2, 0))
	st1, st2 := &stubNode{}, &stubNode{}
	c1, c2 := WrapNode(st1, plan, 1), WrapNode(st2, plan, 2)
	ctx := context.Background()
	if _, err := c1.GetThreshold(ctx, nil, query.Threshold{}); err != nil {
		t.Fatalf("node 1 was killed by node 2's rule: %v", err)
	}
	if _, err := c2.GetThreshold(ctx, nil, query.Threshold{}); err == nil {
		t.Fatal("node 2 survived its own kill rule")
	}
	// Management traffic is never injected: assembly Describe and cache
	// drops must work even on a "dead" node.
	if err := c2.DropCacheEntry(ctx, "f", 8, 0); err != nil {
		t.Fatalf("management call tripped a rule: %v", err)
	}
}

func TestFlapIsSeededAndDeterministic(t *testing.T) {
	sequence := func(seed int64) []bool {
		st := &stubNode{}
		c := WrapNode(st, NewPlan(seed, Flap(0, 0.5)), 0)
		out := make([]bool, 40)
		for i := range out {
			_, err := c.GetPDF(context.Background(), nil, query.PDF{})
			out[i] = err != nil
		}
		return out
	}
	a, b := sequence(7), sequence(7)
	ups, downs := 0, 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
		if a[i] {
			downs++
		} else {
			ups++
		}
	}
	if ups == 0 || downs == 0 {
		t.Fatalf("flap at p=0.5 over 40 calls gave %d ups / %d downs, want both > 0", ups, downs)
	}
	c := sequence(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced the same flap sequence")
	}
}

func TestDelayedRejoinRecovers(t *testing.T) {
	st := &stubNode{}
	c := WrapNode(st, NewPlan(1, DelayedRejoin(0, 3)), 0)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := c.GetThreshold(ctx, nil, query.Threshold{}); err == nil {
			t.Fatalf("call %d succeeded while the node was down", i)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := c.GetThreshold(ctx, nil, query.Threshold{}); err != nil {
			t.Fatalf("call %d after rejoin failed: %v", i, err)
		}
	}
	if st.threshold != 4 {
		t.Errorf("node served %d calls, want 4", st.threshold)
	}
}
