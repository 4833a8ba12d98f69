package main

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/query"
)

// testWindow is wide enough that two queries sent together always meet in
// one batch, even under the race detector.
const testWindow = 50 * time.Millisecond

func testSetup(t *testing.T, workload string) (*dataset, *spec) {
	t.Helper()
	ds, err := loadDataset(dataSeed)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := buildSpec(context.Background(), workload, 1, ds)
	if err != nil {
		t.Fatal(err)
	}
	return ds, sp
}

// TestAnswerCheckCatchesPerturbation feeds one perturbed copy of a real
// reference answer to the check and expects it caught.
func TestAnswerCheckCatchesPerturbation(t *testing.T) {
	if err := oracleSelfTest(); err != nil {
		t.Fatal(err)
	}
	_, sp := testSetup(t, "cold-scan")
	want := sp.stream[0].want
	got := answer{points: append([]query.ResultPoint(nil), want.points...)}
	if err := want.diff(got); err != nil {
		t.Fatalf("identical answer rejected: %v", err)
	}
	last := len(got.points) - 1
	got.points[last].Value = math.Float32frombits(math.Float32bits(got.points[last].Value) + 1)
	if want.diff(got) == nil {
		t.Fatal("a one-ulp change to one point went unnoticed")
	}
}

// sharing is what the user sees of shared-scan batching.
type sharing struct{ shared, scansSaved int }

// pairRun sends threshold ops two at a time, both released together, and
// sums the answers' shared-scan flags and saved scans. Every answer must
// match its reference.
func pairRun(t *testing.T, st *stack, tr *tracer, pairs [][2]*op) sharing {
	t.Helper()
	var ids uint64
	var total sharing
	for _, pr := range pairs {
		var wg sync.WaitGroup
		var out [2]sharing
		var errs [2]error
		for i, o := range pr {
			ids++
			ctx := context.Background()
			if tr != nil {
				ctx = withQueryID(ctx, ids)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				var s span
				if tr != nil {
					s.Start = tr.now()
				}
				pts, resp, err := st.user.ThresholdStats(ctx, o.th, false)
				if err == nil {
					err = o.want.diff(answer{points: pts})
					if resp.SharedScan {
						out[i].shared = 1
					}
					out[i].scansSaved = resp.ScansSaved
				}
				if tr != nil {
					s.End = tr.now()
					id, _ := queryIDFrom(ctx)
					tr.userCall(id, "threshold", true, s, len(pts), err != nil)
				}
				errs[i] = err
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, o := range out {
			total.shared += o.shared
			total.scansSaved += o.scansSaved
		}
	}
	return total
}

// TestTracedStackMatchesUntraced runs a short multi-tenant stream on the
// plain stack and on the traced one: answers and shared-scan counts must
// be identical, and the traced spans must nest.
func TestTracedStackMatchesUntraced(t *testing.T) {
	ds, sp := testSetup(t, "multi-tenant")
	var pairs [][2]*op
	var pending = map[string]*op{}
	for _, o := range sp.stream {
		if o.kind != opThreshold || len(pairs) == 12 {
			continue
		}
		if mate := pending[o.th.Field]; mate != nil {
			pairs = append(pairs, [2]*op{mate, o})
			delete(pending, o.th.Field)
		} else {
			pending[o.th.Field] = o
		}
	}

	count := func(tr *tracer) sharing {
		st, err := serve(ds, serveConfig{cacheCap: sp.cacheCap, window: testWindow, tr: tr})
		if err != nil {
			t.Fatal(err)
		}
		defer st.close()
		return pairRun(t, st, tr, pairs)
	}
	plain := count(nil)
	tr := newTracer(ds.grid.Domain())
	traced := count(tr)
	if plain.shared == 0 || plain.scansSaved == 0 {
		t.Fatalf("no pair shared a scan on the untraced stack: %+v", plain)
	}
	if plain != traced {
		t.Fatalf("shared scans: untraced %+v, traced %+v", plain, traced)
	}
	ls := tr.analyze()
	if ls.violations != 0 {
		t.Fatalf("%d span nesting violations, first: %s", ls.violations, ls.firstViolation)
	}
	if ls.chained != 2*len(pairs) {
		t.Fatalf("%d of %d traced queries have a complete span chain", ls.chained, 2*len(pairs))
	}
}

// TestWrappersKeepProgramPaths pins the properties that keep the traced
// stack on the untraced stack's code paths.
func TestWrappersKeepProgramPaths(t *testing.T) {
	var _ mediator.BatchNodeClient = (*tracedNode)(nil)
	ds, err := loadDataset(dataSeed)
	if err != nil {
		t.Fatal(err)
	}
	if b := (&tracedBackend{inner: ds.oracle}); b.Simulated() != ds.oracle.Simulated() {
		t.Fatal("backend wrapper does not forward Simulated")
	}
	tp := newPoolTransport()
	if tp.MaxIdleConns != 256 || tp.MaxIdleConnsPerHost != 32 || tp.IdleConnTimeout != 90*time.Second {
		t.Fatalf("traced transport pool %d/%d/%v, want wire's 256/32/90s", tp.MaxIdleConns, tp.MaxIdleConnsPerHost, tp.IdleConnTimeout)
	}
}
