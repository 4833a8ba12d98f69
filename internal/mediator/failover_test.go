package mediator

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/node"
)

// transientErr is a minimal availability-class failure for the tables.
type transientErr struct{ msg string }

func (e transientErr) Error() string   { return e.msg }
func (e transientErr) Transient() bool { return true }

// TestCollectRangeFailures pins the replicated coverage accounting: a
// replica absorbing a primary failure never reaches this function (the
// range is simply not failed), so Coverage stays 1; ranges with every
// replica down degrade fractionally in partial mode and fail strict mode.
func TestCollectRangeFailures(t *testing.T) {
	r := func(lo, hi uint64) morton.Range {
		return morton.Range{Lo: morton.Code(lo), Hi: morton.Code(hi)}
	}
	down := transientErr{msg: "connection refused"}
	cases := []struct {
		name         string
		allowPartial bool
		failures     []NodeFailure
		total        uint64
		ranges       int
		wantErr      string  // "" = no error
		wantCoverage float64 // checked when wantErr == ""
		wantFailures int
		wantReroutes bool // unused here, documents intent
	}{
		{
			name:         "no failures means full coverage",
			allowPartial: false,
			total:        16, ranges: 4,
			wantCoverage: 1,
		},
		{
			name:         "replica absorbed primary death: empty failures, coverage 1",
			allowPartial: true,
			total:        16, ranges: 4,
			wantCoverage: 1,
		},
		{
			name:         "strict mode fails on a fully-down range",
			allowPartial: false,
			failures:     []NodeFailure{{Node: 2, Owned: r(8, 12), Err: down}},
			total:        16, ranges: 4,
			wantErr: "mediator: node 2",
		},
		{
			name:         "partial mode degrades fractionally when all replicas of a range are down",
			allowPartial: true,
			failures:     []NodeFailure{{Node: 2, Owned: r(8, 12), Err: down}},
			total:        16, ranges: 4,
			wantCoverage: 0.75,
			wantFailures: 1,
		},
		{
			name:         "two dead ranges accumulate missing cells",
			allowPartial: true,
			failures: []NodeFailure{
				{Node: 1, Owned: r(4, 8), Err: down},
				{Node: 3, Owned: r(12, 16), Err: down},
			},
			total: 16, ranges: 4,
			wantCoverage: 0.5,
			wantFailures: 2,
		},
		{
			name:         "unattempted range reports errReplicasDown and still degrades",
			allowPartial: true,
			failures:     []NodeFailure{{Node: -1, Owned: r(0, 4), Err: errReplicasDown{ri: 0}}},
			total:        16, ranges: 4,
			wantCoverage: 0.75,
			wantFailures: 1,
		},
		{
			name:         "non-transient failure is never degradable",
			allowPartial: true,
			failures:     []NodeFailure{{Node: 0, Owned: r(0, 4), Err: errors.New("malformed query")}},
			total:        16, ranges: 4,
			wantErr: "mediator: node 0",
		},
		{
			name:         "every range down fails even in partial mode",
			allowPartial: true,
			failures: []NodeFailure{
				{Node: 0, Owned: r(0, 8), Err: down},
				{Node: 1, Owned: r(8, 16), Err: down},
			},
			total: 16, ranges: 2,
			wantErr: "all 2 ranges failed on every replica",
		},
		{
			name:         "degenerate zero-cell topology falls back to range counts",
			allowPartial: true,
			failures:     []NodeFailure{{Node: 1, Owned: r(0, 0), Err: down}},
			total:        0, ranges: 4,
			wantCoverage: 0.75,
			wantFailures: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := &Mediator{allowPartial: tc.allowPartial}
			stats := &QueryStats{}
			err := m.collectRangeFailures(tc.failures, tc.total, tc.ranges, stats)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("accounted failures without error, stats %+v", stats)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not mention %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("collectRangeFailures: %v", err)
			}
			if stats.Coverage != tc.wantCoverage { //lint:allow floateq coverage values here are exact binary fractions
				t.Errorf("Coverage = %v, want %v", stats.Coverage, tc.wantCoverage)
			}
			if len(stats.Failures) != tc.wantFailures {
				t.Errorf("Failures = %+v, want %d entries", stats.Failures, tc.wantFailures)
			}
		})
	}
}

// TestErrReplicasDownIsTransient keeps the all-replicas-down failure
// availability-class, so partial mode can degrade around it.
func TestErrReplicasDownIsTransient(t *testing.T) {
	if !faulttol.Transient(errReplicasDown{ri: 3}) {
		t.Fatal("errReplicasDown must classify as transient")
	}
	if !strings.Contains(errReplicasDown{ri: 3}.Error(), "range 3") {
		t.Fatalf("error %q should name the range", errReplicasDown{ri: 3}.Error())
	}
	wrapped := fmt.Errorf("mediator: node 1: %w", errReplicasDown{ri: 1})
	if !faulttol.Transient(wrapped) {
		t.Fatal("wrapping must preserve the transient classification")
	}
}

// TestTopologyValidation pins the default routing table New derives from
// the nodes' descriptions and the routing-table install rules.
func TestTopologyValidation(t *testing.T) {
	nodes, _ := buildNodes(t, 2)
	m := mediatorOver(t, nodes)
	topo := m.Topology()
	if len(topo.Ranges) != 2 || len(topo.Owners) != 2 {
		t.Fatalf("default topology %+v, want one range per node", topo)
	}
	for i, n := range nodes {
		if topo.Ranges[i] != n.Owned() {
			t.Errorf("range %d = %v, want node %d's owned range %v", i, topo.Ranges[i], i, n.Owned())
		}
		if len(topo.Owners[i]) != 1 || topo.Owners[i][0] != i {
			t.Errorf("owners of range %d = %v, want [%d]", i, topo.Owners[i], i)
		}
	}
	// Topology hands out a copy: mutating it leaves the installed table alone.
	topo.Owners[0][0] = 1
	if m.Topology().Owners[0][0] != 0 {
		t.Fatal("Topology returned the installed table, not a copy")
	}

	err := m.UpdateTopology(Topology{Version: 2, Ranges: topo.Ranges, Owners: [][]int{{0}, {7}}})
	if err == nil || !strings.Contains(err.Error(), "owner 7 of range 1 is not registered") {
		t.Fatalf("UpdateTopology with an unregistered owner: %v", err)
	}
	err = m.UpdateTopology(Topology{Version: 2, Ranges: topo.Ranges, Owners: [][]int{{0}}})
	if err == nil || !strings.Contains(err.Error(), "2 ranges but 1 owner lists") {
		t.Fatalf("UpdateTopology with a length mismatch: %v", err)
	}
	if faulttol.Transient(err) {
		t.Fatal("a malformed topology must be a permanent error")
	}
}

// ownedAs reports a different owned range than its node really owns — a
// misconfigured daemon, as New sees it.
type ownedAs struct {
	NodeClient
	owned morton.Range
}

func (o ownedAs) Describe(ctx context.Context) (node.Description, error) {
	d, err := o.NodeClient.Describe(ctx)
	d.Owned, d.Held = o.owned, nil
	return d, err
}

// TestNewRejectsBadPartition: without an explicit topology, the nodes'
// owned ranges must partition the atom range exactly. Two daemons started
// with the same node index (overlap) or a missing node (gap) would
// otherwise double or drop a shard while still reporting Coverage 1.
func TestNewRejectsBadPartition(t *testing.T) {
	nodes, gen := buildNodes(t, 3)
	all := gen.Grid().AtomRange()
	r := func(lo, hi morton.Code) morton.Range { return morton.Range{Lo: lo, Hi: hi} }
	a, b := nodes[0].Owned(), nodes[1].Owned()
	cases := []struct {
		name    string
		owned   []morton.Range
		overlap bool
		bad     morton.Range // want the error to name this range
		nodes   [2]int       // overlap only
	}{
		{name: "partition", owned: []morton.Range{a, b, nodes[2].Owned()}},
		{name: "order does not matter", owned: []morton.Range{nodes[2].Owned(), a, b}},
		{name: "an empty range beside a partition", owned: []morton.Range{all, {}}},
		{name: "duplicate node index", owned: []morton.Range{a, a, r(b.Lo, all.Hi)}, overlap: true, bad: a, nodes: [2]int{0, 1}},
		{name: "partial overlap", owned: []morton.Range{r(all.Lo, b.Lo+1), b, r(b.Hi, all.Hi)}, overlap: true, bad: r(b.Lo, b.Lo+1), nodes: [2]int{0, 1}},
		{name: "missing middle node", owned: []morton.Range{a, r(b.Hi, all.Hi)}, bad: b},
		{name: "missing first node", owned: []morton.Range{b, r(b.Hi, all.Hi)}, bad: a},
		{name: "missing last node", owned: []morton.Range{a, b}, bad: r(b.Hi, all.Hi)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clients := make([]NodeClient, len(tc.owned))
			for i, o := range tc.owned {
				clients[i] = ownedAs{NodeClient: nodes[i], owned: o}
			}
			_, err := New(Config{Nodes: clients})
			if tc.bad.Empty() {
				if err != nil {
					t.Fatalf("valid partition rejected: %v", err)
				}
				return
			}
			var pe *PartitionError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *PartitionError", err)
			}
			if pe.Overlap != tc.overlap || pe.Range != tc.bad || (tc.overlap && pe.Nodes != tc.nodes) {
				t.Fatalf("got %+v, want overlap=%v range %v nodes %v", pe, tc.overlap, tc.bad, tc.nodes)
			}
			if faulttol.Transient(err) {
				t.Fatal("a bad partition must be a permanent error")
			}
		})
	}
	// An explicit topology is the caller's to validate: New installs it as
	// given, whatever the nodes' owned ranges.
	clients := []NodeClient{ownedAs{NodeClient: nodes[0], owned: a}, ownedAs{NodeClient: nodes[1], owned: a}}
	if _, err := New(Config{Nodes: clients, Topology: &Topology{Ranges: []morton.Range{all}, Owners: [][]int{{0, 1}}}}); err != nil {
		t.Fatalf("explicit topology rejected: %v", err)
	}
}
