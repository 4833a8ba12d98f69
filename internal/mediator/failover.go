package mediator

import (
	"context"
	"fmt"
	"sort"

	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/membership"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/netmodel"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/sim"
)

// Failover metrics: how often a Morton range was re-routed to a replica
// after its primary failed, and the routing-table version in effect.
var (
	mReroutes    = obs.Default().Counter("turbdb_failover_reroutes_total")
	mTopoVersion = obs.Default().Gauge("turbdb_topology_version")
)

// Topology is the mediator's routing table: the Morton ranges of the
// current placement and, per range, the nodes holding it (primary first).
// New derives a default one from the nodes' descriptions; replicated
// cluster assembly derives it from membership.Placement and installs a new
// one atomically via UpdateTopology on every rebalance.
type Topology struct {
	// Version identifies the placement (bumped on every rebalance).
	Version uint64
	// Ranges are the placement's contiguous Morton ranges.
	Ranges []morton.Range
	// Owners[i] lists the node ids holding Ranges[i], primary first.
	Owners [][]int
}

// clone deep-copies the topology so callers cannot mutate installed state.
func (t Topology) clone() Topology {
	out := Topology{Version: t.Version}
	out.Ranges = append([]morton.Range(nil), t.Ranges...)
	out.Owners = make([][]int, len(t.Owners))
	for i, o := range t.Owners {
		out.Owners[i] = append([]int(nil), o...)
	}
	return out
}

// errReplicasDown reports a range whose every replica was unavailable
// before any RPC could be attempted (all owners down or unregistered). It
// is an availability failure, so partial mode may degrade around it.
type errReplicasDown struct{ ri int }

func (e errReplicasDown) Error() string {
	return fmt.Sprintf("mediator: no live replica for range %d", e.ri)
}

// Transient marks the failure as availability-class.
func (e errReplicasDown) Transient() bool { return true }

// topoSnapshot is a consistent view of the routing state, taken once per
// query so a concurrent rebalance never splits one fan-out across two
// placements.
type topoSnapshot struct {
	topo    *Topology
	clients map[int]NodeClient
	fts     map[int]*faulttol.Executor
	links   map[int]*netmodel.Link
}

// snapshotTopo copies the routing state under the topology lock.
func (m *Mediator) snapshotTopo() topoSnapshot {
	m.topoMu.Lock()
	defer m.topoMu.Unlock()
	s := topoSnapshot{
		topo:    m.topo,
		clients: make(map[int]NodeClient, len(m.clients)),
		fts:     make(map[int]*faulttol.Executor, len(m.fts)),
		links:   make(map[int]*netmodel.Link, len(m.links)),
	}
	for id, c := range m.clients {
		s.clients[id] = c
	}
	for id, ft := range m.fts {
		s.fts[id] = ft
	}
	for id, l := range m.links {
		s.links[id] = l
	}
	return s
}

// UpdateTopology atomically installs a new routing table (a rebalance
// flip). Queries already in flight finish on the placement they started
// with; every owner must already be registered.
func (m *Mediator) UpdateTopology(t Topology) error {
	nt := t.clone()
	if len(nt.Ranges) != len(nt.Owners) {
		return faulttol.Permanentf("mediator: topology has %d ranges but %d owner lists", len(nt.Ranges), len(nt.Owners))
	}
	m.topoMu.Lock()
	defer m.topoMu.Unlock()
	for ri, owners := range nt.Owners {
		if len(owners) == 0 && !nt.Ranges[ri].Empty() {
			return faulttol.Permanentf("mediator: range %d has no owners", ri)
		}
		for _, id := range owners {
			if _, ok := m.clients[id]; !ok {
				return faulttol.Permanentf("mediator: topology owner %d of range %d is not registered", id, ri)
			}
		}
	}
	m.topo = &nt
	mTopoVersion.Set(int64(nt.Version))
	return nil
}

// RegisterNode adds (or replaces) a node client for topology routing — a
// joining node is registered before the topology referencing it is
// installed. In real mode the node gets its own breaker and retry
// executor; in simulation mode link carries its mediator↔node transfers.
// ctx bounds the validation round-trip to the node.
func (m *Mediator) RegisterNode(ctx context.Context, id int, c NodeClient, link *netmodel.Link) error {
	d, err := c.Describe(ctx)
	if err != nil {
		return fmt.Errorf("mediator: node %d unreachable: %w", id, err)
	}
	if d.Dataset != m.Dataset() {
		return faulttol.Permanentf("mediator: node %d serves dataset %q, not %q", id, d.Dataset, m.Dataset())
	}
	var ft *faulttol.Executor
	if m.kernel == nil {
		ft = m.newExecutor(id)
	}
	m.topoMu.Lock()
	defer m.topoMu.Unlock()
	m.clients[id] = c
	if ft != nil {
		m.fts[id] = ft
	}
	if link != nil {
		m.links[id] = link
	}
	return nil
}

// clientList returns the registered clients in id order — also the
// management fan-out targets (DropCache, SetProcesses).
func (m *Mediator) clientList() []NodeClient {
	m.topoMu.Lock()
	defer m.topoMu.Unlock()
	ids := make([]int, 0, len(m.clients))
	for id := range m.clients {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]NodeClient, len(ids))
	for i, id := range ids {
		out[i] = m.clients[id]
	}
	return out
}

// Topology returns a copy of the installed routing table.
func (m *Mediator) Topology() Topology {
	m.topoMu.Lock()
	defer m.topoMu.Unlock()
	return m.topo.clone()
}

// PartitionError rejects node descriptions whose owned ranges do not
// partition the dataset's atom range, so no default topology can route
// them: Range is owned by two nodes (Overlap) or by none. Two daemons
// started with the same node index would otherwise double every point of
// their shard, and a missing node would silently drop its shard, both
// with Coverage 1. Retrying cannot help, so the error is permanent.
type PartitionError struct {
	Range   morton.Range
	Overlap bool
	// Nodes are the two nodes claiming Range (Overlap only).
	Nodes [2]int
}

func (e *PartitionError) Error() string {
	if e.Overlap {
		return fmt.Sprintf("mediator: nodes %d and %d both own atoms [%d, %d)", e.Nodes[0], e.Nodes[1], uint64(e.Range.Lo), uint64(e.Range.Hi))
	}
	return fmt.Sprintf("mediator: no node owns atoms [%d, %d)", uint64(e.Range.Lo), uint64(e.Range.Hi))
}

// Transient classifies the error as permanent.
func (e *PartitionError) Transient() bool { return false }

// defaultTopology derives the routing table from the nodes' descriptions:
// range i is node i's owned range, held by node i and then by every other
// node whose advertised holdings cover it. The owned ranges must partition
// the dataset's atom range.
func defaultTopology(descs []node.Description) (Topology, error) {
	if err := checkPartition(descs); err != nil {
		return Topology{}, err
	}
	t := Topology{Version: 1, Ranges: make([]morton.Range, len(descs)), Owners: make([][]int, len(descs))}
	for i, d := range descs {
		t.Ranges[i] = d.Owned
		t.Owners[i] = []int{i}
		for j, dj := range descs {
			if j == i {
				continue
			}
			for _, h := range dj.Held {
				if h.Lo <= d.Owned.Lo && d.Owned.Hi <= h.Hi {
					t.Owners[i] = append(t.Owners[i], j)
					break
				}
			}
		}
	}
	return t, nil
}

// checkPartition walks the non-empty owned ranges in code order and
// reports the first overlap or uncovered stretch of the atom range.
func checkPartition(descs []node.Description) error {
	idx := make([]int, 0, len(descs))
	for i, d := range descs {
		if !d.Owned.Empty() {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return descs[idx[a]].Owned.Lo < descs[idx[b]].Owned.Lo })
	all := descs[0].Grid.AtomRange()
	next, prev := all.Lo, -1 // next uncovered code, and the node covering up to it
	for _, i := range idx {
		r := descs[i].Owned
		if r.Lo > next {
			return &PartitionError{Range: morton.Range{Lo: next, Hi: r.Lo}}
		}
		if r.Lo < next && prev >= 0 {
			return &PartitionError{Range: morton.Range{Lo: r.Lo, Hi: min(r.Hi, next)}, Overlap: true, Nodes: [2]int{prev, i}}
		}
		if r.Hi > next {
			next, prev = r.Hi, i
		}
	}
	if next < all.Hi {
		return &PartitionError{Range: morton.Range{Lo: next, Hi: all.Hi}}
	}
	return nil
}

// routeOrder returns the failover order for one range's owner list: Alive
// members in placement order first, then Suspect/Leaving ones, with
// open-breaker nodes pushed to the back of their class. Non-serving
// members (Joining, Left) are excluded entirely.
func (m *Mediator) routeOrder(snap topoSnapshot, owners []int) []int {
	type cand struct{ id, pri, idx int }
	cands := make([]cand, 0, len(owners))
	for idx, id := range owners {
		st := membership.Alive
		if m.members != nil {
			st = m.members.State(id)
		}
		if !st.Serving() {
			continue
		}
		pri := 0
		if st != membership.Alive {
			pri = 1
		}
		if ft := snap.fts[id]; ft != nil && ft.Breaker != nil && ft.Breaker.State() == faulttol.Open {
			pri += 2
		}
		cands = append(cands, cand{id: id, pri: pri, idx: idx})
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].pri != cands[j].pri {
			return cands[i].pri < cands[j].pri
		}
		return cands[i].idx < cands[j].idx
	})
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.id
	}
	return out
}

// scatter runs one query's fan-out over the installed topology: every
// non-empty range is routed to its first live owner, ranges are grouped
// per node into one scan-restricted call, and on a transient (or
// retries-exhausted) failure the affected ranges advance to their next
// untried owner in further rounds. In simulation mode each call is charged
// its request and respBytes response on the node's link. The ranges whose
// every owner was down, and the reroutes, are accounted into stats (see
// collectRangeFailures); a non-transient error fails the whole query.
// Every successful answer covers its ranges exactly once, so merging the
// returned answers never double-counts a cell.
func scatter[T any](
	m *Mediator,
	ctx context.Context,
	p *sim.Proc,
	stats *QueryStats,
	call func(ctx context.Context, wp *sim.Proc, cli NodeClient, scan []morton.Range) (T, error),
	respBytes func(T) int,
) ([]T, error) {
	snap := m.snapshotTopo()
	t := snap.topo
	var (
		answers  []T
		failed   []NodeFailure
		reroutes int
		total    uint64 // cells across the non-empty ranges
		ranges   int    // how many non-empty ranges there are
	)

	type assignment struct {
		ri     int   // index into t.Ranges
		owners []int // failover order
		next   int   // next owner to try
		err    error // last failure
	}
	pending := make([]*assignment, 0, len(t.Ranges))
	for i, r := range t.Ranges {
		if r.Empty() {
			continue
		}
		total += r.CellCount()
		ranges++
		pending = append(pending, &assignment{ri: i, owners: m.routeOrder(snap, t.Owners[i])})
	}

	round := 0
	for len(pending) > 0 {
		groups := make(map[int][]*assignment)
		for _, a := range pending {
			for a.next < len(a.owners) {
				if _, ok := snap.clients[a.owners[a.next]]; ok {
					break
				}
				a.next++
			}
			if a.next >= len(a.owners) {
				err := a.err
				if err == nil {
					err = errReplicasDown{ri: a.ri}
				}
				last := -1
				if n := len(a.owners); n > 0 {
					last = a.owners[n-1]
				}
				failed = append(failed, NodeFailure{Node: last, Owned: t.Ranges[a.ri], Err: err})
				continue
			}
			groups[a.owners[a.next]] = append(groups[a.owners[a.next]], a)
		}
		if len(groups) == 0 {
			break
		}
		ids := make([]int, 0, len(groups))
		for id := range groups {
			ids = append(ids, id)
		}
		sort.Ints(ids)

		results := make([]T, len(ids))
		errs := make([]error, len(ids))
		m.exec.Fork(p, len(ids), func(gi int, wp *sim.Proc) {
			id := ids[gi]
			name := fmt.Sprintf("node[%d]", id)
			if round > 0 {
				name = fmt.Sprintf("failover[%d]", id)
			}
			nctx, nsp := obs.StartSpan(ctx, name)
			defer nsp.End()
			scan := make([]morton.Range, 0, len(groups[id]))
			for _, a := range groups[id] {
				scan = append(scan, t.Ranges[a.ri])
			}
			// Canonical scan order keeps node-side cache keys stable across
			// rounds and placements.
			sort.Slice(scan, func(i, j int) bool { return scan[i].Lo < scan[j].Lo })
			link := snap.links[id]
			do := func(c context.Context) error {
				if link != nil {
					link.Transfer(wp, RequestWireBytes)
				}
				var err error
				results[gi], err = call(c, wp, snap.clients[id], scan)
				if link != nil && err == nil {
					link.Transfer(wp, respBytes(results[gi]))
				}
				return err
			}
			if ft := snap.fts[id]; ft != nil {
				errs[gi] = ft.Do(nctx, do)
			} else {
				errs[gi] = do(nctx)
			}
		})

		var next []*assignment
		for gi, id := range ids {
			if errs[gi] == nil {
				answers = append(answers, results[gi])
				continue
			}
			if !faulttol.Transient(errs[gi]) {
				return nil, fmt.Errorf("mediator: node %d: %w", id, errs[gi])
			}
			for _, a := range groups[id] {
				a.err = errs[gi]
				a.next++
				if a.next < len(a.owners) {
					reroutes++
				}
				next = append(next, a)
			}
		}
		pending = next
		round++
	}
	if reroutes > 0 {
		mReroutes.Add(int64(reroutes))
	}
	if err := m.collectRangeFailures(failed, total, ranges, stats); err != nil {
		return nil, err
	}
	stats.Reroutes = reroutes
	return answers, nil
}

// collectRangeFailures accounts the fan-out's failures: ranges with every
// owner down. Strict mode (or a non-degradable failure) fails the query;
// partial mode computes coverage from the missing cells. A replica
// absorbing a primary failure never reaches this function — the range
// simply is not in failures and coverage stays 1.
func (m *Mediator) collectRangeFailures(failures []NodeFailure, total uint64, ranges int, stats *QueryStats) error {
	stats.Coverage = 1
	if len(failures) == 0 {
		return nil
	}
	for _, f := range failures {
		if !m.allowPartial || !faulttol.Transient(f.Err) {
			return fmt.Errorf("mediator: node %d: %w", f.Node, f.Err)
		}
	}
	if len(failures) == ranges {
		return fmt.Errorf("mediator: all %d ranges failed on every replica, first: %w", ranges, failures[0].Err)
	}
	var missing uint64
	for _, f := range failures {
		missing += f.Owned.CellCount()
	}
	if total > 0 {
		stats.Coverage = 1 - float64(missing)/float64(total)
	} else {
		// Degenerate topology (unknown ranges): fall back to range counts.
		stats.Coverage = 1 - float64(len(failures))/float64(ranges)
	}
	stats.Failures = failures
	return nil
}
