// Package mediator implements the front-end Web-server role of the paper's
// architecture (Fig. 1 and Fig. 5): it receives user queries, breaks each
// one into parts according to the spatial partitioning of the data,
// submits the parts asynchronously to the database nodes, assembles the
// distributed results, and returns them to the user.
//
// The partitioning is a routing table (Topology): contiguous Morton ranges
// and, per range, the nodes holding it, primary first. By default New
// derives it from the nodes' descriptions — each node's owned range plus
// the replica holdings the nodes advertise — so an unreplicated cluster is
// simply a topology with one owner per range. Every query, solo or
// batched, takes the same path: one scan-restricted RPC per node for the
// ranges routed to it.
//
// The mediator also produces the query-time accounting the paper's Fig. 9
// breakdowns report: per-phase node times (cache lookup, I/O, compute) on
// the cluster critical path, mediator↔DB communication, and mediator↔user
// communication — both of which grow proportionally to the result size.
//
// On a real cluster the mediator must survive slow and dead nodes. Every
// node RPC runs under a per-node circuit breaker and a retry policy with
// exponential backoff whose budget never exceeds the caller's context
// deadline. A range whose node stays unreachable fails over to the next
// node holding it. When every holder is down, strict mode (the default)
// fails the query with the node's error; partial mode (Config.
// AllowPartial) answers from the surviving ranges and annotates QueryStats
// with the fraction of the Morton space that was actually scanned.
package mediator

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/membership"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/netmodel"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
)

// Process-wide mediator metrics: query throughput and latency, plus the
// degradation picture — how often answers are partial and how much of the
// Morton space they cover when they are.
var (
	mQueries      = obs.Default().Counter("turbdb_mediator_queries_total")
	mQueryErrs    = obs.Default().Counter("turbdb_mediator_query_errors_total")
	mPartialAns   = obs.Default().Counter("turbdb_mediator_partial_answers_total")
	mQuerySeconds = obs.Default().Histogram("turbdb_mediator_query_seconds", obs.DurationBuckets)
	mCoverage     = obs.Default().Histogram("turbdb_mediator_coverage", []float64{0.25, 0.5, 0.75, 0.9, 0.99, 1})
)

// RequestWireBytes is the modeled size of one query request envelope.
const RequestWireBytes = 512

// NodeClient is the mediator's view of one database node. *node.Node
// satisfies it directly; the wire package provides an HTTP-backed
// implementation. Every method — queries and management alike — honors ctx
// cancellation and deadlines.
type NodeClient interface {
	GetThreshold(ctx context.Context, p *sim.Proc, q query.Threshold) (*node.ThresholdResult, error)
	// GetThresholdBatch evaluates several threshold queries over the same
	// (field, order, step, scan) in one shared pass; see
	// (*node.Node).GetThresholdBatch.
	GetThresholdBatch(ctx context.Context, p *sim.Proc, qs []query.Threshold) (*node.ThresholdBatchResult, error)
	GetPDF(ctx context.Context, p *sim.Proc, q query.PDF) (*node.PDFResult, error)
	GetTopK(ctx context.Context, p *sim.Proc, q query.TopK) (*node.TopKResult, error)
	DropCacheEntry(ctx context.Context, fieldName string, order, step int) error
	SetProcesses(ctx context.Context, p int) error
	Describe(ctx context.Context) (node.Description, error)
}

// BatchNodeClient is the former name of the batch-capable client view,
// which every NodeClient now is. The alias stays only because the
// end-to-end benchmark module (e2ebench) names it and is changed together
// with its recorded baseline, not alongside the mediator.
type BatchNodeClient = NodeClient

// Config assembles a Mediator.
type Config struct {
	// Nodes are the database nodes serving this mediator's dataset. Node i
	// is registered under id i; further nodes join via RegisterNode.
	Nodes []NodeClient
	// Kernel enables simulation mode (asynchronous submission as DES
	// processes, communication charged to links). nil = real mode.
	Kernel *sim.Kernel
	// NodeLinks are per-node mediator↔node links (same length as Nodes);
	// required in simulation mode.
	NodeLinks []*netmodel.Link
	// UserLink is the mediator↔user path; required in simulation mode.
	UserLink *netmodel.Link

	// AllowPartial degrades gracefully when every holder of a Morton range
	// stays unreachable after retries: the query is answered from the
	// surviving ranges and QueryStats records Coverage < 1 plus the
	// failed ranges. Strict mode (false, the default) keeps all-or-nothing
	// semantics. Only availability-class (transient) failures are
	// degradable — a node rejecting the query as malformed always fails it.
	AllowPartial bool
	// Retry overrides the per-node retry policy; nil uses
	// faulttol.DefaultPolicy(). Set MaxAttempts to 1 to disable retries.
	Retry *faulttol.Policy
	// Breaker overrides the per-node circuit-breaker tuning; nil uses
	// faulttol defaults.
	Breaker *faulttol.BreakerConfig

	// DescribeCtx bounds the constructor's Describe round-trips; nil
	// means context.Background().
	DescribeCtx context.Context

	// Topology is the initial routing table: the fan-out targets ranges
	// (not nodes), each range is sent to its first live owner, and a
	// failed range fails over to the next owner before partial mode is
	// even considered. nil derives it from the nodes' descriptions: range
	// i is node i's owned range, held by node i and then by every other
	// node whose advertised holdings cover it. The owned ranges must then
	// partition the dataset's atom range (*PartitionError otherwise).
	Topology *Topology
	// Members tracks node lifecycle and health for routing; nil treats
	// every registered node as serving. Breaker transitions feed back into
	// it (open marks the node Suspect, closed marks it Alive).
	Members *membership.Table
}

// Mediator is the query front end. Safe for concurrent use in real mode.
type Mediator struct {
	desc     node.Description // node 0's: the dataset and its geometry
	kernel   *sim.Kernel
	userLink *netmodel.Link
	exec     *node.Exec

	allowPartial bool
	members      *membership.Table // nil: every registered node serves
	policy       faulttol.Policy   // retry/breaker tuning, real mode only
	bcfg         faulttol.BreakerConfig

	// Routing state: the installed topology and every registered node with
	// its retry/breaker executor (real mode) and link (simulation mode).
	//
	//turbdb:lockrank mediator.topology 12
	topoMu  sync.Mutex
	topo    *Topology                  // guarded by topoMu
	clients map[int]NodeClient         // guarded by topoMu
	fts     map[int]*faulttol.Executor // guarded by topoMu
	links   map[int]*netmodel.Link     // guarded by topoMu
}

// New validates the config, contacts every node for its description
// (dataset, geometry, owned and held ranges) and builds a Mediator. A node
// that is unreachable at assembly time is a constructor error — queries
// never panic on an unavailable topology.
//
//turbdb:ignore ctxpropagate the Describe round-trips are bounded by cfg.DescribeCtx; a ctx parameter would duplicate the config field
func New(cfg Config) (*Mediator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, faulttol.Permanent("mediator: at least one node required")
	}
	ctx := cfg.DescribeCtx
	if ctx == nil {
		ctx = context.Background()
	}
	descs := make([]node.Description, len(cfg.Nodes))
	for i, n := range cfg.Nodes {
		d, err := n.Describe(ctx)
		if err != nil {
			return nil, fmt.Errorf("mediator: node %d unreachable: %w", i, err)
		}
		descs[i] = d
	}
	ds := descs[0].Dataset
	for _, d := range descs[1:] {
		if d.Dataset != ds {
			return nil, faulttol.Permanentf("mediator: nodes serve different datasets (%q vs %q)", ds, d.Dataset)
		}
	}
	if cfg.Kernel != nil {
		if len(cfg.NodeLinks) != len(cfg.Nodes) {
			return nil, faulttol.Permanentf("mediator: %d node links for %d nodes", len(cfg.NodeLinks), len(cfg.Nodes))
		}
		if cfg.UserLink == nil {
			return nil, faulttol.Permanent("mediator: user link required in simulation mode")
		}
	}
	topo := cfg.Topology
	if topo == nil {
		t, err := defaultTopology(descs)
		if err != nil {
			return nil, err
		}
		topo = &t
	}
	m := &Mediator{
		desc:         descs[0],
		kernel:       cfg.Kernel,
		userLink:     cfg.UserLink,
		exec:         &node.Exec{Kernel: cfg.Kernel},
		allowPartial: cfg.AllowPartial,
		members:      cfg.Members,
	}
	// Fault tolerance runs in real mode only: the simulation models a
	// fault-free cluster on a virtual clock, where wall-clock backoff is
	// meaningless.
	if cfg.Kernel == nil {
		m.policy = faulttol.DefaultPolicy()
		if cfg.Retry != nil {
			m.policy = *cfg.Retry
		}
		if cfg.Breaker != nil {
			m.bcfg = *cfg.Breaker
		}
	}
	m.topoMu.Lock()
	m.clients = make(map[int]NodeClient, len(cfg.Nodes))
	m.fts = make(map[int]*faulttol.Executor, len(cfg.Nodes))
	m.links = make(map[int]*netmodel.Link, len(cfg.Nodes))
	for i, n := range cfg.Nodes {
		m.clients[i] = n
		if cfg.Kernel == nil {
			m.fts[i] = m.newExecutor(i)
		} else {
			m.links[i] = cfg.NodeLinks[i]
		}
	}
	m.topoMu.Unlock()
	if err := m.UpdateTopology(*topo); err != nil {
		return nil, err
	}
	return m, nil
}

// newExecutor builds the retry/breaker executor for one node in real mode.
// The transition hook keeps the per-node breaker state gauge current
// (0 = closed, 1 = open, 2 = half-open) and, when a membership table is
// attached, folds breaker health into it: an opening breaker marks the
// node Suspect (de-prioritizing it in replica routing), a closing one
// marks it Alive again.
func (m *Mediator) newExecutor(id int) *faulttol.Executor {
	g := obs.Default().Gauge(fmt.Sprintf("turbdb_breaker_state{node=%q}", fmt.Sprint(id)))
	g.Set(int64(faulttol.Closed))
	members := m.members
	nbcfg := m.bcfg
	nbcfg.OnTransition = func(from, to faulttol.State) {
		g.Set(int64(to))
		if members != nil {
			switch to {
			case faulttol.Open:
				members.MarkSuspect(id)
			case faulttol.Closed:
				members.MarkAlive(id)
			}
		}
	}
	return &faulttol.Executor{Policy: m.policy, Breaker: faulttol.NewBreaker(nbcfg)}
}

// Nodes returns the registered node clients in id order — the nodes
// given to New, followed by any registered later.
func (m *Mediator) Nodes() []NodeClient { return m.clientList() }

// NodeCount returns the number of registered node clients.
func (m *Mediator) NodeCount() int {
	m.topoMu.Lock()
	defer m.topoMu.Unlock()
	return len(m.clients)
}

// Simulated reports whether the mediator runs on a DES kernel (virtual
// time). The concurrent scheduler refuses simulated mediators: its batching
// window and admission queue are wall-clock constructs.
func (m *Mediator) Simulated() bool { return m.kernel != nil }

// Grid returns the dataset geometry (cached at assembly time).
func (m *Mediator) Grid() grid.Grid { return m.desc.Grid }

// Dataset returns the dataset name served (cached at assembly time).
func (m *Mediator) Dataset() string { return m.desc.Dataset }

// BreakerState reports node i's circuit-breaker state (Closed in
// simulation mode, where breakers are disabled).
func (m *Mediator) BreakerState(i int) faulttol.State {
	m.topoMu.Lock()
	ft := m.fts[i]
	m.topoMu.Unlock()
	if ft != nil && ft.Breaker != nil {
		return ft.Breaker.State()
	}
	return faulttol.Closed
}

// NodeFailure records one Morton range the mediator degraded around in a
// partial answer.
type NodeFailure struct {
	// Node is the last node tried for the range (-1 when the range had no
	// owner to try).
	Node int
	// Owned is the Morton range — the part of the domain the answer is
	// missing.
	Owned morton.Range
	// Err is the failure after retries (or the open circuit).
	Err error
}

// QueryStats is the cluster-level accounting of one query — the inputs to
// the paper's Fig. 6/8/9 measurements.
type QueryStats struct {
	// Total is the end-to-end time from submission to results delivered to
	// the user (virtual in simulation mode, wall-clock otherwise).
	Total time.Duration
	// NodeCritical is the element-wise maximum of per-node phase times: the
	// cluster critical path through cache lookup, I/O and compute.
	NodeCritical node.Breakdown
	// MediatorDBComm is the fan-out wall time not accounted to node phases:
	// request/response transfers and queueing between mediator and nodes.
	MediatorDBComm time.Duration
	// MediatorUserComm is the time to deliver the result to the user.
	MediatorUserComm time.Duration
	// Points is the result size.
	Points int
	// CacheHits counts node answers served from their semantic cache.
	CacheHits int
	// ResponseBytes is the total modeled size of node responses.
	ResponseBytes int

	// Coverage is the fraction of the dataset's Morton codes whose range
	// contributed to the answer: 1 for a complete answer, < 1 when
	// partial mode degraded around dead nodes.
	Coverage float64
	// Failures lists the ranges the answer is missing (partial mode only;
	// nil for a complete answer). An entry means every node holding the
	// range was down.
	Failures []NodeFailure
	// Reroutes counts Morton ranges re-routed to another holder after a
	// failure during this query.
	Reroutes int

	// QueueWait is the time the query spent in the scheduler's admission
	// queue before execution began; zero when the query ran unscheduled
	// (internal/sched fills it in).
	QueueWait time.Duration
	// SharedScan reports that the query was answered as part of a
	// shared-scan batch: its node-side pass also served other concurrent
	// queries.
	SharedScan bool
	// ScansSaved counts the node-side atom scans this query avoided by
	// sharing a batched pass, summed across nodes.
	ScansSaved int

	// Trace is the query's span tree when the caller attached one to the
	// query context (obs.ContextWithTrace); nil otherwise. The mediator's
	// per-stage spans and every node's stage spans are recorded into it.
	Trace *obs.Trace
}

// Partial reports whether this answer is missing part of the domain.
func (s *QueryStats) Partial() bool { return len(s.Failures) > 0 }

// noteQuery records the cluster-level metrics of one completed query.
func (m *Mediator) noteQuery(stats *QueryStats) {
	mQueries.Inc()
	mQuerySeconds.Observe(stats.Total.Seconds())
	mCoverage.Observe(stats.Coverage)
	if stats.Partial() {
		mPartialAns.Inc()
	}
}

// Threshold evaluates a threshold query across the cluster: the query is
// submitted asynchronously to the first live owner of every topology
// range, per-node results are merged in code order, the global result
// limit is enforced, and the result is delivered to the user. ctx bounds
// the whole fan-out, including retries and failover.
func (m *Mediator) Threshold(ctx context.Context, p *sim.Proc, q query.Threshold) ([]query.ResultPoint, *QueryStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, qsp := obs.StartSpan(ctx, "threshold")
	defer qsp.End()
	_, psp := obs.StartSpan(ctx, "plan")
	domain := m.Grid().Domain()
	q = q.Normalize(domain)
	err := q.Validate(domain)
	psp.End()
	if err != nil {
		mQueryErrs.Inc()
		return nil, nil, err
	}

	stats := &QueryStats{Trace: obs.TraceFrom(ctx)}
	start := m.exec.Now()
	results, err := scatter(m, ctx, p, stats, func(ctx context.Context, wp *sim.Proc, cli NodeClient, scan []morton.Range) (*node.ThresholdResult, error) {
		qq := q
		qq.Scan = scan
		return cli.GetThreshold(ctx, wp, qq)
	}, func(r *node.ThresholdResult) int { return query.WireBytes(len(r.Points)) })
	if err != nil {
		mQueryErrs.Inc()
		return nil, nil, err
	}
	fanout := m.exec.Now() - start

	_, msp := obs.StartSpan(ctx, "merge")
	pts, err := mergeThreshold(results, q.Limit, stats)
	msp.End()
	if err != nil {
		mQueryErrs.Inc()
		return nil, nil, err
	}
	stats.Points = len(pts)
	m.deliver(ctx, p, stats, fanout, start, query.WireBytes(len(pts)))
	return pts, stats, nil
}

// mergeThreshold merges per-RPC threshold answers into one code-ordered
// result and folds their accounting into st. More than limit points in
// total is a *query.ErrTooManyPoints.
func mergeThreshold(rs []*node.ThresholdResult, limit int, st *QueryStats) ([]query.ResultPoint, error) {
	parts := make([][]query.ResultPoint, 0, len(rs))
	total := 0
	for _, r := range rs {
		parts = append(parts, r.Points)
		total += len(r.Points)
		st.NodeCritical.Max(r.Breakdown)
		if r.FromCache {
			st.CacheHits++
		}
		if r.Shared > 1 {
			st.SharedScan = true
		}
		st.ScansSaved += r.ScansSaved
		st.ResponseBytes += query.WireBytes(len(r.Points))
	}
	if total > limit {
		return nil, &query.ErrTooManyPoints{Limit: limit, Seen: total}
	}
	// Per-node results arrive code-sorted, so a streaming k-way merge
	// replaces concatenate-and-resort (see merge.go).
	return mergeSortedPoints(parts), nil
}

// deliver charges the answer's transfer to the user (bytes on the user
// link in simulation mode) and closes the query's accounting: the part of
// the fan-out time not spent in node phases is MediatorDBComm.
func (m *Mediator) deliver(ctx context.Context, p *sim.Proc, stats *QueryStats, fanout, start time.Duration, bytes int) {
	stats.MediatorDBComm = max(fanout-stats.NodeCritical.Total, 0)
	userStart := m.exec.Now()
	_, dsp := obs.StartSpan(ctx, "deliver")
	if m.kernel != nil {
		m.userLink.Transfer(p, bytes)
	}
	dsp.End()
	stats.MediatorUserComm = m.exec.Now() - userStart
	stats.Total = m.exec.Now() - start
	m.noteQuery(stats)
}

// PDF evaluates a histogram query across the cluster and merges per-node
// bin counts.
func (m *Mediator) PDF(ctx context.Context, p *sim.Proc, q query.PDF) ([]int64, *QueryStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, qsp := obs.StartSpan(ctx, "pdf")
	defer qsp.End()
	domain := m.Grid().Domain()
	q = q.Normalize(domain)
	if err := q.Validate(domain); err != nil {
		mQueryErrs.Inc()
		return nil, nil, err
	}
	stats := &QueryStats{Trace: obs.TraceFrom(ctx)}
	start := m.exec.Now()
	results, err := scatter(m, ctx, p, stats, func(ctx context.Context, wp *sim.Proc, cli NodeClient, scan []morton.Range) (*node.PDFResult, error) {
		qq := q
		qq.Scan = scan
		return cli.GetPDF(ctx, wp, qq)
	}, func(*node.PDFResult) int { return 16 * q.Bins })
	if err != nil {
		mQueryErrs.Inc()
		return nil, nil, err
	}
	fanout := m.exec.Now() - start
	_, msp := obs.StartSpan(ctx, "merge")
	counts := make([]int64, q.Bins)
	for _, r := range results {
		for j, c := range r.Counts {
			counts[j] += c
		}
		stats.NodeCritical.Max(r.Breakdown)
	}
	msp.End()
	m.deliver(ctx, p, stats, fanout, start, 16*q.Bins)
	return counts, stats, nil
}

// TopK evaluates a top-k query across the cluster: every node returns its k
// best candidates and the mediator keeps the global k largest.
func (m *Mediator) TopK(ctx context.Context, p *sim.Proc, q query.TopK) ([]query.ResultPoint, *QueryStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, qsp := obs.StartSpan(ctx, "topk")
	defer qsp.End()
	domain := m.Grid().Domain()
	q = q.Normalize(domain)
	if err := q.Validate(domain); err != nil {
		mQueryErrs.Inc()
		return nil, nil, err
	}
	stats := &QueryStats{Trace: obs.TraceFrom(ctx)}
	start := m.exec.Now()
	results, err := scatter(m, ctx, p, stats, func(ctx context.Context, wp *sim.Proc, cli NodeClient, scan []morton.Range) (*node.TopKResult, error) {
		qq := q
		qq.Scan = scan
		return cli.GetTopK(ctx, wp, qq)
	}, func(r *node.TopKResult) int { return query.WireBytes(len(r.Points)) })
	if err != nil {
		mQueryErrs.Inc()
		return nil, nil, err
	}
	fanout := m.exec.Now() - start
	var all []query.ResultPoint
	for _, r := range results {
		all = append(all, r.Points...)
		stats.NodeCritical.Max(r.Breakdown)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Value != all[j].Value { //lint:allow floateq exact tie-break keeps the order total and deterministic
			return all[i].Value > all[j].Value
		}
		return all[i].Code < all[j].Code
	})
	if len(all) > q.K {
		all = all[:q.K]
	}
	stats.Points = len(all)
	m.deliver(ctx, p, stats, fanout, start, query.WireBytes(len(all)))
	return all, stats, nil
}

// DropCache removes cached results for (field, order, step) on every node —
// the cold-cache knob of the paper's experiments. ctx bounds the whole
// fan-out.
func (m *Mediator) DropCache(ctx context.Context, fieldName string, order, step int) error {
	for _, n := range m.clientList() {
		if err := n.DropCacheEntry(ctx, fieldName, order, step); err != nil {
			return err
		}
	}
	return nil
}

// SetProcesses sets the per-query worker count on every node (the scale-up
// knob of Fig. 7a). ctx bounds the whole fan-out.
func (m *Mediator) SetProcesses(ctx context.Context, procs int) error {
	for _, n := range m.clientList() {
		if err := n.SetProcesses(ctx, procs); err != nil {
			return err
		}
	}
	return nil
}
