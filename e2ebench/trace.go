package main

// The traced run records spans from this benchmark's own files only: it
// wraps the public seams the program already exposes (the transports of the
// user and node clients, the mediator's and the nodes' http.Handler, the
// wire.Querier around the scheduler, the sched.Backend around the mediator,
// every mediator.NodeClient and each node's node.PeerFetcher). A query ID
// travels in a benchmark-owned header set by the user transport; each
// handler copies it into its request context, so every span of one query can
// be joined without touching the program.
//
// Below the scheduler one backend call may serve several queries (a
// shared-scan batch). Spans from the backend call down are therefore keyed
// by the ID the backend's context carries (the batch opener's), and every
// member query is bound to that execution.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sched"
	"github.com/turbdb/turbdb/internal/sim"
	"github.com/turbdb/turbdb/internal/wire"
)

// queryHeader carries the query ID across HTTP hops.
const queryHeader = "X-E2ebench-Query"

type queryIDKey struct{}

func withQueryID(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, queryIDKey{}, id)
}

func queryIDFrom(ctx context.Context) (uint64, bool) {
	id, ok := ctx.Value(queryIDKey{}).(uint64)
	return id, ok
}

// span is a closed interval in nanoseconds since the tracer's epoch.
type span struct{ Start, End int64 }

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

func (s span) contains(o span) bool { return s.Start <= o.Start && o.End <= s.End }

func (s span) set() bool { return s.End > 0 }

// queryRec is everything recorded for one user query.
type queryRec struct {
	Kind       string
	Timed      bool
	User       span
	Handler    span
	Querier    span
	UserBytes  int64
	Exec       uint64 // backend execution serving the query; 0 = unbound
	Shared     bool
	ScansSaved int
	Shed       bool
	Failed     bool
	Points     int

	key string // normalized threshold query, for batch-member binding
}

// rpcRec is one mediator → node call as the NodeClient wrapper saw it.
type rpcRec struct {
	Node int
	Span span
	// Evaluated counts the answer points the node computed rather than
	// served from its cache; -1 for a PDF, whose answer is bins.
	Evaluated int
	// Breakdown is the node's answer accounting; for a batch, the member
	// whose Total is largest (it carries the shared pass).
	Breakdown node.Breakdown
}

// haloRec is one halo fetch a node issued through its PeerFetcher.
type haloRec struct {
	Span  span
	Atoms int
}

// execRec is one backend call (solo query or shared-scan batch) and the
// node work below it.
type execRec struct {
	Backend   span
	Members   int
	RPCs      []rpcRec
	NodeBytes int64
}

type nodeKey struct {
	exec uint64
	node int
}

// tracer keeps every span in memory; the run writes them out at the end.
type tracer struct {
	epoch  time.Time
	domain grid.Box

	//turbdb:lockrank e2ebench.tracer 95
	mu       sync.Mutex
	queries  map[uint64]*queryRec  // guarded by mu
	execs    map[uint64]*execRec   // guarded by mu
	inflight map[string][]uint64   // guarded by mu; unbound threshold queries by key
	handlers map[nodeKey][]span    // guarded by mu; node handler spans
	halos    map[nodeKey][]haloRec // guarded by mu
}

func newTracer(domain grid.Box) *tracer {
	return &tracer{
		epoch:    time.Now(),
		domain:   domain,
		queries:  make(map[uint64]*queryRec),
		execs:    make(map[uint64]*execRec),
		inflight: make(map[string][]uint64),
		handlers: make(map[nodeKey][]span),
		halos:    make(map[nodeKey][]haloRec),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// queryLocked returns the record for id, creating it on first touch.
func (t *tracer) queryLocked(id uint64) *queryRec {
	q := t.queries[id]
	if q == nil {
		q = &queryRec{}
		t.queries[id] = q
	}
	return q
}

func (t *tracer) execLocked(id uint64) *execRec {
	e := t.execs[id]
	if e == nil {
		e = &execRec{}
		t.execs[id] = e
	}
	return e
}

// userCall records the benchmark's own span around one wire.Client call.
func (t *tracer) userCall(id uint64, kind string, timed bool, s span, points int, failed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	q := t.queryLocked(id)
	q.Kind, q.Timed, q.User, q.Points, q.Failed = kind, timed, s, points, failed
}

// thresholdKey identifies a normalized threshold query, the form in which
// the scheduler hands batch members to the backend.
func (t *tracer) thresholdKey(q query.Threshold) string {
	return fmt.Sprintf("%+v", q.Normalize(t.domain))
}

// bindLocked attaches query id to execution exec.
func (t *tracer) bindLocked(id, exec uint64) {
	q := t.queryLocked(id)
	q.Exec = exec
	if q.key == "" {
		return
	}
	ids := t.inflight[q.key]
	for i, other := range ids {
		if other == id {
			t.inflight[q.key] = append(ids[:i:i], ids[i+1:]...)
			break
		}
	}
	if len(t.inflight[q.key]) == 0 {
		delete(t.inflight, q.key)
	}
}

// bindBatch binds each member of a shared-scan batch to exec: the opener by
// its context ID, the others by matching their normalized query among the
// unbound in-flight ones (identical queries are interchangeable).
func (t *tracer) bindBatch(exec uint64, qs []query.Threshold) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, q := range qs {
		key := fmt.Sprintf("%+v", q)
		ids := t.inflight[key]
		if len(ids) == 0 {
			continue
		}
		pick := ids[0]
		for _, id := range ids {
			if id == exec {
				pick = id
				break
			}
		}
		t.bindLocked(pick, exec)
	}
}

// --- HTTP seams ---------------------------------------------------------

// hop names which client a transport serves.
type hop int

const (
	hopUser hop = iota
	hopNode
)

// newPoolTransport mirrors the pool settings of wire's shared transport, so
// a traced client pools connections exactly like an untraced one.
func newPoolTransport() *http.Transport {
	return &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 32,
		IdleConnTimeout:     90 * time.Second,
	}
}

// tracedTransport stamps the query ID of the request context on the
// request and counts the bytes of both bodies.
type tracedTransport struct {
	base http.RoundTripper
	t    *tracer
	hop  hop
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, ok := queryIDFrom(req.Context())
	if !ok {
		return tt.base.RoundTrip(req)
	}
	out := req.Clone(req.Context())
	out.Header.Set(queryHeader, strconv.FormatUint(id, 10))
	resp, err := tt.base.RoundTrip(out)
	if err != nil {
		return nil, err
	}
	reqBytes := req.ContentLength
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) { tt.t.addBytes(tt.hop, id, n+reqBytes) }}
	return resp, nil
}

// countingBody reports the bytes read when the body is closed; wire's
// clients drain and close every body before the call returns.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	b.once.Do(func() { b.done(b.n) })
	return b.ReadCloser.Close()
}

func (t *tracer) addBytes(h hop, id uint64, n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if h == hopUser {
		t.queryLocked(id).UserBytes += n
	} else {
		t.execLocked(id).NodeBytes += n
	}
}

func (t *tracer) transport(h hop) http.RoundTripper {
	return &tracedTransport{base: newPoolTransport(), t: t, hop: h}
}

// handler copies the query ID header into the request context and records
// the handler's span: the mediator's (nodeIdx < 0) or a node's.
func (t *tracer) handler(nodeIdx int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(queryHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		start := t.now()
		next.ServeHTTP(w, r.WithContext(withQueryID(r.Context(), id)))
		s := span{start, t.now()}
		t.mu.Lock()
		defer t.mu.Unlock()
		if nodeIdx < 0 {
			t.queryLocked(id).Handler = s
		} else {
			k := nodeKey{id, nodeIdx}
			t.handlers[k] = append(t.handlers[k], s)
		}
	})
}

// --- Querier around the scheduler ----------------------------------------

type tracedQuerier struct {
	inner wire.Querier
	t     *tracer
}

func (q *tracedQuerier) Grid() grid.Grid { return q.inner.Grid() }
func (q *tracedQuerier) Dataset() string { return q.inner.Dataset() }
func (q *tracedQuerier) NodeCount() int  { return q.inner.NodeCount() }

// begin registers a threshold query as in flight for batch binding.
func (q *tracedQuerier) begin(ctx context.Context, th *query.Threshold) (uint64, bool) {
	id, ok := queryIDFrom(ctx)
	if ok && th != nil {
		key := q.t.thresholdKey(*th)
		q.t.mu.Lock()
		q.t.queryLocked(id).key = key
		q.t.inflight[key] = append(q.t.inflight[key], id)
		q.t.mu.Unlock()
	}
	return id, ok
}

func (q *tracedQuerier) end(id uint64, s span, stats *mediator.QueryStats, err error) {
	q.t.mu.Lock()
	defer q.t.mu.Unlock()
	rec := q.t.queryLocked(id)
	rec.Querier = s
	if stats != nil {
		rec.Shared = stats.SharedScan
		rec.ScansSaved = stats.ScansSaved
	}
	var oq *sched.ErrOverQuota
	rec.Shed = errors.As(err, &oq)
	if rec.Exec == 0 {
		q.t.bindLocked(id, 0) // rejected before reaching the backend
	}
}

func (q *tracedQuerier) Threshold(ctx context.Context, p *sim.Proc, th query.Threshold) ([]query.ResultPoint, *mediator.QueryStats, error) {
	id, ok := q.begin(ctx, &th)
	start := q.t.now()
	pts, stats, err := q.inner.Threshold(ctx, p, th)
	if ok {
		q.end(id, span{start, q.t.now()}, stats, err)
	}
	return pts, stats, err
}

func (q *tracedQuerier) PDF(ctx context.Context, p *sim.Proc, pq query.PDF) ([]int64, *mediator.QueryStats, error) {
	id, ok := q.begin(ctx, nil)
	start := q.t.now()
	counts, stats, err := q.inner.PDF(ctx, p, pq)
	if ok {
		q.end(id, span{start, q.t.now()}, stats, err)
	}
	return counts, stats, err
}

func (q *tracedQuerier) TopK(ctx context.Context, p *sim.Proc, tq query.TopK) ([]query.ResultPoint, *mediator.QueryStats, error) {
	id, ok := q.begin(ctx, nil)
	start := q.t.now()
	pts, stats, err := q.inner.TopK(ctx, p, tq)
	if ok {
		q.end(id, span{start, q.t.now()}, stats, err)
	}
	return pts, stats, err
}

// --- Backend around the mediator -----------------------------------------

// tracedBackend wraps the mediator the scheduler feeds. It forwards
// Simulated, which sched.New inspects.
type tracedBackend struct {
	inner *mediator.Mediator
	t     *tracer
}

func (b *tracedBackend) Grid() grid.Grid { return b.inner.Grid() }
func (b *tracedBackend) Dataset() string { return b.inner.Dataset() }
func (b *tracedBackend) NodeCount() int  { return b.inner.NodeCount() }
func (b *tracedBackend) Simulated() bool { return b.inner.Simulated() }

func (b *tracedBackend) record(exec uint64, s span, members int) {
	b.t.mu.Lock()
	defer b.t.mu.Unlock()
	e := b.t.execLocked(exec)
	e.Backend, e.Members = s, members
}

// solo binds the context's query to its own execution.
func (b *tracedBackend) solo(ctx context.Context) (uint64, bool) {
	id, ok := queryIDFrom(ctx)
	if ok {
		b.t.mu.Lock()
		b.t.bindLocked(id, id)
		b.t.mu.Unlock()
	}
	return id, ok
}

func (b *tracedBackend) Threshold(ctx context.Context, p *sim.Proc, q query.Threshold) ([]query.ResultPoint, *mediator.QueryStats, error) {
	id, ok := b.solo(ctx)
	s := b.t.now()
	pts, stats, err := b.inner.Threshold(ctx, p, q)
	if ok {
		b.record(id, span{s, b.t.now()}, 1)
	}
	return pts, stats, err
}

func (b *tracedBackend) ThresholdBatch(ctx context.Context, p *sim.Proc, qs []query.Threshold) ([]mediator.BatchAnswer, error) {
	id, ok := queryIDFrom(ctx)
	if ok {
		b.t.bindBatch(id, qs)
	}
	s := b.t.now()
	answers, err := b.inner.ThresholdBatch(ctx, p, qs)
	if ok {
		b.record(id, span{s, b.t.now()}, len(qs))
	}
	return answers, err
}

func (b *tracedBackend) PDF(ctx context.Context, p *sim.Proc, q query.PDF) ([]int64, *mediator.QueryStats, error) {
	id, ok := b.solo(ctx)
	s := b.t.now()
	counts, stats, err := b.inner.PDF(ctx, p, q)
	if ok {
		b.record(id, span{s, b.t.now()}, 1)
	}
	return counts, stats, err
}

func (b *tracedBackend) TopK(ctx context.Context, p *sim.Proc, q query.TopK) ([]query.ResultPoint, *mediator.QueryStats, error) {
	id, ok := b.solo(ctx)
	s := b.t.now()
	pts, stats, err := b.inner.TopK(ctx, p, q)
	if ok {
		b.record(id, span{s, b.t.now()}, 1)
	}
	return pts, stats, err
}

// --- NodeClient around each node client ----------------------------------

// tracedNode wraps one node client. It implements
// mediator.BatchNodeClient: without GetThresholdBatch the mediator would
// fall back to per-member calls and the traced stack would stop sharing
// scans.
type tracedNode struct {
	inner *wire.Client
	idx   int
	t     *tracer
}

var _ mediator.BatchNodeClient = (*tracedNode)(nil)

func (n *tracedNode) record(ctx context.Context, start int64, bd node.Breakdown, evaluated int) {
	id, ok := queryIDFrom(ctx)
	if !ok {
		return
	}
	s := span{start, n.t.now()}
	n.t.mu.Lock()
	defer n.t.mu.Unlock()
	e := n.t.execLocked(id)
	e.RPCs = append(e.RPCs, rpcRec{Node: n.idx, Span: s, Breakdown: bd, Evaluated: evaluated})
}

func (n *tracedNode) GetThreshold(ctx context.Context, p *sim.Proc, q query.Threshold) (*node.ThresholdResult, error) {
	start := n.t.now()
	r, err := n.inner.GetThreshold(ctx, p, q)
	if err == nil {
		n.record(ctx, start, r.Breakdown, evaluated(r))
	}
	return r, err
}

func (n *tracedNode) GetThresholdBatch(ctx context.Context, p *sim.Proc, qs []query.Threshold) (*node.ThresholdBatchResult, error) {
	start := n.t.now()
	r, err := n.inner.GetThresholdBatch(ctx, p, qs)
	if err == nil {
		var bd node.Breakdown
		points := 0
		for _, m := range r.Results {
			if m != nil && m.Breakdown.Total >= bd.Total {
				bd = m.Breakdown
			}
			points += evaluated(m)
		}
		n.record(ctx, start, bd, points)
	}
	return r, err
}

func (n *tracedNode) GetPDF(ctx context.Context, p *sim.Proc, q query.PDF) (*node.PDFResult, error) {
	start := n.t.now()
	r, err := n.inner.GetPDF(ctx, p, q)
	if err == nil {
		n.record(ctx, start, r.Breakdown, -1)
	}
	return r, err
}

func (n *tracedNode) GetTopK(ctx context.Context, p *sim.Proc, q query.TopK) (*node.TopKResult, error) {
	start := n.t.now()
	r, err := n.inner.GetTopK(ctx, p, q)
	if err == nil {
		n.record(ctx, start, r.Breakdown, len(r.Points))
	}
	return r, err
}

// evaluated counts the points of a threshold answer the node computed.
func evaluated(r *node.ThresholdResult) int {
	if r == nil || r.FromCache {
		return 0
	}
	return len(r.Points)
}

func (n *tracedNode) DropCacheEntry(ctx context.Context, fieldName string, order, step int) error {
	return n.inner.DropCacheEntry(ctx, fieldName, order, step)
}

func (n *tracedNode) SetProcesses(ctx context.Context, p int) error {
	return n.inner.SetProcesses(ctx, p)
}

func (n *tracedNode) Describe(ctx context.Context) (node.Description, error) {
	return n.inner.Describe(ctx)
}

// --- PeerFetcher around each node's halo exchange -------------------------

type tracedPeers struct {
	inner node.PeerFetcher
	idx   int
	t     *tracer
}

func (pf *tracedPeers) FetchAtoms(ctx context.Context, p *sim.Proc, rawField string, step int, codes []morton.Code) (map[morton.Code][]byte, error) {
	start := pf.t.now()
	blobs, err := pf.inner.FetchAtoms(ctx, p, rawField, step, codes)
	if id, ok := queryIDFrom(ctx); ok {
		s := span{start, pf.t.now()}
		pf.t.mu.Lock()
		k := nodeKey{id, pf.idx}
		pf.t.halos[k] = append(pf.t.halos[k], haloRec{Span: s, Atoms: len(codes)})
		pf.t.mu.Unlock()
	}
	return blobs, err
}

// --- analysis --------------------------------------------------------------

// layerSums accumulates per-layer figures over the traced queries.
type layerSums struct {
	queries, chained int
	// per-query times along the critical path, summed (ms)
	userClient, medServer, schedWait, medSelf, skew     float64
	nodeRPC, nodeOverhead, nodeServer, nodeTotal, unatt float64
	lookup, update, io, compute, halo                   float64
	// per-execution work, summed once per backend call
	userBytes, nodeBytes         int64
	haloAtoms, haloCalls         int
	atomsRead, examined          int
	usefulPoints, usefulExamined int
	computeNS                    int64
	shared, scansSaved, shed     int
	violations                   int
	firstViolation               string
}

// analyze checks span nesting for every traced query and sums each layer's
// self time along the query's critical path (the slowest node RPC).
func (t *tracer) analyze() layerSums {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ls layerSums
	violate := func(id uint64, what string) {
		ls.violations++
		if ls.firstViolation == "" {
			ls.firstViolation = fmt.Sprintf("query %d: %s", id, what)
		}
	}
	ids := make([]uint64, 0, len(t.queries))
	for id := range t.queries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	counted := make(map[uint64]bool)
	for _, id := range ids {
		q := t.queries[id]
		if !q.User.set() {
			continue // not a benchmark query
		}
		ls.queries++
		ls.userBytes += q.UserBytes
		if q.Shared {
			ls.shared++
		}
		ls.scansSaved += q.ScansSaved
		if q.Shed {
			ls.shed++
		}
		if q.Failed {
			continue
		}
		e := t.execs[q.Exec]
		switch {
		case !q.Handler.set() || !q.Querier.set():
			violate(id, "missing mediator handler or querier span")
			continue
		case q.Exec == 0 || e == nil || !e.Backend.set() || len(e.RPCs) == 0:
			violate(id, "not bound to a backend call with node RPCs")
			continue
		case !q.User.contains(q.Handler):
			violate(id, "mediator handler outside user call")
		case !q.Handler.contains(q.Querier):
			violate(id, "querier outside mediator handler")
		case !q.Querier.contains(e.Backend):
			violate(id, "backend outside querier")
		}
		crit, fastest := 0, 0
		for i, r := range e.RPCs {
			if !e.Backend.contains(r.Span) {
				violate(id, fmt.Sprintf("node %d RPC outside backend", r.Node))
			}
			if r.Span.ms() > e.RPCs[crit].Span.ms() {
				crit = i
			}
			if r.Span.ms() < e.RPCs[fastest].Span.ms() {
				fastest = i
			}
		}
		// Pair each RPC with the node handler span it contains.
		nodeHandler := make([]span, len(e.RPCs))
		for i, r := range e.RPCs {
			for _, h := range t.handlers[nodeKey{q.Exec, r.Node}] {
				if r.Span.contains(h) {
					nodeHandler[i] = h
				}
			}
			if !nodeHandler[i].set() {
				violate(id, fmt.Sprintf("node %d handler outside its RPC", r.Node))
			}
		}
		for n := 0; n < numNodes; n++ {
			k := nodeKey{q.Exec, n}
		halo:
			for _, h := range t.halos[k] {
				for _, hs := range t.handlers[k] {
					if hs.contains(h.Span) {
						continue halo
					}
				}
				violate(id, fmt.Sprintf("node %d halo fetch outside its handlers", k.node))
			}
		}
		c := e.RPCs[crit]
		bd := c.Breakdown
		ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
		ls.chained++
		ls.userClient += q.User.ms() - q.Handler.ms()
		ls.medServer += q.Handler.ms() - q.Querier.ms()
		ls.schedWait += q.Querier.ms() - e.Backend.ms()
		ls.medSelf += e.Backend.ms() - c.Span.ms()
		ls.skew += c.Span.ms() - e.RPCs[fastest].Span.ms()
		ls.nodeRPC += c.Span.ms()
		ls.nodeOverhead += c.Span.ms() - nodeHandler[crit].ms()
		ls.nodeServer += nodeHandler[crit].ms() - ms(bd.Total)
		ls.nodeTotal += ms(bd.Total)
		ls.unatt += ms(bd.Total - bd.CacheLookup - bd.IO - bd.Compute - bd.CacheUpdate)
		ls.lookup += ms(bd.CacheLookup)
		ls.update += ms(bd.CacheUpdate)
		ls.io += ms(bd.IO)
		ls.compute += ms(bd.Compute)
		for _, h := range t.halos[nodeKey{q.Exec, c.Node}] {
			ls.halo += h.Span.ms()
		}
		if counted[q.Exec] {
			continue
		}
		counted[q.Exec] = true
		ls.nodeBytes += e.NodeBytes
		for _, r := range e.RPCs {
			ls.atomsRead += r.Breakdown.AtomsRead
			ls.examined += r.Breakdown.PointsExamined
			if r.Evaluated >= 0 {
				ls.usefulPoints += r.Evaluated
				ls.usefulExamined += r.Breakdown.PointsExamined
			}
			ls.computeNS += int64(r.Breakdown.Compute)
			for _, h := range t.halos[nodeKey{q.Exec, r.Node}] {
				ls.haloAtoms += h.Atoms
				ls.haloCalls++
			}
		}
	}
	return ls
}
