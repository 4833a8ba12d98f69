package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"github.com/turbdb/turbdb/internal/cache"
	"github.com/turbdb/turbdb/internal/cluster"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sched"
	"github.com/turbdb/turbdb/internal/store"
	"github.com/turbdb/turbdb/internal/synth"
	"github.com/turbdb/turbdb/internal/wire"
)

// Cluster shape and the settings the shipped daemons run with.
const (
	gridN       = 64
	numNodes    = 2
	processes   = 1                    // turbdb-server -processes default
	batchWindow = 2 * time.Millisecond // turbdb-mediator -sched-window default
)

// dataset is the synthetic MHD dataset ingested into one store per node,
// with the reference mediator over those stores.
type dataset struct {
	name   string
	grid   grid.Grid
	stores []*store.Store
	// oracle is the in-process mediator cluster.Build assembles: no cache,
	// no scheduler, halos fetched from the other in-process node. Every
	// reference answer comes from it.
	oracle *mediator.Mediator
}

// loadDataset synthesizes the dataset and ingests it, sharded along the
// Morton curve like the production partitioning.
func loadDataset(seed int64) (*dataset, error) {
	gen, err := synth.New(synth.Params{N: gridN, Seed: seed, Kind: synth.MHD, Steps: 1})
	if err != nil {
		return nil, err
	}
	c, err := cluster.Build(gen, cluster.Config{Nodes: numNodes, Processes: processes})
	if err != nil {
		return nil, err
	}
	ds := &dataset{name: gen.Name(), grid: gen.Grid(), oracle: c.Mediator}
	for _, n := range c.Nodes() {
		ds.stores = append(ds.stores, n.Store())
	}
	return ds, nil
}

// stack is one running deployment over a dataset: every node served by
// wire.NewNodeServer on loopback HTTP with halo exchange through
// wire.NewPeerSet, a mediator over wire clients behind the scheduler served
// by wire.NewQuerierServer, and the user's wire.Client.
type stack struct {
	nodes   []*node.Node
	user    *wire.Client
	sched   *sched.Scheduler
	servers []*http.Server
	wg      sync.WaitGroup
}

// serveConfig selects what a stack changes from the daemons' defaults.
type serveConfig struct {
	cacheCap int64         // node cache capacity in bytes; 0 = unlimited
	window   time.Duration // scheduler batching window
	tr       *tracer       // nil = untraced
}

// serve starts a stack over ds. The node listeners are bound before any
// node server starts, so the peer sets are installed before a request can
// arrive.
func serve(ds *dataset, cfg serveConfig) (*stack, error) {
	s := &stack{}
	tr := cfg.tr
	urls := make([]string, len(ds.stores))
	lns := make([]net.Listener, len(ds.stores))
	fail := func(err error) (*stack, error) {
		for _, ln := range lns {
			if ln != nil {
				_ = ln.Close() //lint:allow droppederr set-up already failed; a served listener is closed again by Shutdown
			}
		}
		s.close()
		return nil, err
	}
	for i, st := range ds.stores {
		ca, err := cache.New(cache.Config{CapacityBytes: cfg.cacheCap})
		if err != nil {
			return fail(err)
		}
		n, err := node.New(node.Config{ID: i, Dataset: ds.name, Store: st, Cache: ca, Processes: processes})
		if err != nil {
			return fail(err)
		}
		s.nodes = append(s.nodes, n)
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return fail(err)
		}
		urls[i] = "http://" + lns[i].Addr().String()
	}
	peers := make([]*wire.Client, len(urls))
	for i, u := range urls {
		peers[i] = wire.NewClient(u)
	}
	var nodeOpts, userOpts []wire.ClientOption
	if tr != nil {
		nodeOpts = append(nodeOpts, wire.WithTransport(tr.transport(hopNode)))
		userOpts = append(userOpts, wire.WithTransport(tr.transport(hopUser)))
	}
	clients := make([]mediator.NodeClient, len(urls))
	for i, n := range s.nodes {
		var pf node.PeerFetcher = wire.NewPeerSet(peers, i)
		var h http.Handler = wire.NewNodeServer(n).Handler()
		wc := wire.NewClient(urls[i], nodeOpts...)
		clients[i] = wc
		if tr != nil {
			pf = &tracedPeers{inner: pf, idx: i, t: tr}
			h = tr.handler(i, h)
			clients[i] = &tracedNode{inner: wc, idx: i, t: tr}
		}
		n.SetPeers(pf)
		s.start(lns[i], h)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	m, err := mediator.New(mediator.Config{Nodes: clients, DescribeCtx: ctx})
	cancel()
	if err != nil {
		return fail(err)
	}
	var backend sched.Backend = m
	if tr != nil {
		backend = &tracedBackend{inner: m, t: tr}
	}
	if s.sched, err = sched.New(backend, sched.Config{BatchWindow: cfg.window}); err != nil {
		return fail(err)
	}
	var q wire.Querier = s.sched
	if tr != nil {
		q = &tracedQuerier{inner: s.sched, t: tr}
	}
	var mh http.Handler = wire.NewQuerierServer(q).Handler()
	if tr != nil {
		mh = tr.handler(-1, mh)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	s.start(ln, mh)
	s.user = wire.NewClient("http://"+ln.Addr().String(), userOpts...)
	return s, nil
}

// start serves h on ln until close.
func (s *stack) start(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h}
	s.servers = append(s.servers, srv)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "e2ebench: server %s: %v\n", ln.Addr(), err)
		}
	}()
}

// close stops the scheduler and every server, and waits for the serve
// goroutines to exit.
func (s *stack) close() {
	if s.sched != nil {
		s.sched.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range s.servers {
		if err := srv.Shutdown(ctx); err != nil {
			_ = srv.Close() //lint:allow droppederr the shutdown deadline passed; closing is the last resort
		}
	}
	s.wg.Wait()
}

// dropCaches empties the threshold cache entries of field on every node.
func (s *stack) dropCaches(ctx context.Context, field string) error {
	for _, n := range s.nodes {
		if err := n.DropCacheEntry(ctx, field, query.DefaultFDOrder, 0); err != nil {
			return err
		}
	}
	return nil
}

// cacheStats sums the nodes' cache counters.
func (s *stack) cacheStats() cache.Stats {
	var out cache.Stats
	for _, n := range s.nodes {
		st := n.Cache().Stats()
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Stores += st.Stores
		out.Evictions += st.Evictions
	}
	return out
}
