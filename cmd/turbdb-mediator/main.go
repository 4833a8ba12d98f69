// Command turbdb-mediator runs the front-end Web-server of the analysis
// cluster: it fans user queries out to the database nodes, assembles the
// distributed results, and serves the user-facing API (the role of the
// mediator in the paper's Fig. 1).
//
// Usage:
//
//	turbdb-mediator -addr :7080 \
//	    -nodes http://127.0.0.1:7070,http://127.0.0.1:7071
//
// -allow-partial answers from the surviving nodes when one stays
// unreachable after retries, annotating responses with the coverage of
// the Morton space actually scanned; the default is strict all-or-
// nothing. SIGINT/SIGTERM drain in-flight queries for -drain, then cancel
// them.
//
// Replica failover is always on: the mediator learns which node holds which
// ranges from each service's /info (nodes started with -replica-shards
// advertise their replica holdings) and re-routes a dead primary's ranges
// to live replicas — partial answers become a last resort reserved for
// ranges with every holder down. -replicas k only checks at startup that
// every range has at least k holders.
//
// The concurrent query scheduler (on by default, -sched=false for the bare
// mediator) adds admission control and shared-scan batching in front of the
// fan-out: -sched-concurrent caps in-flight queries, -sched-window sets the
// batching window merging concurrent threshold queries over the same
// (field, order, step) into one node pass, and -sched-pools carves
// per-tenant resource pools, e.g.
//
//	-sched-pools 'viz=8:32:10,batch=4:16:0'
//
// giving tenant "viz" 8 running slots, a 32-query queue and priority 10.
// Queries name their tenant in the request's "tenant" field; over-quota
// arrivals are shed with HTTP 429.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/sched"
	"github.com/turbdb/turbdb/internal/wire"
)

// parsePools parses -sched-pools: comma-separated name=running:queued:prio
// entries (any numeric part may be left empty for the default).
func parsePools(spec string) (map[string]sched.Pool, error) {
	if spec == "" {
		return nil, nil
	}
	pools := make(map[string]sched.Pool)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		name, rest, ok := strings.Cut(entry, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("pool %q: want name=running:queued:priority", entry)
		}
		parts := strings.Split(rest, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("pool %q: want name=running:queued:priority", entry)
		}
		var p sched.Pool
		for i, dst := range []*int{&p.MaxRunning, &p.MaxQueued, &p.Priority} {
			if parts[i] == "" {
				continue
			}
			if _, err := fmt.Sscanf(parts[i], "%d", dst); err != nil {
				return nil, fmt.Errorf("pool %q: bad number %q", entry, parts[i])
			}
		}
		pools[name] = p
	}
	return pools, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("turbdb-mediator: ")

	var (
		addr    = flag.String("addr", ":7080", "listen address")
		nodes   = flag.String("nodes", "", "comma-separated URLs of the node services (required)")
		partial = flag.Bool("allow-partial", false, "answer from surviving nodes when a node is unreachable (responses carry coverage)")
		repl    = flag.Int("replicas", 1, "required holders of every range, checked at startup against the nodes' advertised holdings")
		connTO  = flag.Duration("connect-timeout", 30*time.Second, "deadline for contacting every node at startup")
		drain   = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline")
		dbgAddr = flag.String("debug-addr", "", "serve net/http/pprof on this address (off by default)")

		jsonOnly  = flag.Bool("json-only", false, "answer every response as JSON, ignoring binary-frame negotiation (debug/compat)")
		nodeProto = flag.String("node-proto", "json", `response encoding negotiated with the node services: "json" or "frame"`)

		schedOn    = flag.Bool("sched", true, "run the concurrent query scheduler (admission control + shared-scan batching)")
		schedConc  = flag.Int("sched-concurrent", 0, "global concurrent-query cap (0 = 4×GOMAXPROCS)")
		schedWin   = flag.Duration("sched-window", 2*time.Millisecond, "shared-scan batching window (0 disables batching)")
		schedQueue = flag.Int("sched-queue", 0, "default per-tenant queue quota before shedding (0 = built-in default)")
		schedPools = flag.String("sched-pools", "", "per-tenant pools, name=running:queued:priority[,...]")
	)
	flag.Parse()
	if *nodes == "" {
		flag.Usage()
		os.Exit(2)
	}

	nproto, err := wire.ParseProto(*nodeProto)
	if err != nil {
		log.Fatal(err)
	}
	var clients []mediator.NodeClient
	for _, url := range strings.Split(*nodes, ",") {
		clients = append(clients, wire.NewClient(strings.TrimSpace(url), wire.WithProto(nproto)))
	}

	ctx, cancel := context.WithTimeout(context.Background(), *connTO)
	m, err := mediator.New(mediator.Config{
		Nodes: clients, AllowPartial: *partial, DescribeCtx: ctx,
	})
	cancel()
	if err != nil {
		log.Fatal(err)
	}
	topo := m.Topology()
	for i, owners := range topo.Owners {
		if len(owners) < *repl {
			log.Fatalf("range %v has %d holders, need %d — start the nodes with -replica-shards", topo.Ranges[i], len(owners), *repl)
		}
	}
	var srvOpts []wire.ServerOption
	if *jsonOnly {
		srvOpts = append(srvOpts, wire.WithJSONOnly())
	}
	handler := wire.NewMediatorServer(m, srvOpts...).Handler()
	var s *sched.Scheduler
	if *schedOn {
		pools, err := parsePools(*schedPools)
		if err != nil {
			log.Fatal(err)
		}
		s, err = sched.New(m, sched.Config{
			MaxConcurrent: *schedConc,
			DefaultPool:   sched.Pool{MaxQueued: *schedQueue},
			Pools:         pools,
			BatchWindow:   *schedWin,
		})
		if err != nil {
			log.Fatal(err)
		}
		handler = wire.NewQuerierServer(s, srvOpts...).Handler()
	}
	fmt.Printf("mediator for %s (%d nodes, %d³ grid, partial=%v, replicas=%d, sched=%v) on %s\n",
		m.Dataset(), len(clients), m.Grid().N, *partial, *repl, *schedOn, *addr)
	srv := &http.Server{Addr: *addr, Handler: handler}
	err = wire.RunDaemon(context.Background(), wire.DaemonConfig{
		Server: srv, DebugAddr: *dbgAddr, Drain: *drain,
	})
	if s != nil {
		s.Close()
	}
	if err != nil {
		log.Fatal(err)
	}
}
