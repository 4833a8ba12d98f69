// Command e2ebench is turbdb's end-to-end benchmark. One process builds the
// whole deployment on loopback HTTP — a synthetic MHD 64³ dataset sharded
// over two nodes, each served by wire.NewNodeServer with halo exchange
// through wire.NewPeerSet, and a mediator over wire clients behind the
// concurrent scheduler served by wire.NewQuerierServer — then drives one
// workload through a user-side wire.Client with closed-loop clients (each
// waits for its answer before sending the next query, like the analysis
// scripts that use the JHTDB) and checks every answer bit for bit against
// an in-process reference mediator without cache or scheduler.
//
// Usage:
//
//	e2ebench --workload cold-scan|dense-result|multi-tenant --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it runs
// the workload untraced and then again on a traced copy of the stack, and
// prints the per-layer metrics, the span-nesting check and the tracing
// overhead. The last line of standard output is a JSON object with the
// keys correct, attempted, failed and metrics. WORKLOADS.md records why
// each workload exists and which layers it loads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/turbdb/turbdb/internal/cache"
	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/query"
)

// dataSeed fixes the synthetic dataset, the database every workload
// queries; --seed draws the queries.
const dataSeed = 2015

// setupReps is how many times a --trace 0 run sets the stack up; setup_s
// is the median.
const setupReps = 3

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the dataset and the query stream")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if !slices.Contains(workloadNames, cfg.workload) || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = trace == 1
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run sets up, calibrates, drives and measures one workload.
func run(ctx context.Context, cfg config) (*result, error) {
	if err := oracleSelfTest(); err != nil {
		return nil, err
	}
	fmt.Printf("e2ebench: workload %s, seed %d, %d s timed, trace=%v, GOMAXPROCS=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0))

	// Set-up repetitions: all but the last are full set-ups, measured and
	// torn down. The last one is kept; threshold calibration and the
	// reference answers run between loading its data and serving it, and
	// are excluded from its set-up time.
	var setups, heaps []float64
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	for r := 0; r < reps-1; r++ {
		start := time.Now()
		ds, err := loadDataset(dataSeed)
		if err != nil {
			return nil, err
		}
		st, err := serve(ds, serveConfig{window: batchWindow})
		if err != nil {
			return nil, err
		}
		if err := firstQuery(ctx, st, ds); err != nil {
			st.close()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		heaps = append(heaps, liveHeapMB())
		st.close()
	}
	start := time.Now()
	ds, err := loadDataset(dataSeed)
	if err != nil {
		return nil, err
	}
	loaded := time.Since(start)
	sp, err := buildSpec(ctx, cfg.workload, cfg.seed, ds)
	if err != nil {
		return nil, err
	}
	for _, n := range sp.notes {
		fmt.Printf("  %s\n", n)
	}
	fmt.Printf("  %s\n", probeUnaligned(ctx, ds))
	start = time.Now()
	st, err := serve(ds, serveConfig{cacheCap: sp.cacheCap, window: batchWindow})
	if err != nil {
		return nil, err
	}
	if err := firstQuery(ctx, st, ds); err != nil {
		st.close()
		return nil, err
	}
	setups = append(setups, (loaded + time.Since(start)).Seconds())
	if len(heaps) == 0 {
		heaps = append(heaps, liveHeapMB())
	}

	// A traced run measures the workload twice, untraced for the overhead
	// baseline and traced, each for half the run length.
	timed := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		timed /= 2
	}
	var ids atomic.Uint64
	warm := drive(ctx, st, sp, nil, &ids, 0, sp.warmup, 0)
	c0 := st.cacheStats()
	plain := drive(ctx, st, sp, nil, &ids, sp.warmup, 0, timed)
	c1 := st.cacheStats()
	st.close()
	res := &result{
		Correct:   warm.failed == 0 && plain.failed == 0,
		Attempted: plain.attempted,
		Failed:    plain.failed,
	}
	e2e := endToEnd(plain, median(setups), median(heaps))
	fmt.Printf("end-to-end (untraced, %d completed of %d attempted, %.2f s):\n", len(plain.lat), plain.attempted, plain.elapsed.Seconds())
	printMetrics(e2e)
	fmt.Printf("  setup_s is the median of %d set-ups %v; latency_tail_ms is p%g with %d samples beyond it\n",
		len(setups), setups, plain.tailPct(), plain.tailBeyond())
	fmt.Printf("  latency quantiles p10/p25/p50/p75/p90/p95/p99: %.3g/%.3g/%.3g/%.3g/%.3g/%.3g/%.3g ms\n",
		plain.pct(10), plain.pct(25), plain.pct(50), plain.pct(75), plain.pct(90), plain.pct(95), plain.pct(99))
	fmt.Printf("  node caches during the timed phase: %d hits, %d misses, %d stores, %d evictions\n",
		c1.Hits-c0.Hits, c1.Misses-c0.Misses, c1.Stores-c0.Stores, c1.Evictions-c0.Evictions)
	fmt.Printf("  error_rate %g (%d failed of %d attempted; warm-up %d failed of %d)\n",
		float64(plain.failed)/float64(max(plain.attempted, 1)), plain.failed, plain.attempted, warm.failed, warm.attempted)
	for _, p := range []phase{warm, plain} {
		if p.firstErr != "" {
			fmt.Printf("  first failure: %s\n", p.firstErr)
		}
	}
	if !cfg.trace {
		res.Metrics = e2e
		return res, nil
	}

	tr := newTracer(ds.grid.Domain())
	tst, err := serve(ds, serveConfig{cacheCap: sp.cacheCap, window: batchWindow, tr: tr})
	if err != nil {
		return nil, err
	}
	before := tst.cacheStats()
	var gcBefore runtime.MemStats
	runtime.ReadMemStats(&gcBefore)
	twarm := drive(ctx, tst, sp, tr, &ids, 0, sp.warmup, 0)
	traced := drive(ctx, tst, sp, tr, &ids, sp.warmup, 0, timed)
	var gcAfter runtime.MemStats
	runtime.ReadMemStats(&gcAfter)
	after := tst.cacheStats()
	tst.close()

	ls := tr.analyze()
	per := perLayer(ls, before, after, gcAfter.NumGC-gcBefore.NumGC)
	tre := endToEnd(traced, 0, 0)
	delete(tre, "setup_s")
	delete(tre, "setup_heap_mb")
	per["trace.overhead_p50_ms"] = metric{tre["latency_p50_ms"].Value - e2e["latency_p50_ms"].Value, "ms"}
	per["trace.overhead_cpu_ms_per_query"] = metric{tre["cpu_ms_per_query"].Value - e2e["cpu_ms_per_query"].Value, "ms"}
	fmt.Printf("end-to-end (traced, %d completed of %d attempted):\n", len(traced.lat), traced.attempted)
	printMetrics(tre)
	fmt.Printf("tracing overhead: p50 %+.3f ms, tail %+.3f ms, cpu %+.3f ms/query, throughput %+.2f 1/s\n",
		per["trace.overhead_p50_ms"].Value, tre["latency_tail_ms"].Value-e2e["latency_tail_ms"].Value,
		per["trace.overhead_cpu_ms_per_query"].Value, tre["throughput_qps"].Value-e2e["throughput_qps"].Value)
	printLayers(ls)
	fmt.Println("per-layer metrics (traced run, warm-up included):")
	printMetrics(per)
	if err := writeTrace(tr, cfg); err != nil {
		return nil, err
	}

	for _, p := range []phase{twarm, traced} {
		if p.firstErr != "" {
			fmt.Printf("  first traced failure: %s\n", p.firstErr)
		}
	}
	res.Correct = res.Correct && twarm.failed == 0 && traced.failed == 0 && ls.violations == 0
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	res.Metrics = per
	return res, nil
}

// firstQuery is the query that ends set-up: a raw-field threshold over one
// atom, through the whole stack. Its field is one no workload queries, so
// the cache entry it leaves changes no workload's hits.
func firstQuery(ctx context.Context, st *stack, ds *dataset) error {
	side := ds.grid.AtomSide
	q := query.Threshold{Dataset: ds.name, Field: derived.Magnetic, Box: grid.Box{Hi: grid.Point{X: side, Y: side, Z: side}}}
	pts, _, err := st.user.ThresholdStats(ctx, q, false)
	if err != nil {
		return fmt.Errorf("first query: %w", err)
	}
	if len(pts) != side*side*side {
		return fmt.Errorf("first query: %d points, want %d", len(pts), side*side*side)
	}
	return nil
}

// phase is the outcome of driving part of a stream.
type phase struct {
	lat               []time.Duration // completed, correct queries
	attempted, failed int
	elapsed           time.Duration
	cpu               time.Duration
	alloc             uint64
	firstErr          string
}

// drive replays the stream from index from with sp.clients closed-loop
// clients, for n ops (n > 0) or until dur has passed. With tr set, every
// query carries a fresh ID and its user span is recorded.
func drive(ctx context.Context, st *stack, sp *spec, tr *tracer, ids *atomic.Uint64, from, n int, dur time.Duration) phase {
	var next atomic.Int64
	next.Store(int64(from))
	var mu sync.Mutex
	var out phase
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < sp.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []time.Duration
			attempted, failed := 0, 0
			firstErr := ""
			for {
				i := int(next.Add(1)) - 1
				if (n > 0 && i >= from+n) || (n == 0 && !time.Now().Before(deadline)) {
					break
				}
				o := sp.stream[i%len(sp.stream)]
				attempted++
				err := runOp(ctx, st, sp, tr, ids, o, n == 0, &lat)
				if err != nil {
					failed++
					if firstErr == "" {
						firstErr = fmt.Sprintf("%s op %d: %v", o.kind, i, err)
					}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			out.lat = append(out.lat, lat...)
			out.attempted += attempted
			out.failed += failed
			if out.firstErr == "" {
				out.firstErr = firstErr
			}
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	out.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	out.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	sort.Slice(out.lat, func(i, j int) bool { return out.lat[i] < out.lat[j] })
	return out
}

// runOp sends one op and checks its answer; a correct answer's latency is
// appended to lat.
func runOp(ctx context.Context, st *stack, sp *spec, tr *tracer, ids *atomic.Uint64, o *op, timed bool, lat *[]time.Duration) error {
	if sp.coldField != "" {
		if err := st.dropCaches(ctx, sp.coldField); err != nil {
			return err
		}
	}
	qctx := ctx
	var id uint64
	var s span
	if tr != nil {
		id = ids.Add(1)
		qctx = withQueryID(ctx, id)
		s.Start = tr.now()
	}
	t0 := time.Now()
	got, err := o.call(qctx, st.user)
	d := time.Since(t0)
	if err == nil {
		err = o.want.diff(got)
	}
	if tr != nil {
		s.End = tr.now()
		tr.userCall(id, o.kind.String(), timed, s, len(got.points), err != nil)
	}
	if err != nil {
		return err
	}
	*lat = append(*lat, d)
	return nil
}

// tailPercentiles are the candidates for latency_tail_ms.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// rank returns the nearest-rank index of percentile p in n samples.
func rank(p float64, n int) int { return max(0, int(math.Ceil(p/100*float64(n)))-1) }

// tailPct is the highest candidate percentile with at least ten samples
// beyond it.
func (p phase) tailPct() float64 {
	best := tailPercentiles[0]
	for _, pct := range tailPercentiles {
		if len(p.lat)-1-rank(pct, len(p.lat)) >= 10 {
			best = pct
		}
	}
	return best
}

func (p phase) tailBeyond() int { return len(p.lat) - 1 - rank(p.tailPct(), len(p.lat)) }

func (p phase) pct(pct float64) float64 {
	if len(p.lat) == 0 {
		return 0
	}
	return float64(p.lat[rank(pct, len(p.lat))]) / 1e6
}

// endToEnd computes the user-visible metrics of a timed phase.
func endToEnd(p phase, setupS, heapMB float64) map[string]metric {
	done := float64(max(len(p.lat), 1))
	m := map[string]metric{
		"latency_p50_ms":     {p.pct(50), "ms"},
		"latency_tail_ms":    {p.pct(p.tailPct()), "ms"},
		"throughput_qps":     {float64(len(p.lat)) / p.elapsed.Seconds(), "1/s"},
		"cpu_ms_per_query":   {float64(p.cpu) / 1e6 / done, "ms"},
		"alloc_mb_per_query": {float64(p.alloc) / (1 << 20) / done, "MB"},
		"setup_s":            {setupS, "s"},
		"setup_heap_mb":      {heapMB, "MB"},
	}
	return m
}

// perLayer turns the trace sums into the per-layer metrics: times are means
// per traced query along its critical path, counts are per query.
func perLayer(ls layerSums, before, after cache.Stats, gcCycles uint32) map[string]metric {
	q := float64(max(ls.queries, 1))
	c := float64(max(ls.chained, 1))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	hits := float64(after.Hits - before.Hits)
	lookups := hits + float64(after.Misses-before.Misses)
	return map[string]metric{
		"wire.user_bytes_per_query":         {float64(ls.userBytes) / q, "bytes"},
		"wire.user_client_ms":               {ls.userClient / c, "ms"},
		"wire.mediator_server_ms":           {ls.medServer / c, "ms"},
		"wire.node_server_ms":               {ls.nodeServer / c, "ms"},
		"wire.node_rpc_ms":                  {ls.nodeRPC / c, "ms"},
		"wire.node_overhead_ms":             {ls.nodeOverhead / c, "ms"},
		"wire.node_bytes_per_query":         {float64(ls.nodeBytes) / q, "bytes"},
		"wire.halo_fetch_ms":                {ls.halo / c, "ms"},
		"wire.halo_atoms_per_query":         {float64(ls.haloAtoms) / q, "count"},
		"wire.halo_calls_per_query":         {float64(ls.haloCalls) / q, "count"},
		"sched.wait_ms":                     {ls.schedWait / c, "ms"},
		"sched.shared_share":                {float64(ls.shared) / q, "ratio"},
		"sched.scans_saved_per_query":       {float64(ls.scansSaved) / q, "count"},
		"sched.shed_share":                  {float64(ls.shed) / q, "ratio"},
		"mediator.self_ms":                  {ls.medSelf / c, "ms"},
		"mediator.fanout_skew_ms":           {ls.skew / c, "ms"},
		"node.total_ms":                     {ls.nodeTotal / c, "ms"},
		"node.unattributed_ms":              {ls.unatt / c, "ms"},
		"cache.lookup_ms":                   {ls.lookup / c, "ms"},
		"cache.update_ms":                   {ls.update / c, "ms"},
		"cache.hit_ratio":                   {ratio(hits, lookups), "ratio"},
		"cache.evictions_per_query":         {float64(after.Evictions-before.Evictions) / q, "count"},
		"store.io_ms":                       {ls.io / c, "ms"},
		"store.atoms_read_per_query":        {float64(ls.atomsRead) / q, "count"},
		"derived.compute_ms":                {ls.compute / c, "ms"},
		"derived.points_examined_per_query": {float64(ls.examined) / q, "count"},
		"derived.ns_per_point":              {ratio(float64(ls.computeNS), float64(ls.examined)), "ns"},
		"derived.useful_ratio":              {ratio(float64(ls.usefulPoints), float64(ls.usefulExamined)), "ratio"},
		"runtime.gc_cycles_per_query":       {float64(gcCycles) / q, "count"},
	}
}

// printLayers prints the span-nesting result and each layer's mean self
// time along the critical path, down to the node time its Breakdown leaves
// unattributed.
func printLayers(ls layerSums) {
	if ls.violations == 0 {
		fmt.Printf("span nesting: all %d traced queries nest (user ⊇ mediator handler ⊇ querier ⊇ backend ⊇ node RPC ⊇ node handler ⊇ halo fetch)\n", ls.chained)
	} else {
		fmt.Printf("span nesting: %d violations; first: %s\n", ls.violations, ls.firstViolation)
	}
	c := float64(max(ls.chained, 1))
	rows := []struct {
		layer string
		ms    float64
	}{
		{"user client (call - mediator handler)", ls.userClient},
		{"mediator server (handler - querier)", ls.medServer},
		{"scheduler wait (querier - backend)", ls.schedWait},
		{"mediator self (backend - slowest node RPC)", ls.medSelf},
		{"node RPC overhead (RPC - node handler)", ls.nodeOverhead},
		{"node server (handler - Breakdown.Total)", ls.nodeServer},
		{"node cache lookup", ls.lookup},
		{"node I/O (local atoms + halo fetch)", ls.io},
		{"node compute", ls.compute},
		{"node cache update", ls.update},
		{"node unattributed (Total - named phases)", ls.unatt},
	}
	fmt.Println("self time per query along the critical path (mean ms):")
	sum := 0.0
	for _, r := range rows {
		fmt.Printf("  %-46s %9.3f\n", r.layer, r.ms/c)
		sum += r.ms
	}
	fmt.Printf("  %-46s %9.3f\n", "sum = user call", sum/c)
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// writeTrace writes every recorded span to .bench_build in the working
// directory.
func writeTrace(tr *tracer, cfg config) error {
	tr.mu.Lock()
	data, err := json.Marshal(struct {
		Queries map[uint64]*queryRec `json:"queries"`
		Execs   map[uint64]*execRec  `json:"execs"`
	}{tr.queries, tr.execs})
	tr.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	path := filepath.Join(".bench_build", fmt.Sprintf("e2ebench-trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("spans written to %s\n", path)
	return nil
}

// oracleSelfTest feeds one perturbed answer of each kind to the answer
// check and fails unless every perturbation is caught.
func oracleSelfTest() error {
	want := answer{points: []query.ResultPoint{{Code: 7, Value: 1.5}, {Code: 9, Value: 2.25}}}
	bent := answer{points: slices.Clone(want.points)}
	bent.points[1].Value = math.Float32frombits(math.Float32bits(bent.points[1].Value) ^ 1)
	pdf := answer{counts: []int64{3, 0, 1}}
	cases := []struct{ want, got answer }{
		{want, bent},
		{want, answer{points: want.points[:1]}},
		{pdf, answer{counts: []int64{3, 1, 1}}},
	}
	for i, c := range cases {
		if c.want.diff(c.got) == nil {
			return fmt.Errorf("answer check self-test %d: perturbed answer not caught", i)
		}
	}
	if want.diff(answer{points: slices.Clone(want.points)}) != nil {
		return fmt.Errorf("answer check self-test: identical answer rejected")
	}
	return nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// liveHeapMB is the live Go heap after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// processCPU is the process's user + system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
