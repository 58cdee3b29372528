package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"marketscope/internal/analysis"
	"marketscope/internal/appmeta"
	"marketscope/internal/crawler"
	"marketscope/internal/durable"
	"marketscope/internal/ingest"
	"marketscope/internal/market"
	"marketscope/internal/query"
	"marketscope/internal/synth"
)

// The ingest corpus: a fixed-size sample of a 360-app ecosystem, so every
// seed ingests the same number of listings. The set-up batch is loaded
// before the clock; the rest arrives as small deltas with their APK bytes
// while a reader queries.
const (
	ingestApps          = 360
	ingestDeltas        = 35  // POSTed deltas per cycle
	ingestDelta         = 3   // listings per delta
	ingestBase          = 195 // listings in the set-up batch
	ingestSnapshotEvery = 16  // cadence snapshot every this many applied deltas
	ingestMinCycles     = 3
	ingestMaxCycles     = 12
	spanHeader          = "X-Bench-Span"
)

// ingestReads is the reader's fixed mix over the enriched corpus: every field
// group the detectors fill, so each epoch swap makes the engine recompute.
func ingestReads() []request {
	flagged := query.Filter{Field: "flagged_malware", Op: query.OpEq, Value: true}
	return []request{
		scanReq(query.Query{Fields: []string{"market", "package", "av_positives", "av_family"},
			Filters: []query.Filter{flagged}, Sort: []query.SortKey{{Field: "av_positives", Desc: true}, {Field: "package"}, {Field: "market"}}, Limit: 20}),
		scanReq(query.Query{Fields: []string{"market", "package", "downloads"},
			Filters: []query.Filter{{Field: "downloads", Op: query.OpGe, Value: 1000000}},
			Sort:    []query.SortKey{{Field: "downloads", Desc: true}, {Field: "package"}, {Field: "market"}}, Limit: 25}),
		scanReq(query.Query{Fields: []string{"package", "market", "permissions_unused"},
			Filters: []query.Filter{{Field: "over_privileged", Op: query.OpEq, Value: true}},
			Sort:    []query.SortKey{{Field: "permissions_unused", Desc: true}, {Field: "package"}, {Field: "market"}}, Limit: 20}),
		aggReq(query.Aggregate{GroupBy: []string{"market"}, Aggregates: []query.AggSpec{
			{Op: query.AggCount}, {Op: query.AggMean, Field: "library_count"},
			{Op: query.AggShare, Where: []query.Filter{flagged}, As: "flagged_share"}}}),
		aggReq(query.Aggregate{GroupBy: []string{"category"}, Aggregates: []query.AggSpec{{Op: query.AggCount}},
			Sort: []query.SortKey{{Field: "count", Desc: true}, {Field: "category"}}, Limit: 10}),
		aggReq(query.Aggregate{Aggregates: []query.AggSpec{
			{Op: query.AggCount}, {Op: query.AggDistinct, Field: "developer_id"}, {Op: query.AggMax, Field: "av_positives"}}}),
		aggReq(query.Aggregate{GroupBy: []string{"market_type"}, Aggregates: []query.AggSpec{
			{Op: query.AggTopK, Field: "av_family", K: 5}, {Op: query.AggMean, Field: "min_sdk"}}}),
	}
}

// ingestProbes are the answers compared across the restart and against the
// cold build: the read mix plus an order-sensitive dump of every listing.
func ingestProbes() []request {
	dump := scanReq(query.Query{Fields: []string{"market", "package", "av_positives", "flagged_malware", "library_count", "permissions_unused", "developer_id"}})
	return append(ingestReads(), dump)
}

// ingestCorpus is the sample split into the set-up batch and the POSTed
// deltas, in the canonical (market, package) order the ingestor normalizes
// to, so the incremental dataset has the cold build's row order.
type ingestCorpus struct {
	crawlTime time.Time
	records   []appmeta.Record
	snap      *crawler.Snapshot
	base      []ingest.Listing
	deltas    [][]ingest.Listing
}

func newIngestCorpus(seed uint64) (*ingestCorpus, error) {
	scfg := synth.DefaultConfig()
	scfg.Seed = seed
	scfg.NumApps = ingestApps
	scfg.NumDevelopers = ingestApps * 35 / 100
	eco, err := synth.Generate(scfg)
	if err != nil {
		return nil, err
	}
	stores, err := eco.Populate()
	if err != nil {
		return nil, err
	}
	snap, err := crawler.SnapshotFromStores(stores, true, scfg.CrawlDate)
	if err != nil {
		return nil, err
	}
	// A seeded sample of fixed size, kept in canonical (market, package)
	// order.
	records := snap.Records()
	want := ingestBase + ingestDeltas*ingestDelta
	if len(records) < want {
		return nil, fmt.Errorf("ingest corpus has %d listings, need %d", len(records), want)
	}
	rng := rand.New(rand.NewPCG(seed, 0))
	rng.Shuffle(len(records), func(i, j int) { records[i], records[j] = records[j], records[i] })
	records = records[:want]
	sort.Slice(records, func(i, j int) bool {
		if records[i].Market != records[j].Market {
			return records[i].Market < records[j].Market
		}
		return records[i].Package < records[j].Package
	})
	c := &ingestCorpus{crawlTime: scfg.CrawlDate, records: records, snap: snap}
	for i, rec := range records {
		l := ingest.Listing{Record: rec}
		l.APK, _ = snap.APK(rec.Key())
		if i < ingestBase {
			c.base = append(c.base, l)
			continue
		}
		if (i-ingestBase)%ingestDelta == 0 {
			c.deltas = append(c.deltas, nil)
		}
		c.deltas[len(c.deltas)-1] = append(c.deltas[len(c.deltas)-1], l)
	}
	return c, nil
}

// ingestServer is the live analysis server: a durable store behind
// /api/ingest and the query routes, on a loopback port.
type ingestServer struct {
	store *durable.Store
	srv   *market.Server
	http  *server
}

func (s *ingestServer) close() error {
	if s == nil {
		return nil
	}
	s.http.stop()
	return s.store.Close()
}

// ingestProbe collects what the traced run sees at the program's own
// interfaces: the applier handed to ingest.Handler and the Publish hook.
type ingestProbe struct {
	t          *tracer
	fs         *tracedFS
	mu         sync.Mutex
	bySeq      map[uint64]float64 // this cycle's apply times by delta sequence
	apply      []float64          // every paired apply time
	swaps      []float64
	keptSwaps  int
	lastSwap   time.Time
	redetected int
	prior      int
	sealed     int
	deltas     int
	snapTime   time.Duration
}

// resetApplies starts a cycle's write phase: the per-sequence apply times
// of the set-up batch and of earlier cycles are moved out of the way.
func (p *ingestProbe) resetApplies() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.bySeq = map[uint64]float64{}
	p.swaps = p.swaps[:p.keptSwaps]
}

// resetTotals forgets what the warm-up cycle recorded.
func (p *ingestProbe) resetTotals() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.apply, p.swaps, p.keptSwaps = nil, nil, 0
	p.redetected, p.prior, p.sealed, p.deltas = 0, 0, 0, 0
	p.snapTime = 0
}

// handlerTimes pairs the cycle's acks with their applies: the time an ack
// spent outside Store.Apply.
func (p *ingestProbe) handlerTimes(acks map[uint64]float64) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []float64
	for seq, a := range p.bySeq {
		if ack, ok := acks[seq]; ok {
			out = append(out, ack-a)
			p.apply = append(p.apply, a)
		}
	}
	p.keptSwaps = len(p.swaps)
	return out
}

// tracedApplier wraps the store where ingest.Handler sees it.
type tracedApplier struct {
	*durable.Store
	p *ingestProbe
}

func (a tracedApplier) Apply(d ingest.Delta) (ingest.Result, error) {
	p := a.p
	id := p.t.begin("durable.apply", p.t.ambientSpan(), d.Seq)
	prev := p.t.setAmbient(id)
	snaps := p.fs.c.snapshotRenames.Load()
	res, err := a.Store.Apply(d)
	end := time.Now()
	p.t.setAmbient(prev)
	dur := p.t.end(id)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.bySeq[d.Seq] = ms(dur)
	if err == nil && res.Applied {
		p.deltas++
		p.redetected += res.Redetected
		p.prior += res.Listings - res.Added
		if res.Sealed {
			p.sealed++
		}
		// A cadence snapshot runs inside Apply after the epoch is published.
		if p.fs.c.snapshotRenames.Load() != snaps {
			p.snapTime += end.Sub(p.lastSwap)
		}
	}
	return res, err
}

// publish wraps the Publish hook (the epoch swap into the server).
func (p *ingestProbe) publish(swap func(*analysis.Dataset)) func(*analysis.Dataset) {
	return func(d *analysis.Dataset) {
		id := p.t.begin("market.swap", p.t.ambientSpan(), 0)
		swap(d)
		dur := p.t.end(id)
		p.mu.Lock()
		p.swaps = append(p.swaps, ms(dur))
		p.lastSwap = time.Now()
		p.mu.Unlock()
	}
}

// startIngestServer opens a fresh store in dir, loads the set-up batch and
// serves it. The restart later reopens the directory with default options
// instead (no cadence snapshots).
func startIngestServer(dir string, c *ingestCorpus, probe *ingestProbe) (*ingestServer, error) {
	s := &ingestServer{srv: market.NewServer(market.NewStore(market.Profile{Name: "analysis"}))}
	opts := durable.Options{
		Dir:           dir,
		Fsync:         durable.FsyncAlways,
		SnapshotEvery: ingestSnapshotEvery,
		Ingest: ingest.Options{
			Enrich:    analysis.DefaultEnrichOptions(),
			CrawlTime: c.crawlTime,
			Publish:   func(d *analysis.Dataset) { s.srv.SwapSource(d.QuerySource()) },
		},
	}
	if probe != nil {
		opts.Ingest.Publish = probe.publish(opts.Ingest.Publish)
		opts.FS = probe.fs
	}
	store, err := durable.Open(opts)
	if err != nil {
		return nil, err
	}
	s.store = store
	if res, err := store.Apply(ingest.Delta{Seq: 0, Listings: c.base}); err != nil || res.Added != len(c.base) {
		store.Close()
		return nil, fmt.Errorf("set-up batch: %+v (%v)", res, err)
	}
	handler := ingest.Handler(store)
	if probe != nil {
		inner := ingest.Handler(tracedApplier{Store: store, p: probe})
		handler = func(w http.ResponseWriter, r *http.Request) {
			parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
			id := probe.t.begin("ingest.handler", parent, 0)
			prev := probe.t.setAmbient(id)
			inner(w, r)
			probe.t.setAmbient(prev)
			probe.t.end(id)
		}
	}
	s.srv.AttachPost(ingest.IngestPath, handler)
	s.srv.ConfigureServing(market.DefaultServeConfig())
	if s.http, err = startServer(s.srv); err != nil {
		store.Close()
		return nil, err
	}
	return s, nil
}

// ingestRun accumulates the cycles of one run.
type ingestRun struct {
	out                       *outcome
	setups, restarts, peaks   []float64
	acks, handler             []float64
	reads                     []read
	writeTime                 time.Duration
	deltaBytes                int64
	want                      [][]answer // per cycle, the live engine's probe answers
	fs                        fsTotals
	cacheHits, cacheMisses    int64
	shed, timeouts, recovered int64
	allocMB, gcCycles         float64
}

// runIngest runs ingest cycles until the run's seconds are spent (at least
// ingestMinCycles). A cycle sets up a fresh server, streams every delta with a
// reader beside it, closes the store without a parting snapshot and restarts
// it eagerly. Cycles repeat identical work, so their samples pool.
func runIngest(cfg config) (*outcome, error) {
	var t *tracer
	var probe *ingestProbe
	if cfg.trace {
		t = newTracer()
		probe = &ingestProbe{t: t, fs: newTracedFS(t)}
	}
	run := &ingestRun{out: &outcome{metrics: metrics{}}}
	var corpus *ingestCorpus
	start := time.Now()
	for c := 0; c <= ingestMinCycles || (c <= ingestMaxCycles && time.Since(start) < cfg.seconds); c++ {
		// The first cycle warms the process (heap growth, page faults): its
		// answers are checked, its timings and counters dropped.
		target := run
		if c == 0 {
			target = &ingestRun{out: run.out}
		}
		var err error
		if corpus, err = ingestCycle(cfg, t, probe, filepath.Join(cfg.work, fmt.Sprintf("ingest-%d", c)), target); err != nil {
			return nil, err
		}
		if c == 0 {
			run.want = target.want
			probe.resetTotals()
		}
	}
	cycles := len(run.setups)
	fmt.Fprintf(os.Stderr, "ingest: %d cycles, %d acks over %.3f s, %d reads, restarts %.3f s\n",
		cycles, len(run.acks), run.writeTime.Seconds(), len(run.reads), run.restarts)

	// Every cycle's final engine must equal one cold build + enrich over the
	// union.
	cold, err := analysis.BuildDatasetFromRecords(corpus.crawlTime, corpus.records, corpus.snap.APK, analysis.BuildOptions{})
	if err != nil {
		return nil, err
	}
	cold.Enrich(analysis.DefaultEnrichOptions())
	for i, p := range ingestProbes() {
		got, err := p.eval(cold.QuerySource())
		for _, want := range run.want {
			run.out.ok(err == nil && got == want[i])
		}
	}

	m := run.out.metrics
	if !cfg.trace {
		// Read latency beside the writer is not an end-to-end metric here: on
		// a 2-CPU box it follows the writer's contention and the host's speed,
		// and repeated runs of one seed spread it by ±13% (p50). The traced
		// run reports its median as trace.read_p50_ms, and the eager restart
		// as trace.restart_s.
		run.out.endToEnd(median(run.setups), median(run.peaks), run.acks, float64(len(run.acks))/run.writeTime.Seconds())
		return run.out, nil
	}

	probe.mu.Lock()
	defer probe.mu.Unlock()
	n := int64(cycles)
	l := &layers{
		spans:         t.closed(),
		handler:       run.handler,
		apply:         probe.apply,
		redetected:    probe.redetected,
		prior:         probe.prior,
		sealed:        probe.sealed,
		deltas:        probe.deltas,
		snapshotTime:  probe.snapTime / time.Duration(n),
		deltaBytes:    run.deltaBytes,
		fs:            run.fs.per(n),
		walReplayed:   run.recovered,
		swaps:         probe.swaps,
		cacheHits:     run.cacheHits,
		cacheMisses:   run.cacheMisses,
		shed:          run.shed / n,
		timeouts:      run.timeouts / n,
		allocMB:       run.allocMB / float64(n),
		gcCycles:      run.gcCycles / float64(n),
		tracedOp:      median(run.acks),
		tracedRestart: median(run.restarts),
	}
	var all []float64
	for _, r := range run.reads {
		all = append(all, ms(r.latency))
	}
	l.tracedRead = median(all)
	l.report(m)
	return run.out, t.write(tracePath(cfg))
}

// ingestCycle runs one cycle in dir and returns its corpus.
func ingestCycle(cfg config, t *tracer, probe *ingestProbe, dir string, run *ingestRun) (*ingestCorpus, error) {
	runtime.GC()
	setupStart := time.Now()
	root := t.begin("setup", 0, 0)
	corpus, err := newIngestCorpus(cfg.seed)
	if err != nil {
		return nil, err
	}
	live, err := startIngestServer(dir, corpus, probe)
	if err != nil {
		return nil, err
	}
	defer live.close()
	var bodies [][]byte
	for i, d := range corpus.deltas {
		body, err := json.Marshal(ingest.Delta{Seq: uint64(i + 1), Listings: d})
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, body)
	}
	t.end(root)
	run.setups = append(run.setups, secs(time.Since(setupStart)))

	// Writes beside reads: one client POSTs every delta in order, a second
	// runs a closed loop over the read mix until the last ack.
	runtime.GC()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	rt := runtimeNow()
	probe.resetApplies()
	var fs0 fsTotals
	if probe != nil {
		fs0 = probe.fs.c.totals()
	}
	stats0 := live.srv.ServingStats()
	reads := ingestReads()
	var writing atomic.Bool
	writing.Store(true)
	var readsOut []read
	var wg sync.WaitGroup
	wg.Add(1)
	reader := newClient(live.http.base)
	go func() {
		defer wg.Done()
		i := 0
		readsOut = readLoop(reader, func() bool { return !writing.Load() }, func() (int, request) {
			k := i % len(reads)
			i++
			return k, reads[k]
		})
	}()
	writer := newClient(live.http.base)
	acks := map[uint64]float64{}
	phase := time.Now()
	for i, body := range bodies {
		seq := uint64(i + 1)
		id := t.begin("ingest.ack", 0, seq)
		rep, err := writer.post(ingest.IngestPath, body, map[string]string{spanHeader: strconv.Itoa(id)})
		t.end(id)
		var res ingest.Result
		good := err == nil && rep.status == http.StatusOK && json.Unmarshal(rep.body, &res) == nil &&
			res.Applied && res.Seq == seq && res.Added == len(corpus.deltas[i])
		run.out.ok(good)
		if good {
			run.deltaBytes += int64(len(body))
			acks[seq] = ms(rep.latency)
			run.acks = append(run.acks, ms(rep.latency))
		}
	}
	run.writeTime += time.Since(phase)
	writing.Store(false)
	wg.Wait()
	writer.close()
	reader.close()
	stats1 := live.srv.ServingStats()
	run.cacheHits += stats1.CacheHits - stats0.CacheHits
	run.cacheMisses += stats1.CacheMisses - stats0.CacheMisses
	run.shed += stats1.Shed - stats0.Shed
	run.timeouts += stats1.Timeouts - stats0.Timeouts
	for _, r := range readsOut {
		run.out.ok(r.ok)
	}
	run.reads = append(run.reads, readsOut...)
	if probe != nil {
		run.fs = run.fs.plus(probe.fs.c.totals().minus(fs0))
		run.handler = append(run.handler, probe.handlerTimes(acks)...)
	}

	// What the restart must reproduce: the cursor and every probe answer of
	// the live engine before it.
	probes := ingestProbes()
	cursor := live.store.Cursor()
	want := make([]answer, len(probes))
	for i, p := range probes {
		if want[i], err = p.eval(live.store.Dataset().QuerySource()); err != nil {
			return nil, fmt.Errorf("live probe %d: %w", i, err)
		}
	}
	run.want = append(run.want, want)
	// Closed without a parting snapshot: the restart replays the WAL tail
	// written since the last cadence snapshot.
	if err := live.close(); err != nil {
		return nil, err
	}

	var fs durable.FS
	if probe != nil {
		fs = probe.fs
	}
	runtime.GC()
	restartStart := time.Now()
	root = t.begin("ingest.restart", 0, 0)
	id := t.begin("durable.recover", root, 0)
	prev := t.setAmbient(id)
	store, err := durable.Open(durable.Options{FS: fs, Dir: dir, Ingest: ingest.Options{
		Enrich: analysis.DefaultEnrichOptions(), CrawlTime: corpus.crawlTime}})
	t.setAmbient(prev)
	t.end(id)
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	defer store.Close()
	src := store.Dataset().QuerySource()
	first, ferr := probes[0].eval(src)
	t.end(root)
	run.restarts = append(run.restarts, secs(time.Since(restartStart)))
	good := ferr == nil && first == want[0] && store.Cursor() == cursor
	for i := 1; good && i < len(probes); i++ {
		got, err := probes[i].eval(src)
		good = err == nil && got == want[i]
	}
	run.out.ok(good)
	run.recovered = store.Metrics().WALRecordsReplayed.Load()
	allocMB, gcs := rt.since()
	run.allocMB += allocMB
	run.gcCycles += gcs
	peak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	run.peaks = append(run.peaks, peak)
	if err := store.Close(); err != nil {
		return nil, err
	}
	return corpus, os.RemoveAll(dir)
}
