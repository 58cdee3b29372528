package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"marketscope/internal/analysis"
	"marketscope/internal/appmeta"
	"marketscope/internal/durable"
	"marketscope/internal/ingest"
	"marketscope/internal/market"
	"marketscope/internal/query"
	"marketscope/internal/synth"
)

// The serve corpus: a streamed metadata-only catalog served from a snapshot
// by a lazily paged store whose page budget is a quarter of the materialized
// column bytes, so the working set does not fit.
const (
	serveRows      = 100_000
	serveSetups    = 3
	serveRestarts  = 15
	serveClients   = 2
	serveHotShare  = 0.9
	serveBudgetDiv = 3
)

// serveStart anchors the date filters; the corpus's release dates ramp from
// here over about two years.
var serveStart = time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)

// serveHot is the hot set: repeats of these are about nine in ten reads. They
// span five column groups (catalog, popularity, dates, developer, flags). The
// scans return pages of up to 200 rows: with 20-row pages a cache hit is
// mostly syscalls and wake-ups, whose cost on a 2-vCPU guest drifts with the
// host (run-to-run ±11% at p50, against ±6% with 200-row pages).
func serveHot() []request {
	markets := market.MarketNames()
	eq := func(field string, v any) query.Filter { return query.Filter{Field: field, Op: query.OpEq, Value: v} }
	var out []request
	groups := [][]string{
		{"market", "market_category", "package"},
		{"package", "downloads", "rating"},
		{"package", "release_date", "update_date", "version_code"},
		{"developer_name", "app_name", "version_name"},
		{"package", "has_ads", "has_iap", "listed_apk_size"},
	}
	for i, fields := range groups {
		out = append(out,
			scanReq(query.Query{Fields: fields, Filters: []query.Filter{eq("market", markets[i])}, Limit: 200}),
			scanReq(query.Query{Fields: fields, Filters: []query.Filter{eq("market", markets[i+5])}, Limit: 200}))
	}
	out = append(out,
		aggReq(query.Aggregate{GroupBy: []string{"market"}, Aggregates: []query.AggSpec{{Op: query.AggCount}, {Op: query.AggMean, Field: "downloads"}}}),
		aggReq(query.Aggregate{GroupBy: []string{"category"}, Aggregates: []query.AggSpec{{Op: query.AggCount}, {Op: query.AggMean, Field: "rating"}},
			Sort: []query.SortKey{{Field: "count", Desc: true}, {Field: "category"}}}),
		aggReq(query.Aggregate{GroupBy: []string{"market_type"}, Aggregates: []query.AggSpec{{Op: query.AggMax, Field: "release_date"}, {Op: query.AggMin, Field: "update_date"}}}),
		aggReq(query.Aggregate{GroupBy: []string{"market"}, Aggregates: []query.AggSpec{{Op: query.AggDistinct, Field: "developer_name"}, {Op: query.AggMax, Field: "version_code"}}}),
		aggReq(query.Aggregate{GroupBy: []string{"market"}, Aggregates: []query.AggSpec{
			{Op: query.AggSum, Field: "has_ads"}, {Op: query.AggSum, Field: "has_iap"}, {Op: query.AggMean, Field: "listed_apk_size"}}}),
		aggReq(query.Aggregate{Aggregates: []query.AggSpec{{Op: query.AggCount}, {Op: query.AggTopK, Field: "market_category", K: 5}}}),
		scanReq(query.Query{Fields: []string{"package", "market", "downloads"}, Filters: []query.Filter{{Field: "downloads", Op: query.OpGe, Value: 1_000_000}},
			Sort: []query.SortKey{{Field: "downloads", Desc: true}, {Field: "package"}, {Field: "market"}}, Limit: 200}),
		scanReq(query.Query{Fields: []string{"package", "rating", "update_date"}, Filters: []query.Filter{eq("has_iap", true), {Field: "rating", Op: query.OpGe, Value: 4.9}}, Limit: 200}),
	)
	return out
}

// serveUnseen is the k-th query of the cold family: six shapes over the same
// column groups with parameters drawn from (seed, k), so a run almost never
// repeats one and each is answered by the engine, paging columns in.
func serveUnseen(seed uint64, k int) request {
	rng := rand.New(rand.NewPCG(seed, uint64(k)))
	markets := market.MarketNames()
	day := func() string {
		return serveStart.AddDate(0, 0, rng.IntN(690)).Format("2006-01-02")
	}
	switch k % 6 {
	case 0:
		return scanReq(query.Query{Fields: []string{"package", "market", "downloads"},
			Filters: []query.Filter{{Field: "downloads", Op: query.OpGe, Value: 1000 + rng.IntN(200_000)},
				{Field: "market", Op: query.OpEq, Value: markets[rng.IntN(len(markets))]}},
			Sort: []query.SortKey{{Field: "downloads", Desc: true}, {Field: "package"}}, Limit: 10})
	case 1:
		from := serveStart.AddDate(0, 0, rng.IntN(660))
		return aggReq(query.Aggregate{GroupBy: []string{"category"},
			Aggregates: []query.AggSpec{{Op: query.AggCount}, {Op: query.AggMean, Field: "rating"}},
			Filters: []query.Filter{{Field: "release_date", Op: query.OpGe, Value: from.Format("2006-01-02")},
				{Field: "release_date", Op: query.OpLt, Value: from.AddDate(0, 0, 30).Format("2006-01-02")}}})
	case 2:
		return scanReq(query.Query{Fields: []string{"package", "developer_name", "version_code", "version_name"},
			Filters: []query.Filter{{Field: "developer_name", Op: query.OpEq, Value: fmt.Sprintf("scale-dev-%05d", rng.IntN(serveRows/24))}}, Limit: 20})
	case 3:
		return aggReq(query.Aggregate{GroupBy: []string{"market"},
			Aggregates: []query.AggSpec{{Op: query.AggCount}, {Op: query.AggMax, Field: "listed_apk_size"}},
			Filters: []query.Filter{{Field: "listed_apk_size", Op: query.OpGt, Value: 4_000_000 + rng.IntN(30_000_000)},
				{Field: "has_ads", Op: query.OpEq, Value: rng.IntN(2) == 0}}})
	case 4:
		return scanReq(query.Query{Fields: []string{"app_name", "update_date", "market_category"},
			Filters: []query.Filter{{Field: "update_date", Op: query.OpGe, Value: day()}},
			Sort:    []query.SortKey{{Field: "update_date"}, {Field: "app_name"}}, Limit: 15})
	default:
		return aggReq(query.Aggregate{GroupBy: []string{"market_category"},
			Aggregates: []query.AggSpec{{Op: query.AggCount}},
			Filters: []query.Filter{{Field: "rating", Op: query.OpGe, Value: 1 + float64(rng.IntN(390))/100},
				{Field: "has_iap", Op: query.OpEq, Value: rng.IntN(2) == 0}},
			Sort: []query.SortKey{{Field: "count", Desc: true}, {Field: "market_category"}}, Limit: 10})
	}
}

// serveCorpus streams the metadata corpus, keeping the first listing of each
// (market, package) as the ingestor would.
func serveCorpus(seed uint64) ([]ingest.Listing, time.Time, error) {
	seen := map[appmeta.Key]bool{}
	var out []ingest.Listing
	err := synth.StreamListings(synth.ScaleConfig{Seed: seed, Rows: serveRows}, func(i int, rec appmeta.Record) error {
		if k := rec.Key(); !seen[k] {
			seen[k] = true
			out = append(out, ingest.Listing{Record: rec})
		}
		return nil
	})
	if err != nil || len(out) == 0 {
		return nil, time.Time{}, fmt.Errorf("stream corpus: %v (%d listings)", err, len(out))
	}
	return out, out[len(out)-1].Record.UpdateDate, nil
}

func serveOpts(dir string, crawlTime time.Time, budget int64, fs durable.FS) durable.Options {
	return durable.Options{
		FS:         fs,
		Dir:        dir,
		Fsync:      durable.FsyncOff,
		PageBudget: budget,
		Ingest: ingest.Options{
			Enrich:    analysis.DefaultEnrichOptions(),
			CrawlTime: crawlTime,
		},
	}
}

// seedServe writes the data dir the serving store restarts from — the corpus
// as one WAL'd delta plus a snapshot — and measures the materialized column
// bytes by sweeping every column into an unbounded page pool.
func seedServe(dir string, seed uint64) (crawlTime time.Time, colBytes int64, err error) {
	listings, crawlTime, err := serveCorpus(seed)
	if err != nil {
		return crawlTime, 0, err
	}
	store, err := durable.Open(serveOpts(dir, crawlTime, 0, nil))
	if err != nil {
		return crawlTime, 0, err
	}
	if res, err := store.Apply(ingest.Delta{Seq: 0, Listings: listings}); err != nil || !res.Applied {
		store.Close()
		return crawlTime, 0, fmt.Errorf("seed apply: %+v (%v)", res, err)
	}
	if err := store.WriteSnapshot(); err != nil {
		store.Close()
		return crawlTime, 0, err
	}
	if err := store.Close(); err != nil {
		return crawlTime, 0, err
	}
	sweep, err := durable.Open(serveOpts(dir, crawlTime, -1, nil))
	if err != nil {
		return crawlTime, 0, err
	}
	defer sweep.Close()
	if _, err := sweep.Dataset().QuerySource().Scan(query.Query{Limit: 1}); err != nil {
		return crawlTime, 0, err
	}
	return crawlTime, sweep.PageStats().ResidentBytes, nil
}

// runServe measures lazy paged restarts and then closed-loop serving of a
// hot set plus unseen queries over loopback TCP.
func runServe(cfg config) (*outcome, error) {
	var t *tracer
	var tfs *tracedFS
	var fs durable.FS
	if cfg.trace {
		t = newTracer()
		tfs = newTracedFS(t)
		fs = tfs
	}
	var dir string
	var crawlTime time.Time
	var colBytes int64
	setups := 0
	setupS, err := medianSetup(serveSetups, func() error {
		var err error
		if dir != "" {
			err = os.RemoveAll(dir)
		}
		setups++
		dir = filepath.Join(cfg.work, fmt.Sprintf("serve-%d", setups))
		return err
	}, func() error {
		root := t.begin("setup", 0, 0)
		defer t.end(root)
		var err error
		crawlTime, colBytes, err = seedServe(dir, cfg.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	if colBytes == 0 {
		return nil, fmt.Errorf("seeded store reports no column bytes")
	}
	budget := colBytes / serveBudgetDiv
	out := &outcome{metrics: metrics{}}
	hot := serveHot()
	reqFor := func(key int) request {
		if key < len(hot) {
			return hot[key]
		}
		return serveUnseen(cfg.seed, key-len(hot))
	}

	// Restarts: lazy open under the budget to the first answer.
	quiesce()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	rt := runtimeNow()
	var restarts []float64
	var firsts []answer
	var store *durable.Store
	for r := 0; r < serveRestarts; r++ {
		if store != nil {
			if err := store.Close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		root := t.begin("serve.restart", 0, 0)
		id := t.begin("durable.open", root, 0)
		prev := t.setAmbient(id)
		store, err = durable.Open(serveOpts(dir, crawlTime, budget, fs))
		t.setAmbient(prev)
		t.end(id)
		if err != nil {
			return nil, fmt.Errorf("lazy restart: %w", err)
		}
		first, err := hot[0].eval(store.Dataset().QuerySource())
		t.end(root)
		restarts = append(restarts, secs(time.Since(start)))
		if err != nil {
			store.Close()
			return nil, fmt.Errorf("first answer after restart: %w", err)
		}
		firsts = append(firsts, first)
	}

	// Serving: two closed-loop clients for the run's seconds.
	srv := market.NewServer(market.NewStore(market.Profile{Name: "serve"}))
	srv.AttachScan(store.Dataset().QuerySource())
	srv.ConfigureServing(market.DefaultServeConfig())
	hs, err := startServer(srv)
	if err != nil {
		store.Close()
		return nil, err
	}
	runtime.GC()
	var fs0 fsTotals
	if tfs != nil {
		fs0 = tfs.c.totals()
	}
	page0 := store.PageStats()
	var residentPeak atomic.Int64
	stopSampling := make(chan struct{})
	var sampler sync.WaitGroup
	if cfg.trace {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampling:
					return
				case <-tick.C:
					if r := store.PageStats().ResidentBytes; r > residentPeak.Load() {
						residentPeak.Store(r)
					}
				}
			}
		}()
	}
	results := make([][]read, serveClients)
	var wg sync.WaitGroup
	phase := time.Now()
	deadline := phase.Add(cfg.seconds)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(hs.base)
			defer cl.close()
			rng := rand.New(rand.NewPCG(cfg.seed, uint64(c)+1))
			results[c] = readLoop(cl, func() bool { return !time.Now().Before(deadline) }, func() (int, request) {
				key := rng.IntN(len(hot))
				if rng.Float64() >= serveHotShare {
					key = len(hot) + rng.IntN(1<<30)
				}
				return key, reqFor(key)
			})
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(phase)
	close(stopSampling)
	sampler.Wait()
	stats := srv.ServingStats()
	page1 := store.PageStats()
	var fs1 fsTotals
	if tfs != nil {
		fs1 = tfs.c.totals()
	}
	hs.stop()
	allocMB, gcs := rt.since()
	peak, err := peakRSSMB()
	if err != nil {
		store.Close()
		return nil, err
	}
	if err := store.Close(); err != nil {
		return nil, err
	}
	n := 0
	for _, rs := range results {
		n += len(rs)
	}
	fmt.Fprintf(os.Stderr, "serve: %d reads over %.3f s, restarts %.3f s\n", n, elapsed.Seconds(), restarts)

	// Correctness, after the clock: every distinct answer seen for a request
	// must equal the materialized (eagerly recovered) engine's answer.
	eager, err := durable.Open(serveOpts(dir, crawlTime, 0, nil))
	if err != nil {
		return nil, err
	}
	defer eager.Close()
	oracle := eager.Dataset().QuerySource()
	want := map[int]answer{}
	expect := func(key int) (answer, error) {
		if a, ok := want[key]; ok {
			return a, nil
		}
		a, err := reqFor(key).eval(oracle)
		want[key] = a
		return a, err
	}
	for _, first := range firsts {
		w, err := expect(0)
		out.ok(err == nil && first == w)
	}
	var reads []read
	var all, miss []float64 // read latencies (ms): every read, cache misses
	completed := 0
	for _, rs := range results {
		for _, r := range rs {
			good := r.ok
			if good {
				w, err := expect(r.key)
				good = err == nil && r.ans == w
			}
			if !good {
				fmt.Fprintf(os.Stderr, "serve: read %d (hit %v) failed: status %d, body ok %v: %s\n",
					r.key, r.hit, r.status, r.ok, reqFor(r.key).body)
			}
			out.ok(good)
			if good {
				completed++
			}
			reads = append(reads, r)
			all = append(all, ms(r.latency))
			if !r.hit {
				miss = append(miss, ms(r.latency))
			}
		}
	}

	if !cfg.trace {
		p99, _ := percentile(all, 0.99)
		fmt.Fprintf(os.Stderr, "serve: read p50 %.3f ms, miss p50 %.3f ms, p99 %.3f ms\n", median(all), median(miss), p99)
		out.endToEnd(setupS, peak, all, float64(completed)/elapsed.Seconds())
		return out, nil
	}
	l := &layers{
		spans:         t.closed(),
		fs:            fs1.minus(fs0),
		cacheHits:     stats.CacheHits,
		cacheMisses:   stats.CacheMisses,
		shed:          stats.Shed,
		timeouts:      stats.Timeouts,
		pageFetches:   page1.Fetches - page0.Fetches,
		pageEvictions: page1.Evictions - page0.Evictions,
		residentPeak:  residentPeak.Load(),
		allocMB:       allocMB,
		gcCycles:      gcs,
		tracedRestart: median(restarts),
	}
	for _, r := range reads {
		over := r.latency
		if !r.hit && r.ok {
			l.queryTimes = append(l.queryTimes, float64(r.queryUs)/1000)
			over -= time.Duration(r.queryUs) * time.Microsecond
		}
		l.overheads = append(l.overheads, ms(over))
	}
	l.tracedRead = median(all)
	l.tracedOp = l.tracedRead
	l.report(out.metrics)
	return out, t.write(tracePath(cfg))
}
