package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"marketscope/internal/analysis"
	"marketscope/internal/core"
	"marketscope/internal/crawler"
	"marketscope/internal/market"
	"marketscope/internal/synth"
)

// The study corpus is the default ecosystem scaled to about studyListings
// listings with APKs across the 17 markets (some 1,200 apps). The listing
// count of a fixed app count varies by ±9% across seeds, and pass time
// follows it, so each seed's app count is scaled once from a trial
// generation at studyApps; that lands within ±2% of studyListings.
const (
	studyApps        = 1200
	studyListings    = 2350
	studySetups      = 5
	studyMinPasses   = 3
	studyMaxPasses   = 12
	studySecondCrawl = 8 // months between the two crawls, as in core.Run
)

// runStudy times cold passes of the paper reproduction: in-process crawl,
// parse, enrich, moderation and re-crawl, every table and figure, and the
// rendered report. Every pass renders from freshly populated stores, since
// moderation delists apps from the stores it runs on.
func runStudy(cfg config) (*outcome, error) {
	var t *tracer
	if cfg.trace {
		t = newTracer()
	}
	scfg, err := studyConfig(cfg.seed)
	if err != nil {
		return nil, err
	}
	ccfg := core.DefaultConfig()
	ccfg.Synth = scfg

	var eco *synth.Ecosystem
	setupS, err := medianSetup(studySetups, nil, func() error {
		root := t.begin("setup", 0, 0)
		defer t.end(root)
		id := t.begin("synth.generate", root, 0)
		e, err := synth.Generate(scfg)
		t.end(id)
		if err != nil {
			return fmt.Errorf("generate: %w", err)
		}
		id = t.begin("synth.populate", root, 0)
		_, err = e.Populate()
		t.end(id)
		eco = e
		return err
	})
	if err != nil {
		return nil, err
	}

	// The measured phase: cold passes until the run's seconds are spent. The
	// first pass warms the process (heap growth, page faults) and is checked
	// but not timed.
	out := &outcome{metrics: metrics{}}
	quiesce()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	rt := runtimeNow()
	var walls []float64
	var reports [][]byte
	var last *core.Results
	phase := time.Now()
	for len(walls) < studyMinPasses || (len(walls) < studyMaxPasses && time.Since(phase) < cfg.seconds) {
		warm := len(reports) == 0
		stores, err := eco.Populate()
		if err != nil {
			return nil, err
		}
		runtime.GC()
		start := time.Now()
		r, report, err := studyPass(t, ccfg, eco, stores)
		if err != nil {
			return nil, err
		}
		if !warm {
			walls = append(walls, secs(time.Since(start)))
		}
		reports = append(reports, report)
		last = r
	}
	allocMB, gcs := rt.since()
	peak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "study: %d passes %.3f s\n", len(walls), walls)

	// Correctness, outside the timed passes: the serial, row-at-a-time oracle
	// suite over the same dataset must render the same report bytes.
	oracle := *last
	oracle.ComputeAnalysesOracle()
	var want bytes.Buffer
	if err := oracle.WriteReport(&want); err != nil {
		return nil, err
	}
	for _, report := range reports {
		out.ok(bytes.Equal(report, want.Bytes()))
	}

	if !cfg.trace {
		passes := make([]float64, len(walls))
		total := 0.0
		for i, w := range walls {
			passes[i] = w * 1000
			total += w
		}
		out.endToEnd(setupS, peak, passes, float64(len(walls))/total)
		return out, nil
	}
	// One direct misbehavior run isolates clone detection, which the
	// analysis scheduler otherwise runs inside core.analyses.
	mis := analysis.DefaultMisbehaviorOptions()
	mis.Clone = ccfg.Clone
	id := t.begin("analysis.misbehavior", 0, 0)
	analysis.Misbehavior(last.Dataset, mis)
	t.end(id)

	l := &layers{spans: t.closed(), allocMB: allocMB / float64(len(reports)), gcCycles: gcs / float64(len(reports))}
	for _, app := range last.Dataset.Apps {
		if app.ParseError != nil {
			l.parseFailed++
		}
	}
	l.tracedOp = median(walls) * 1000
	l.report(out.metrics)
	return out, t.write(tracePath(cfg))
}

// studyConfig returns the seed's synth configuration, its app count scaled
// so the corpus has about studyListings listings. The trial generation is
// the benchmark choosing its input size and is not part of set-up.
func studyConfig(seed uint64) (synth.Config, error) {
	scfg := synth.DefaultConfig()
	scfg.Seed = seed
	scfg.NumApps = studyApps
	trial, err := synth.Generate(scfg)
	if err != nil {
		return scfg, fmt.Errorf("trial generate: %w", err)
	}
	scfg.NumApps = studyApps * studyListings / trial.NumListings()
	return scfg, nil
}

// studyPass is one cold pass over freshly populated stores; it returns the
// results and the rendered report.
func studyPass(t *tracer, ccfg core.Config, eco *synth.Ecosystem, stores map[string]*market.Store) (*core.Results, []byte, error) {
	pass := t.begin("study.pass", 0, 0)
	defer t.end(pass)
	step := func(name string, fn func() error) error {
		id := t.begin(name, pass, 0)
		defer t.end(id)
		return fn()
	}
	r := &core.Results{Config: ccfg, Ecosystem: eco}
	var err error
	if err = step("crawler.snapshot", func() error {
		r.FirstCrawl, err = crawler.SnapshotFromStores(stores, true, ccfg.Synth.CrawlDate)
		return err
	}); err != nil {
		return nil, nil, fmt.Errorf("first crawl: %w", err)
	}
	if err = step("analysis.build", func() error {
		r.Dataset, err = analysis.BuildDatasetWith(r.FirstCrawl, analysis.BuildOptions{Workers: ccfg.Enrich.Workers})
		return err
	}); err != nil {
		return nil, nil, fmt.Errorf("build dataset: %w", err)
	}
	_ = step("analysis.enrich", func() error { r.Dataset.Enrich(ccfg.Enrich); return nil })
	_ = step("synth.moderate", func() error { eco.ApplyModeration(stores); return nil })
	if err = step("crawler.snapshot", func() error {
		r.SecondCrawl, err = crawler.SnapshotFromStores(stores, false, ccfg.Synth.CrawlDate.AddDate(0, studySecondCrawl, 15))
		return err
	}); err != nil {
		return nil, nil, fmt.Errorf("second crawl: %w", err)
	}
	_ = step("core.analyses", func() error { r.ComputeAnalyses(ccfg.Analyses.Workers); return nil })
	var buf bytes.Buffer
	if err = step("report.render", func() error { return r.WriteReport(&buf) }); err != nil {
		return nil, nil, err
	}
	return r, buf.Bytes(), nil
}
