package analysis

import (
	"time"

	"marketscope/internal/appmeta"
	"marketscope/internal/avscan"
	"marketscope/internal/libdetect"
	"marketscope/internal/permissions"
	"marketscope/internal/pipeline"
	"marketscope/internal/query"
)

// Incremental dataset builds. IngestState carries the cumulative enrichment
// artifacts — the library-feature observations and the AV verdict cache —
// across append-only batches, so each Append yields a fresh, fully enriched
// Dataset without re-parsing or re-scanning anything already ingested. The
// correctness bar is exact: the dataset (and therefore every query result)
// after N batches is identical to one cold BuildDatasetFromRecords + Enrich
// over the concatenation of all N batches, which internal/ingest's
// randomized equivalence suite asserts byte for byte.
//
// What carries over and why it is sound:
//
//   - APK parses, AV reports and permission analyses are pure functions of
//     the archive (and the fixed scanner seed/pool), so they are computed at
//     a listing's first appearance and reused verbatim in every later epoch.
//   - Library feature observations merge: FeatureDB.Merge is commutative and
//     associative, so previous observations + the delta's observations equal
//     one cold learning pass over the union. The DB is replaced copy-on-write
//     each batch — the previous epoch's detector keeps reading its own frozen
//     DB while its engine is still live.
//   - Library detections do NOT carry over blindly: they depend on the whole
//     corpus (threshold crossings, canonical-prefix flips), so every batch
//     re-resolves every previously ingested listing against the grown DB.
//     It does so from the listing's cached, archive-pure candidates
//     (libdetect.Detector.Prepare, computed once at first appearance), so
//     the per-listing cost is a few map lookups, not a re-hash of its code.
//     A listing whose detections are unchanged keeps its exact *App pointer —
//     no write ever lands on an App a live engine is serving — and when
//     nothing changed, the new epoch's engine is sealed from the previous
//     one's columns via query.NewEngineAppend instead of re-extracting the
//     whole corpus.
type IngestState struct {
	opts EnrichOptions
	// db accumulates the feature observations of every listing ingested so
	// far; replaced copy-on-write by each Append.
	db *libdetect.FeatureDB
	// preparer computes the archive-pure half of each listing's library
	// detection (no feature DB); every epoch's detector shares its catalog.
	preparer *libdetect.Detector
	scanner  *avscan.Scanner
	// scans caches AV reports by archive SHA-256 across batches: a verdict
	// is a pure function of (seed, engine pool, sample), so re-listings of
	// an already-scanned archive reuse the epoch-independent report. Written
	// only between batch pipelines, read freely inside them.
	scans map[string]*avscan.Report
}

// NewIngestState prepares incremental enrichment with the given options
// (Workers sizes every per-batch pipeline; the other knobs mean exactly what
// they mean for Enrich). The options must stay fixed for the lifetime of the
// state — they define the corpus the equivalence contract compares against.
func NewIngestState(opts EnrichOptions) *IngestState {
	if opts.Engines == 0 {
		opts.Engines = avscan.DefaultEngineCount
	}
	return &IngestState{
		opts:     opts,
		db:       libdetect.NewFeatureDB(opts.LibraryMinApps, opts.LibraryMinDevelopers),
		preparer: libdetect.NewDetector(nil, nil),
		scanner:  avscan.NewScanner(opts.ScannerSeed, opts.Engines),
		scans:    map[string]*avscan.Report{},
	}
}

// AppendStats reports what one incremental build did.
type AppendStats struct {
	// Added is the number of listings appended.
	Added int
	// Redetected counts previously ingested listings whose library
	// detections changed under the grown feature DB (each got a fresh
	// shallow App copy; the old epoch's App is untouched).
	Redetected int
	// EngineSealed reports whether the new epoch's engine was built by
	// extending the previous epoch's columns (possible exactly when
	// Redetected == 0 and the previous dataset had a built engine).
	EngineSealed bool
}

// Append builds the next epoch's dataset: prev's listings (re-detected,
// pointer-preserved where unchanged) followed by the given records, parsed
// and enriched. prev is never mutated — its engine keeps serving the old
// epoch — and may be nil for the first batch. apkOf resolves the new
// records' APK bytes and may be nil.
func (st *IngestState) Append(prev *Dataset, crawlTime time.Time, records []appmeta.Record, apkOf func(appmeta.Key) ([]byte, bool)) (*Dataset, AppendStats) {
	stats := AppendStats{Added: len(records)}
	workers := st.opts.Workers

	// Parse only the delta; previously ingested listings are never re-parsed.
	// One backing array serves the whole batch — later epochs copy an App out
	// of it if and only if its detections change, exactly as with individual
	// allocations. Each parse is followed by the archive-pure half of library
	// detection, which every later epoch reuses.
	backing := make([]App, len(records))
	fresh := make([]*App, len(records))
	pipeline.ForEach(len(records), workers, func(i int) {
		app := parseListingInto(&backing[i], records[i], apkOf)
		if app.HasAPK() {
			app.prepared = st.preparer.Prepare(app.Parsed.Dex, app.Meta.Package)
		}
		fresh[i] = app
	})

	// Learn copy-on-write: a fresh DB absorbs the previous observations
	// (Merge leaves its argument unchanged) plus the delta's. Commutativity
	// makes this equal to one cold learning pass over the union.
	db := libdetect.NewFeatureDB(st.opts.LibraryMinApps, st.opts.LibraryMinDevelopers)
	db.Merge(st.db)
	for _, app := range fresh {
		if app.HasAPK() {
			db.ObservePrepared(app.prepared, app.Parsed.Developer())
		}
	}
	st.db = db
	detector := libdetect.NewDetector(st.preparer.Catalog(), db)

	// Re-resolve every previously ingested listing's cached candidates
	// against the grown DB. Unchanged detections keep the old *App; changed
	// ones get a shallow copy (Parsed, AVReport, PermUsage and the prepared
	// candidates are archive-pure and shared).
	var prevApps []*App
	if prev != nil {
		prevApps = prev.Apps
	}
	olds := make([]*App, len(prevApps))
	pipeline.ForEach(len(prevApps), workers, func(i int) {
		old := prevApps[i]
		if !old.HasAPK() {
			olds[i] = old
			return
		}
		prepared := old.prepared
		if prepared == nil {
			prepared = st.preparer.Prepare(old.Parsed.Dex, old.Meta.Package)
		}
		libs := detector.Resolve(prepared)
		if detectionsEqual(libs, old.Libraries) {
			olds[i] = old
			return
		}
		cp := *old
		cp.Libraries = libs
		cp.prepared = prepared
		olds[i] = &cp
	})
	for i := range olds {
		if olds[i] != prevApps[i] {
			stats.Redetected++
		}
	}

	// Enrich the delta. st.scans reads are safe inside the pool — the map is
	// only written after it drains; unseen archives deduplicate through the
	// exactly-once batch cache.
	permAnalyzer := permissions.NewAnalyzer(nil)
	batchScans := pipeline.NewCache[*avscan.Report]()
	pipeline.ForEach(len(fresh), workers, func(i int) {
		app := fresh[i]
		if !app.HasAPK() {
			return
		}
		app.Libraries = detector.Resolve(app.prepared)
		if report, ok := st.scans[app.Parsed.SHA256]; ok {
			app.AVReport = report
		} else {
			app.AVReport = batchScans.Do(app.Parsed.SHA256, func() *avscan.Report {
				return st.scanner.Scan(app.Parsed.SHA256, app.Parsed.Dex)
			})
		}
		app.PermUsage = permAnalyzer.Analyze(app.Parsed.Manifest, app.Parsed.Dex)
	})
	for _, app := range fresh {
		if app.HasAPK() {
			if _, ok := st.scans[app.Parsed.SHA256]; !ok {
				st.scans[app.Parsed.SHA256] = app.AVReport
			}
		}
	}

	// Assemble the new epoch: a fresh Dataset value, already enriched (the
	// pipelines above are the enrichment — a later Enrich call is a no-op).
	d := &Dataset{CrawlTime: crawlTime, byMarket: map[string][]*App{}}
	d.Apps = make([]*App, 0, len(olds)+len(fresh))
	d.Apps = append(d.Apps, olds...)
	d.Apps = append(d.Apps, fresh...)
	d.attachMarkets()
	d.libDetector = detector
	d.scanner = st.scanner
	d.enrichOnce.Do(func() {})
	d.enriched.Store(true)

	// Seal the engine when every old row is provably unchanged: the previous
	// epoch's built columns are then value-identical prefixes of the new
	// ones. Any change (or no built previous engine) falls back to the lazy
	// cold build in QuerySource.
	if stats.Redetected == 0 && prev != nil {
		if base := prev.builtEngine(); base != nil {
			if eng, err := query.NewEngineAppend(appFieldRegistry(d), base, fresh); err == nil {
				d.queryMu.Lock()
				d.querySrc = eng
				d.queryEnriched = true
				d.queryMu.Unlock()
				stats.EngineSealed = true
			}
		}
	}
	return d, stats
}

// detectionsEqual reports whether two detection slices are elementwise
// identical (Detection is a comparable struct).
func detectionsEqual(a, b []libdetect.Detection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// builtEngine returns the dataset's cached post-enrichment engine typed for
// appending, or nil when none was built (or it predates enrichment).
func (d *Dataset) builtEngine() *query.Engine[*App] {
	d.queryMu.Lock()
	defer d.queryMu.Unlock()
	if !d.queryEnriched {
		return nil
	}
	eng, _ := d.querySrc.(*query.Engine[*App])
	return eng
}
