// BenchmarkIngestAppend measures the incremental ingest path end to end over
// the shared 400-app corpus: the latency of applying one listing delta to an
// already-published engine (parse + enrich + re-detect + seal + swap) against
// the cold rebuild it replaces, and the query latency through the serving
// chain immediately after the epoch swap. Before any timing the live engine
// is asserted byte-identical to one cold BuildDatasetFromRecords+Enrich over
// the union — the same equivalence-then-measure pattern as BenchmarkScanQuery
// — and the apply must then beat the cold rebuild at least 5x. The
// INGESTSTAT line feeds the CI bench-smoke artifact (BENCH_ingest.json) the
// same way SCANSTAT and SERVESTAT do.
package marketscope_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"testing"
	"time"

	"marketscope/internal/analysis"
	"marketscope/internal/appmeta"
	"marketscope/internal/ingest"
	"marketscope/internal/market"
	"marketscope/internal/query"
)

// ingestBenchRecords returns the corpus in canonical (market, package) order,
// the order the ingestor normalizes every batch to — feeding contiguous
// chunks of this sequence keeps the incremental dataset in exactly the order
// a cold build over the union would produce, so row order is part of what the
// equivalence gate asserts.
func ingestBenchRecords(b *testing.B) []appmeta.Record {
	b.Helper()
	snap := pipelineSnapshot(b)
	records := append([]appmeta.Record(nil), snap.Records()...)
	sort.Slice(records, func(i, j int) bool {
		if records[i].Market != records[j].Market {
			return records[i].Market < records[j].Market
		}
		return records[i].Package < records[j].Package
	})
	return records
}

// ingestBenchListings wraps records (plus their harvested APKs) as delta
// listings.
func ingestBenchListings(b *testing.B, records []appmeta.Record) []ingest.Listing {
	b.Helper()
	snap := pipelineSnapshot(b)
	listings := make([]ingest.Listing, 0, len(records))
	for _, rec := range records {
		l := ingest.Listing{Record: rec}
		if data, ok := snap.APK(rec.Key()); ok {
			l.APK = data
		}
		listings = append(listings, l)
	}
	return listings
}

// ingestCanonical reduces a scan result to the bytes the equivalence gate
// compares: fields, rows (order included) and the matched total.
func ingestCanonical(b *testing.B, res *query.Result, err error) []byte {
	b.Helper()
	if err != nil {
		b.Fatalf("scan: %v", err)
	}
	j, err := json.Marshal(struct {
		Fields any
		Rows   any
		Total  int
	}{res.Fields, res.Rows, res.Meta.TotalMatched})
	if err != nil {
		b.Fatalf("marshal result: %v", err)
	}
	return j
}

func BenchmarkIngestAppend(b *testing.B) {
	snap := pipelineSnapshot(b)
	records := ingestBenchRecords(b)
	const deltaRows = 40
	if len(records) <= deltaRows {
		b.Fatalf("corpus too small: %d records", len(records))
	}
	base := ingestBenchListings(b, records[:len(records)-deltaRows])
	delta := ingestBenchListings(b, records[len(records)-deltaRows:])

	// The cold oracle: one build + enrich over the union, timed as the
	// baseline the delta apply replaces.
	coldStart := time.Now()
	cold, err := analysis.BuildDatasetFromRecords(snap.CrawlTime, records, snap.APK, analysis.BuildOptions{})
	if err != nil {
		b.Fatalf("cold build: %v", err)
	}
	cold.Enrich(analysis.DefaultEnrichOptions())
	coldSrc := cold.QuerySource()
	coldDur := time.Since(coldStart)

	// buildBase publishes the base epoch into a fully configured serving
	// chain, leaving the delta as the only work the measurements see.
	buildBase := func() (*market.Server, *ingest.Ingestor) {
		srv := market.NewServer(market.NewStore(market.Profile{Name: "ingest-bench"}))
		cfg := market.DefaultServeConfig()
		cfg.Timeout = 30 * time.Second
		srv.ConfigureServing(cfg)
		ing := ingest.New(ingest.Options{
			Enrich:    analysis.DefaultEnrichOptions(),
			CrawlTime: snap.CrawlTime,
			Publish:   func(d *analysis.Dataset) { srv.SwapSource(d.QuerySource()) },
		})
		res, err := ing.Apply(ingest.Delta{Seq: 0, Listings: base})
		if err != nil || !res.Applied || res.Added != len(base) {
			b.Fatalf("base apply: %+v (err %v)", res, err)
		}
		return srv, ing
	}

	srv, ing := buildBase()
	applyStart := time.Now()
	res, err := ing.Apply(ingest.Delta{Seq: 1, Listings: delta})
	applyDur := time.Since(applyStart)
	if err != nil || !res.Applied || res.Added != deltaRows {
		b.Fatalf("delta apply: %+v (err %v)", res, err)
	}
	if got := srv.Epoch(); got != 1 {
		b.Fatalf("epoch after delta = %d, want 1 (base epoch 0)", got)
	}

	// Equivalence gate: the incrementally built engine must answer the bench
	// query shapes — plus a full unsorted dump, so row order is asserted too —
	// byte-identically to the cold build over the union.
	liveSrc := ing.Dataset().QuerySource()
	liveAgg, okL := liveSrc.(query.AggregateSource)
	coldAgg, okC := coldSrc.(query.AggregateSource)
	if !okL || !okC {
		b.Fatalf("sources %T / %T do not aggregate", liveSrc, coldSrc)
	}
	dump := query.Query{Fields: []string{"market", "package", "av_positives", "flagged_malware", "library_count"}}
	shapes := []query.Query{dump}
	for _, tc := range scanBenchQueries() {
		shapes = append(shapes, tc.q)
	}
	for i, q := range shapes {
		lres, lerr := liveSrc.Scan(q)
		cres, cerr := coldSrc.Scan(q)
		lj := ingestCanonical(b, lres, lerr)
		cj := ingestCanonical(b, cres, cerr)
		if !bytes.Equal(lj, cj) {
			b.Fatalf("scan %d: incremental engine diverged from the cold build:\nlive %.300s\ncold %.300s", i, lj, cj)
		}
	}
	for _, tc := range aggBenchRequests() {
		lres, lerr := liveAgg.Aggregate(tc.a)
		cres, cerr := coldAgg.Aggregate(tc.a)
		lj := ingestCanonical(b, lres, lerr)
		cj := ingestCanonical(b, cres, cerr)
		if !bytes.Equal(lj, cj) {
			b.Fatalf("%s: incremental aggregation diverged from the cold build:\nlive %.300s\ncold %.300s", tc.name, lj, cj)
		}
	}

	// Speedup floor: each batch re-resolves every prior app from its cached
	// candidates rather than re-hashing its code, so the delta apply must
	// beat the cold rebuild by a wide margin.
	const minApplySpeedup = 5
	applySpeedup := float64(coldDur) / float64(applyDur)
	if applySpeedup < minApplySpeedup {
		b.Fatalf("delta apply %v is only %.1fx faster than the cold rebuild %v, want >= %dx", applyDur, applySpeedup, coldDur, minApplySpeedup)
	}

	// Post-swap serving latency: the first query after the swap pays the cold
	// compute into the purged cache, repeats are hits against the new epoch.
	body, err := json.Marshal(scanBenchQueries()[0].q)
	if err != nil {
		b.Fatal(err)
	}
	spec := serveBenchRequest{market.ScanPath, body}
	missStart := time.Now()
	miss := servePost(srv, spec)
	missDur := time.Since(missStart)
	if miss.Code != http.StatusOK || miss.Header().Get("X-Cache") != "MISS" {
		b.Fatalf("post-swap scan: status %d, X-Cache %q", miss.Code, miss.Header().Get("X-Cache"))
	}
	hitSamples := make([]time.Duration, 101)
	for i := range hitSamples {
		start := time.Now()
		hit := servePost(srv, spec)
		hitSamples[i] = time.Since(start)
		if hit.Code != http.StatusOK || hit.Header().Get("X-Cache") != "HIT" {
			b.Fatalf("post-swap repeat: status %d, X-Cache %q", hit.Code, hit.Header().Get("X-Cache"))
		}
	}

	sealed := 0
	if res.Sealed {
		sealed = 1
	}
	printOnce("ingest-append", fmt.Sprintf(
		"INGESTSTAT base_rows=%d delta_rows=%d apply_ms=%.1f cold_build_ms=%.1f apply_speedup=%.1f sealed=%d redetected=%d epoch=%d postswap_miss_us=%d postswap_hit_p50_us=%d identical=1",
		len(base), deltaRows, float64(applyDur.Microseconds())/1000,
		float64(coldDur.Microseconds())/1000, applySpeedup,
		sealed, res.Redetected, srv.Epoch(),
		missDur.Microseconds(), durQuantile(hitSamples, 0.50).Microseconds()))

	// The timed loop: one delta apply per iteration against a fresh base
	// epoch built outside the timer (the ingestor is append-only, so a delta
	// cannot be re-applied to the same instance).
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		_, fresh := buildBase()
		b.StartTimer()
		if _, err := fresh.Apply(ingest.Delta{Seq: 1, Listings: delta}); err != nil {
			b.Fatal(err)
		}
	}
}
