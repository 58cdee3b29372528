package ingest_test

import (
	"math/rand"
	"reflect"
	"testing"

	"marketscope/internal/analysis"
	"marketscope/internal/apk"
	"marketscope/internal/appmeta"
	"marketscope/internal/dex"
	"marketscope/internal/ingest"
	"marketscope/internal/libdetect"
	"marketscope/internal/manifest"
	"marketscope/internal/signing"
)

// sharedKit is an unlabeled library prefix (absent from the catalog) that
// the redetection test embeds in hand-built apps.
const sharedKit = "org.sharedkit"

// kitListing builds a signed app under pkg whose code embeds sharedKit.
func kitListing(t *testing.T, market, pkg string, dev *signing.Developer) ingest.Listing {
	t.Helper()
	code := &dex.File{Classes: []dex.Class{
		{Name: pkg + ".MainActivity", Methods: []dex.Method{
			{Name: "onCreate", APICalls: []string{"android.app.Activity.onCreate"}},
		}},
		{Name: sharedKit + ".Core", Methods: []dex.Method{
			{Name: "init", APICalls: []string{
				"android.content.Context.getPackageName",
				"java.net.URL.openConnection",
				"android.net.ConnectivityManager.getActiveNetworkInfo",
			}},
		}},
		{Name: sharedKit + ".Helper", Methods: []dex.Method{
			{Name: "run", APICalls: []string{"android.os.Handler.post"}},
		}},
	}}
	m := &manifest.Manifest{Package: pkg, VersionCode: 1, VersionName: "1.0", MinSDK: 14, TargetSDK: 26, AppLabel: pkg}
	data, err := apk.Build(&apk.APK{Manifest: m, Dex: code}, dev)
	if err != nil {
		t.Fatalf("build %s: %v", pkg, err)
	}
	return ingest.Listing{
		Record: appmeta.Record{Market: market, Package: pkg, AppName: pkg, Category: "tools",
			DeveloperName: dev.Name, VersionCode: 1, VersionName: "1.0", Downloads: 100, Rating: 4},
		APK: data,
	}
}

// TestRedetectingBatch pins the copy-on-change path that the sealed fast
// path skips: a delta that pushes a shared library over the learning
// thresholds must re-detect exactly the earlier apps embedding it, as fresh
// App copies, leaving the previous epoch's apps and detections untouched and
// the engine equal to a cold build over the union.
func TestRedetectingBatch(t *testing.T) {
	snap := corpus(t)
	records := snap.Records()
	market := records[0].Market
	devA, devB := signing.NewDeveloper("kit dev a", 9001), signing.NewDeveloper("kit dev b", 9002)
	opts := enrichOpts()
	if opts.LibraryMinApps != 3 || opts.LibraryMinDevelopers != 2 {
		t.Fatalf("test assumes thresholds 3 apps / 2 developers, got %d / %d", opts.LibraryMinApps, opts.LibraryMinDevelopers)
	}

	// Base: the corpus plus two apps embedding the kit, both from one
	// developer — 2 apps, 1 developer, below both thresholds.
	kitted := map[string]bool{"com.handmade.kita": true, "com.handmade.kitb": true}
	base := make([]ingest.Listing, 0, len(records)+2)
	for _, rec := range records {
		base = append(base, listingFor(snap, rec))
	}
	base = append(base, kitListing(t, market, "com.handmade.kita", devA), kitListing(t, market, "com.handmade.kitb", devA))
	// The delta's third app, from a second developer, crosses both.
	delta := []ingest.Listing{kitListing(t, market, "com.handmade.kitc", devB)}

	ing := ingest.New(ingest.Options{Enrich: opts, CrawlTime: snap.CrawlTime})
	if _, err := ing.Apply(ingest.Delta{Seq: 0, Listings: base}); err != nil {
		t.Fatalf("base batch: %v", err)
	}
	prev := ing.Dataset()
	prev.QuerySource() // build the engine, so only a detection change can prevent sealing
	prevApps := append([]*analysis.App(nil), prev.Apps...)
	prevLibs := make([][]libdetect.Detection, len(prevApps))
	for i, app := range prevApps {
		prevLibs[i] = append([]libdetect.Detection(nil), app.Libraries...)
		if kitted[app.Meta.Package] && hasPrefix(app.Libraries, sharedKit) {
			t.Fatalf("%s: kit detected below the thresholds", app.Meta.Package)
		}
	}

	res, err := ing.Apply(ingest.Delta{Seq: 1, Listings: delta})
	if err != nil {
		t.Fatalf("delta batch: %v", err)
	}
	if res.Redetected != len(kitted) || res.Sealed {
		t.Fatalf("delta batch %+v: want %d redetections and an unsealed engine", res, len(kitted))
	}

	next := ing.Dataset()
	for i, old := range prevApps {
		cur := next.Apps[i]
		if !kitted[old.Meta.Package] {
			if cur != old {
				t.Fatalf("%s: unchanged app got a new pointer", old.Meta.Package)
			}
			continue
		}
		if cur == old {
			t.Fatalf("%s: re-detected app kept its old pointer", old.Meta.Package)
		}
		if !hasPrefix(cur.Libraries, sharedKit) {
			t.Fatalf("%s: kit not detected after crossing the thresholds: %+v", old.Meta.Package, cur.Libraries)
		}
		if cur.Parsed != old.Parsed || cur.AVReport != old.AVReport || cur.PermUsage != old.PermUsage {
			t.Fatalf("%s: the copy does not share the archive-pure artifacts", old.Meta.Package)
		}
	}
	for i, app := range prev.Apps {
		if app != prevApps[i] || !reflect.DeepEqual(app.Libraries, prevLibs[i]) {
			t.Fatalf("%s: the previous epoch's app changed", prevApps[i].Meta.Package)
		}
	}

	// The cold oracle sees the union in the ingestor's dataset order.
	var unionRecords []appmeta.Record
	apks := map[appmeta.Key][]byte{}
	seen := map[appmeta.Key]bool{}
	for _, batch := range [][]ingest.Listing{base, delta} {
		for _, l := range ingest.Kept(seen, batch) {
			unionRecords = append(unionRecords, l.Record)
			if l.APK != nil {
				apks[l.Record.Key()] = l.APK
			}
		}
	}
	cold, err := analysis.BuildDatasetFromRecords(snap.CrawlTime, unionRecords, analysis.APKBytesOf(apks), analysis.BuildOptions{})
	if err != nil {
		t.Fatalf("cold build: %v", err)
	}
	cold.Enrich(opts)
	requireEquivalent(t, rand.New(rand.NewSource(7)), next.QuerySource(), cold.QuerySource())
}

func hasPrefix(dets []libdetect.Detection, prefix string) bool {
	for _, det := range dets {
		if det.Prefix == prefix {
			return true
		}
	}
	return false
}
