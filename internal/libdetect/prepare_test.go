package libdetect

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"marketscope/internal/dex"
	"marketscope/internal/signing"
)

// detectReference is Detect as a single pass, before it was split into
// Prepare and Resolve. It is kept as the oracle the split is held to.
func detectReference(d *Detector, code *dex.File, ownPackage string) []Detection {
	var out []Detection
	byCatalogPrefix := map[string]*Detection{}
	matchedClasses := map[string]bool{}
	for _, c := range code.Classes {
		if ownPackage != "" && dex.UnderPrefix(c.Name, ownPackage) {
			continue
		}
		lib, ok := d.catalog.Match(dex.PackageOf(c.Name))
		if !ok {
			continue
		}
		det := byCatalogPrefix[lib.Prefix]
		if det == nil {
			det = &Detection{Prefix: lib.Prefix, Library: lib, Known: true}
			byCatalogPrefix[lib.Prefix] = det
		}
		det.Classes++
		matchedClasses[c.Name] = true
	}
	seenPrefix := map[string]bool{}
	for _, det := range byCatalogPrefix {
		det.Feature, _ = FeatureOf(code, det.Prefix)
		seenPrefix[det.Library.Prefix] = true
		out = append(out, *det)
	}
	for _, prefix := range candidatePrefixes(code, ownPackage) {
		classes := code.ClassesUnderPrefix(prefix)
		if len(classes) == 0 {
			continue
		}
		unmatched := 0
		for _, c := range classes {
			if !matchedClasses[c.Name] {
				unmatched++
			}
		}
		if unmatched == 0 {
			continue
		}
		feature, classCount := FeatureOf(code, prefix)
		if d.db == nil || !d.db.IsLibraryFeature(feature) {
			continue
		}
		det := Detection{Prefix: prefix, Classes: classCount, Feature: feature,
			Library: Library{Prefix: prefix, Name: "unknown"}}
		if canonical, ok := d.db.CanonicalPrefix(feature); ok {
			if lib, ok := d.catalog.Match(canonical); ok {
				det.Library = lib
				det.Known = true
			} else {
				det.Library = Library{Prefix: canonical, Name: "unknown"}
			}
		}
		if det.Known && seenPrefix[det.Library.Prefix] {
			continue
		}
		if det.Known {
			seenPrefix[det.Library.Prefix] = true
		}
		out = append(out, det)
	}
	filtered := out[:0]
	for _, det := range out {
		if det.Known {
			filtered = append(filtered, det)
			continue
		}
		covered := false
		for _, other := range out {
			if other.Known && other.Prefix != det.Prefix && strings.HasPrefix(other.Prefix, det.Prefix+".") {
				covered = true
				break
			}
		}
		if !covered {
			filtered = append(filtered, det)
		}
	}
	out = filtered
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix < out[j].Prefix })
	return out
}

// renamed returns a copy of code with every class under from moved to to.
func renamed(code *dex.File, from, to string) *dex.File {
	out := code.Clone()
	for i, c := range out.Classes {
		if dex.UnderPrefix(c.Name, from) {
			out.Classes[i].Name = to + strings.TrimPrefix(c.Name, from)
		}
	}
	return out
}

type prepareApp struct {
	code *dex.File
	pkg  string
	dev  signing.Fingerprint
}

// TestPrepareIsDBIndependent prepares several apps once, against an empty
// database, then grows the database one observation at a time. After every
// step the cached candidates must resolve to exactly what a fresh Detect
// (and the single-pass reference) returns under that database. The sequence
// is built so that an unlabeled library crosses the learning thresholds, a
// feature's canonical prefix flips from a renamed prefix to its catalog
// name, and a renamed copy resolves to that catalog entry.
func TestPrepareIsDBIndependent(t *testing.T) {
	devs := []signing.Fingerprint{{1}, {2}, {3}}
	app := func(pkg string, dev int, libs ...string) prepareApp {
		return prepareApp{appWithLibraries(pkg, libs...), pkg, devs[dev]}
	}
	renamedApp := func(pkg string, dev int, from, to string, libs ...string) prepareApp {
		a := app(pkg, dev, append([]string{from}, libs...)...)
		a.code = renamed(a.code, from, to)
		return a
	}
	observations := []prepareApp{
		app("com.a.one", 0, "com.umeng", "org.sharedkit"),
		renamedApp("com.b.two", 0, "com.umeng", "x.y"),
		renamedApp("com.c.three", 1, "com.umeng", "x.y", "org.sharedkit"),
		renamedApp("com.d.four", 1, "com.umeng", "x.y"),
		// The unlabeled library reaches 3 apps from 2 developers.
		app("com.e.five", 2, "com.umeng", "org.sharedkit"),
		// com.umeng ties x.y (3 each) and wins the tie by name.
		app("com.f.six", 2, "com.umeng"),
		app("com.g.seven", 0, "com.google.ads", "com.google.zz"),
		app("com.h.eight", 1, "com.google.ads", "com.google.zz"),
		app("com.i.nine", 2, "com.google.ads", "com.google.zz"),
	}
	subjects := append([]prepareApp{
		renamedApp("com.victim.app", 0, "com.umeng", "x.y"),
		renamedApp("com.victim.other", 1, "org.sharedkit", "p.q"),
	}, observations...)

	preparer := NewDetector(nil, nil)
	prepared := make([]*Prepared, len(subjects))
	for i, s := range subjects {
		prepared[i] = preparer.Prepare(s.code, s.pkg)
	}

	db := NewFeatureDB(3, 2)
	viaPrepared := NewFeatureDB(3, 2)
	history := make([][][]Detection, len(subjects))
	for step, o := range observations {
		db.Observe(o.code, o.pkg, o.dev)
		viaPrepared.ObservePrepared(preparer.Prepare(o.code, o.pkg), o.dev)
		if !reflect.DeepEqual(db.features, viaPrepared.features) {
			t.Fatalf("step %d: ObservePrepared learned a different database than Observe", step)
		}
		d := NewDetector(nil, db)
		for i, s := range subjects {
			got := d.Resolve(prepared[i])
			want := d.Detect(s.code, s.pkg)
			ref := detectReference(d, s.code, s.pkg)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, ref) {
				t.Fatalf("step %d, %s: cached candidates resolved to\n%+v\nfresh Detect\n%+v\nreference\n%+v", step, s.pkg, got, want, ref)
			}
			history[i] = append(history[i], got)
		}
	}

	// The sequence must really exercise what it was built for.
	find := func(dets []Detection, prefix string) (Detection, bool) {
		for _, det := range dets {
			if det.Prefix == prefix {
				return det, true
			}
		}
		return Detection{}, false
	}
	victim, other := history[0], history[1]
	if _, ok := find(victim[0], "x.y"); ok {
		t.Error("renamed copy detected before its feature was learned")
	}
	if det, ok := find(victim[3], "x.y"); !ok || det.Known || det.Library.Prefix != "x.y" {
		t.Errorf("after 4 observations the renamed copy should be an unknown library named x.y, got %+v (found %v)", det, ok)
	}
	if det, ok := find(victim[5], "x.y"); !ok || !det.Known || det.Library.Name != "Umeng" {
		t.Errorf("after the canonical flip the renamed copy should resolve to Umeng, got %+v (found %v)", det, ok)
	}
	if _, ok := find(other[3], "p.q"); ok {
		t.Error("unlabeled library detected below the learning thresholds")
	}
	if det, ok := find(other[4], "p.q"); !ok || det.Known {
		t.Errorf("unlabeled library should be detected once it crosses the thresholds, got %+v (found %v)", det, ok)
	}
	final := history[len(history)-1]
	last := final[len(final)-1]
	if _, ok := find(last, "com.google.zz"); !ok {
		t.Errorf("recurring unlabeled sibling of a catalog library not detected: %+v", last)
	}
	if _, ok := find(last, "com.google"); ok {
		t.Error("coarse prefix covering a resolved library was not filtered")
	}
}
