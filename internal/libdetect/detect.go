package libdetect

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"marketscope/internal/dex"
	"marketscope/internal/signing"
)

// Detection is one third-party library found in an app.
type Detection struct {
	// Prefix is the package prefix the library occupies inside the app.
	// When an obfuscator renamed the package, this is the renamed prefix;
	// the Feature hash is what identified it.
	Prefix string
	// Library is the catalog entry when the library is known; for
	// cluster-learned but unlabeled libraries Name is "unknown" and the
	// category is empty.
	Library Library
	// Known reports whether the detection was resolved to a catalog entry.
	Known bool
	// Classes is the number of classes attributed to the library.
	Classes int
	// Feature is the hex feature hash that matched (empty for pure
	// catalog-prefix matches).
	Feature string
}

// IsAd reports whether the detection is an advertising library.
func (d Detection) IsAd() bool { return d.Known && d.Library.IsAd() }

// prefixDepth is the package depth at which candidate library prefixes are
// extracted. Depth 2 captures "com.umeng" and "com.baidu"; nested catalog
// prefixes such as "com.google.ads" are handled by also extracting depth 3.
const (
	prefixDepthCoarse = 2
	prefixDepthFine   = 3
	// minFeatureAPIs is the minimum number of API references a prefix needs
	// before it can serve as a clustering feature; tiny prefixes carry too
	// little signal and would collide.
	minFeatureAPIs = 3
)

// FeatureOf computes the obfuscation-resilient feature of a package prefix
// within an app: the SHA-256 of the sorted multiset of framework API calls
// made by classes under that prefix. Renaming packages or classes does not
// change the feature; changing behaviour does.
func FeatureOf(code *dex.File, prefix string) (string, int) {
	feature, classes, _, _ := prefixFeature(code, prefix, nil)
	return feature, classes
}

// prefixFeature is FeatureOf plus the by-products of the same pass over the
// prefix's classes: the total number of API references (the Observe gate)
// and whether any class is absent from matched (the clustering gate; with a
// nil matched set every class counts as unmatched).
func prefixFeature(code *dex.File, prefix string, matched map[string]bool) (feature string, classes, apis int, unmatched bool) {
	apiCounts := map[string]int{}
	for _, c := range code.Classes {
		if !dex.UnderPrefix(c.Name, prefix) {
			continue
		}
		classes++
		if !matched[c.Name] {
			unmatched = true
		}
		for _, m := range c.Methods {
			apis += len(m.APICalls)
			for _, call := range m.APICalls {
				apiCounts[call]++
			}
		}
	}
	if classes == 0 {
		return "", 0, 0, false
	}
	calls := make([]string, 0, len(apiCounts))
	for call := range apiCounts {
		calls = append(calls, call)
	}
	sort.Strings(calls)
	h := sha256.New()
	var buf [4]byte
	for _, call := range calls {
		binary.LittleEndian.PutUint32(buf[:], uint32(len(call)))
		h.Write(buf[:])
		h.Write([]byte(call))
		binary.LittleEndian.PutUint32(buf[:], uint32(apiCounts[call]))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)), classes, apis, unmatched
}

// candidatePrefixes returns the package prefixes of an app worth considering
// as library homes, at both coarse and fine depth, excluding the app's own
// package prefix (host code is not a third-party library).
func candidatePrefixes(code *dex.File, ownPackage string) []string {
	set := map[string]bool{}
	ownCoarse := dex.PackagePrefix(ownPackage, prefixDepthCoarse)
	for _, pc := range code.TopLevelPackages(prefixDepthCoarse) {
		if pc.Package == ownCoarse || pc.Package == ownPackage {
			continue
		}
		set[pc.Package] = true
	}
	for _, pc := range code.TopLevelPackages(prefixDepthFine) {
		if pc.Package == ownPackage || dex.PackagePrefix(pc.Package, prefixDepthCoarse) == ownCoarse {
			continue
		}
		set[pc.Package] = true
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// candidate is one candidate prefix of an app with everything the feature
// database and the clustering pass need to know about it.
type candidate struct {
	prefix  string
	feature string
	classes int
	// apis is the number of API references under the prefix; prefixes below
	// minFeatureAPIs are not learned as features.
	apis int
	// unmatched reports whether some class under the prefix escaped the
	// catalog pass; only such prefixes are clustered.
	unmatched bool
}

// prepareCandidates hashes every candidate prefix that owns at least one
// class, in prefix order. matched holds the classes the catalog pass
// explained (nil when only the feature database consumes the result).
func prepareCandidates(code *dex.File, ownPackage string, matched map[string]bool) []candidate {
	prefixes := candidatePrefixes(code, ownPackage)
	out := make([]candidate, 0, len(prefixes))
	for _, prefix := range prefixes {
		c := candidate{prefix: prefix}
		c.feature, c.classes, c.apis, c.unmatched = prefixFeature(code, prefix, matched)
		if c.classes > 0 {
			out = append(out, c)
		}
	}
	return out
}

// FeatureDB is the learned library feature database: feature hash ->
// observation statistics. It plays the role of LibRadar's pre-computed
// feature dataset, which the paper rebuilt from its own 6 M-app corpus
// because the published one was stale and Google-Play-centric.
type FeatureDB struct {
	// MinApps is the minimum number of distinct apps a feature must appear
	// in to be considered a library.
	MinApps int
	// MinDevelopers is the minimum number of distinct developers; code
	// recurring across unrelated developers is almost certainly a library
	// rather than shared in-house code.
	MinDevelopers int

	features map[string]*featureStats
}

type featureStats struct {
	apps       int
	developers map[signing.Fingerprint]bool
	prefixes   map[string]int
}

// NewFeatureDB creates an empty feature database with the given clustering
// thresholds. Non-positive thresholds default to 3 apps from 2 developers.
func NewFeatureDB(minApps, minDevelopers int) *FeatureDB {
	if minApps <= 0 {
		minApps = 3
	}
	if minDevelopers <= 0 {
		minDevelopers = 2
	}
	return &FeatureDB{
		MinApps:       minApps,
		MinDevelopers: minDevelopers,
		features:      make(map[string]*featureStats),
	}
}

// Observe adds one app's candidate prefixes to the database. ownPackage is
// the app's manifest package; developer is its signing identity.
func (db *FeatureDB) Observe(code *dex.File, ownPackage string, developer signing.Fingerprint) {
	db.ObservePrepared(&Prepared{candidates: prepareCandidates(code, ownPackage, nil)}, developer)
}

// ObservePrepared is Observe over an app's already prepared candidates
// (Detector.Prepare), so enrichment hashes each (archive, prefix) pair once
// for both learning and detection.
func (db *FeatureDB) ObservePrepared(p *Prepared, developer signing.Fingerprint) {
	for _, c := range p.candidates {
		if c.apis < minFeatureAPIs {
			continue
		}
		st, ok := db.features[c.feature]
		if !ok {
			st = &featureStats{developers: make(map[signing.Fingerprint]bool), prefixes: make(map[string]int)}
			db.features[c.feature] = st
		}
		st.apps++
		st.developers[developer] = true
		st.prefixes[c.prefix]++
	}
}

// Merge folds the observations of other into db, leaving other unchanged.
// Merging is commutative and associative — app counts add, developer sets
// union, prefix counts add — so a corpus sharded across per-worker databases
// merges to exactly the database a serial Observe loop would have built, in
// any merge order. The thresholds of db are kept; other's are ignored.
func (db *FeatureDB) Merge(other *FeatureDB) {
	if other == nil {
		return
	}
	for feature, src := range other.features {
		dst, ok := db.features[feature]
		if !ok {
			dst = &featureStats{developers: make(map[signing.Fingerprint]bool, len(src.developers)), prefixes: make(map[string]int, len(src.prefixes))}
			db.features[feature] = dst
		}
		dst.apps += src.apps
		for dev := range src.developers {
			dst.developers[dev] = true
		}
		for prefix, n := range src.prefixes {
			dst.prefixes[prefix] += n
		}
	}
}

// IsLibraryFeature reports whether the feature hash has been observed widely
// enough to be considered a library.
func (db *FeatureDB) IsLibraryFeature(feature string) bool {
	st, ok := db.features[feature]
	if !ok {
		return false
	}
	return st.apps >= db.MinApps && len(st.developers) >= db.MinDevelopers
}

// CanonicalPrefix returns the most common package prefix observed for a
// library feature, which recovers the original (unobfuscated) name for
// features that are usually shipped unrenamed.
func (db *FeatureDB) CanonicalPrefix(feature string) (string, bool) {
	st, ok := db.features[feature]
	if !ok {
		return "", false
	}
	best, bestCount := "", 0
	for p, n := range st.prefixes {
		if n > bestCount || (n == bestCount && p < best) {
			best, bestCount = p, n
		}
	}
	return best, best != ""
}

// NumFeatures returns the number of distinct features observed (library or
// not).
func (db *FeatureDB) NumFeatures() int { return len(db.features) }

// NumLibraries returns the number of features that qualify as libraries.
func (db *FeatureDB) NumLibraries() int {
	n := 0
	for f := range db.features {
		if db.IsLibraryFeature(f) {
			n++
		}
	}
	return n
}

// Detector combines the labeled catalog with an optional learned feature
// database. Once built it is read-only: Detect, Prepare, Resolve and
// LibraryPrefixesIn are safe to call from concurrent enrichment workers (the
// feature database must not receive further Observe/Merge calls while
// detections run).
type Detector struct {
	catalog *Catalog
	db      *FeatureDB
}

// NewDetector builds a detector. A nil catalog uses the built-in one; a nil
// db disables clustering-based detection (catalog prefixes only).
func NewDetector(catalog *Catalog, db *FeatureDB) *Detector {
	if catalog == nil {
		catalog = DefaultCatalog()
	}
	return &Detector{catalog: catalog, db: db}
}

// Catalog returns the detector's catalog.
func (d *Detector) Catalog() *Catalog { return d.catalog }

// Detect returns the third-party libraries embedded in the app; it is
// Resolve(Prepare(code, ownPackage)).
//
// Detection proceeds in two passes. The first matches every non-host class
// against the labeled catalog by package name (longest catalog prefix wins),
// which identifies unobfuscated copies of known libraries regardless of how
// deep their packages nest. The second pass clusters the remaining candidate
// prefixes through the learned feature database, which catches renamed copies
// of known libraries and recurring unlabeled libraries.
func (d *Detector) Detect(code *dex.File, ownPackage string) []Detection {
	return d.Resolve(d.Prepare(code, ownPackage))
}

// Prepared is the archive-pure half of one app's detection: the catalog
// pass's matches and every clustering candidate with its feature hash. It
// depends on the app's code and the detector's catalog only, never on the
// feature database, so it is computed once per app and resolved again under
// every later database. Immutable once built; safe to share.
type Prepared struct {
	// catalog holds the catalog pass's matches, Feature filled, in prefix
	// order.
	catalog    []Detection
	candidates []candidate
}

// Prepare does all of Detect's work that reads the app but not the feature
// database: the catalog pass and the hashing of every candidate prefix.
// The result may be resolved by any detector sharing this one's catalog.
func (d *Detector) Prepare(code *dex.File, ownPackage string) *Prepared {
	// Pass 1: catalog matches by class package.
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
	p := &Prepared{catalog: make([]Detection, 0, len(byCatalogPrefix))}
	for _, det := range byCatalogPrefix {
		det.Feature, _ = FeatureOf(code, det.Prefix)
		p.catalog = append(p.catalog, *det)
	}
	sort.Slice(p.catalog, func(i, j int) bool { return p.catalog[i].Prefix < p.catalog[j].Prefix })
	p.candidates = prepareCandidates(code, ownPackage, matchedClasses)
	return p
}

// Resolve does Detect's database-dependent half over prepared candidates:
// the library-feature threshold, the canonical-prefix lookup, the dedup
// against already resolved libraries and the covered-prefix filter. The
// result equals Detect on the code p was prepared from.
func (d *Detector) Resolve(p *Prepared) []Detection {
	out := append([]Detection(nil), p.catalog...)

	// Pass 2: clustering over the candidate prefixes not already explained
	// by the catalog.
	for _, c := range p.candidates {
		if !c.unmatched || d.db == nil || !d.db.IsLibraryFeature(c.feature) {
			continue
		}
		// Cluster-learned library: try to resolve its canonical prefix to a
		// catalog entry (handles obfuscated copies of known libraries).
		det := Detection{Prefix: c.prefix, Classes: c.classes, Feature: c.feature,
			Library: Library{Prefix: c.prefix, Name: "unknown"}}
		if canonical, ok := d.db.CanonicalPrefix(c.feature); ok {
			if lib, ok := d.catalog.Match(canonical); ok {
				det.Library = lib
				det.Known = true
			} else {
				det.Library = Library{Prefix: canonical, Name: "unknown"}
			}
		}
		if det.Known && resolvedLibrary(out, det.Library.Prefix) {
			continue
		}
		out = append(out, det)
	}
	// Drop unresolved coarse prefixes that merely contain a resolved
	// library (e.g. the depth-2 "com.google" candidate when
	// "com.google.ads" already matched); keeping them would double-count
	// the same classes under an "unknown" label.
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

// resolvedLibrary reports whether dets already holds a catalog-resolved
// detection of the library with the given catalog prefix.
func resolvedLibrary(dets []Detection, libPrefix string) bool {
	for _, det := range dets {
		if det.Known && det.Library.Prefix == libPrefix {
			return true
		}
	}
	return false
}

// LibraryPrefixesIn returns the in-app package prefixes occupied by detected
// libraries; the clone detector removes these before computing similarity.
func (d *Detector) LibraryPrefixesIn(code *dex.File, ownPackage string) []string {
	dets := d.Detect(code, ownPackage)
	out := make([]string, 0, len(dets))
	for _, det := range dets {
		out = append(out, det.Prefix)
	}
	return out
}

// Summary aggregates detections for one app.
type Summary struct {
	Total   int
	Ad      int
	ByName  map[string]int
	AdNames []string
}

// Summarize counts detections by type.
func Summarize(dets []Detection) Summary {
	s := Summary{ByName: map[string]int{}}
	for _, det := range dets {
		s.Total++
		name := det.Library.Name
		if name == "" {
			name = "unknown"
		}
		s.ByName[name]++
		if det.IsAd() {
			s.Ad++
			s.AdNames = append(s.AdNames, name)
		}
	}
	sort.Strings(s.AdNames)
	return s
}

// String renders the summary compactly for logs.
func (s Summary) String() string {
	return fmt.Sprintf("libraries=%d ads=%d", s.Total, s.Ad)
}
