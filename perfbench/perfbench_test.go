package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"marketscope/internal/ingest"
	"marketscope/internal/query"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.90, 90, true}, // samples 91..100 lie beyond
		{99, 0.90, 0, false},  // only 9 beyond
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
		{21, 0.50, 11, true},
		{20, 0.50, 10, true},
		{19, 0.50, 0, false},
		{0, 0.50, 0, false},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if ok != tc.ok || got != tc.want {
			t.Errorf("percentile(n=%d, q=%g) = %g, %v; want %g, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 60 * ms},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms}, // outlives the parent
		{ID: 5, Parent: 2, Name: "a.child", Start: 15 * ms, End: 20 * ms},
		{ID: 6, Parent: 1, Name: "d", Start: 35 * ms, End: 45 * ms}, // inside a ∪ b
	}
	want := []time.Duration{
		100*ms - 50*ms - 10*ms, // covered: [10,60) and [90,100)
		30*ms - 5*ms,
		30 * ms,
		30 * ms,
		5 * ms,
		10 * ms,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 0)
	if id != 0 || tr.end(id) != 0 || tr.closed() != nil || tr.write("unused") != nil {
		t.Fatal("nil tracer recorded something")
	}
	tr2 := newTracer()
	root := tr2.begin("root", 0, 7)
	child := tr2.begin("child", root, 7)
	tr2.end(child)
	tr2.begin("open", root, 0) // never closed: not reported
	tr2.end(root)
	spans := tr2.closed()
	if len(spans) != 2 || spans[0].Name != "root" || spans[1].Parent != root || spans[0].Self > spans[0].dur() {
		t.Fatalf("closed spans = %+v", spans)
	}
}

func TestMetricNames(t *testing.T) {
	for _, name := range []string{"setup_s", "durable.fsync_s", "read-p50.ms", "9lives", strings.Repeat("a", 64)} {
		if !validName(name) {
			t.Errorf("%q refused", name)
		}
	}
	for _, name := range []string{"", "_x", ".x", "a b", "durable/fsync", "p50%", "métrique", strings.Repeat("a", 65)} {
		if validName(name) {
			t.Errorf("%q accepted", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("set accepted an invalid name")
		}
	}()
	metrics{}.set("bad name", "s", 1)
}

// TestPerLayerMatchesBenchmark pins the traced report to the per-layer list
// in BENCHMARK.json, and every declared name to the allowed alphabet.
func TestPerLayerMatchesBenchmark(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bench); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, m := range bench.PerLayer {
		declared = append(declared, m.Name)
	}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		if !validName(m.Name) {
			t.Errorf("BENCHMARK.json declares invalid name %q", m.Name)
		}
	}
	m := metrics{}
	(&layers{}).report(m)
	var reported []string
	for name := range m {
		reported = append(reported, name)
	}
	sort.Strings(declared)
	sort.Strings(reported)
	if strings.Join(declared, ",") != strings.Join(reported, ",") {
		t.Errorf("traced report and BENCHMARK.json disagree:\nreported %v\ndeclared %v", reported, declared)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	encode := func(seed uint64) []byte {
		c, err := newIngestCorpus(seed)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		if err := enc.Encode(ingest.Delta{Listings: c.base}); err != nil {
			t.Fatal(err)
		}
		for i, d := range c.deltas {
			if err := enc.Encode(ingest.Delta{Seq: uint64(i + 1), Listings: d}); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < 60; k++ {
			buf.Write(serveUnseen(seed, k).body)
		}
		return buf.Bytes()
	}
	a, b, c := encode(5), encode(5), encode(6)
	if !bytes.Equal(a, b) {
		t.Error("the same seed generated different inputs")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds generated the same inputs")
	}
}

func TestParseAnswer(t *testing.T) {
	res := &query.Result{Rows: [][]any{{"com.a", 3}}, Meta: query.Meta{TotalMatched: 42, QueryTimeMicros: 17}}
	body, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	a, us, ok := parseAnswer(append(body, '\n'))
	if !ok || a.total != 42 || us != 17 {
		t.Fatalf("parseAnswer = %+v, %d, %v", a, us, ok)
	}
	res.Meta.QueryTimeMicros = 99 // timing is not part of the answer
	body2, _ := json.Marshal(res)
	if b, _, _ := parseAnswer(body2); b != a {
		t.Error("answer depends on query time")
	}
	res.Rows[0][1] = 4
	body3, _ := json.Marshal(res)
	if c, _, _ := parseAnswer(body3); c == a {
		t.Error("answer ignores the rows")
	}
	if _, _, ok := parseAnswer([]byte(`{"error":"x"}`)); ok {
		t.Error("error body parsed as an answer")
	}
}
