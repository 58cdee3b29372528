package main

import "time"

// layers gathers what a traced run observed, layer by layer. Every workload
// reports every per-layer metric: a layer a workload does not exercise reads
// zero because no span or counter of that layer fired, which is how the
// predicted zeros (no analysis work on serve, no paging on study and ingest)
// are checked rather than assumed.
type layers struct {
	spans []span

	// analysis
	parseFailed int
	// ingest: per acked delta, the server-side apply latency and the rest of
	// the ack (ms)
	apply, handler    []float64
	redetected, prior int
	sealed, deltas    int
	snapshotTime      time.Duration
	deltaBytes        int64
	fs                fsTotals
	walReplayed       int64
	swaps             []float64
	// serving
	cacheHits, cacheMisses int64
	shed, timeouts         int64
	queryTimes, overheads  []float64
	// paging
	pageFetches, pageEvictions int64
	residentPeak               int64
	// runtime over the measured phase
	allocMB, gcCycles float64
	// the workload's end-to-end timings measured under tracing, to set against
	// the untraced run's: their difference is the tracing overhead
	tracedOp, tracedRead, tracedRestart float64
}

// fsTotals is a point-in-time copy of fsCounters, so a phase can be reported
// as the difference of two copies.
type fsTotals struct {
	walBytes, snapshotBytes, fsyncs, fsyncNanos, pageReadBytes, snapshots int64
}

func (c *fsCounters) totals() fsTotals {
	if c == nil {
		return fsTotals{}
	}
	return fsTotals{
		walBytes:      c.walBytes.Load(),
		snapshotBytes: c.snapshotBytes.Load(),
		fsyncs:        c.fsyncs.Load(),
		fsyncNanos:    c.fsyncNanos.Load(),
		pageReadBytes: c.pageReadBytes.Load(),
		snapshots:     c.snapshotRenames.Load(),
	}
}

func (a fsTotals) plus(b fsTotals) fsTotals { return a.minus(fsTotals{}.minus(b)) }

// per divides every total by n, for counters reported per cycle.
func (a fsTotals) per(n int64) fsTotals {
	return fsTotals{
		walBytes:      a.walBytes / n,
		snapshotBytes: a.snapshotBytes / n,
		fsyncs:        a.fsyncs / n,
		fsyncNanos:    a.fsyncNanos / n,
		pageReadBytes: a.pageReadBytes / n,
		snapshots:     a.snapshots / n,
	}
}

func (a fsTotals) minus(b fsTotals) fsTotals {
	return fsTotals{
		walBytes:      a.walBytes - b.walBytes,
		snapshotBytes: a.snapshotBytes - b.snapshotBytes,
		fsyncs:        a.fsyncs - b.fsyncs,
		fsyncNanos:    a.fsyncNanos - b.fsyncNanos,
		pageReadBytes: a.pageReadBytes - b.pageReadBytes,
		snapshots:     a.snapshots - b.snapshots,
	}
}

// perParent sums the durations of the spans named name under each parent and
// returns the sums in seconds: one value per pass for stages a pass runs
// more than once, one per span otherwise.
func perParent(spans []span, name string) []float64 {
	sums := map[int]time.Duration{}
	var order []int
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		if _, seen := sums[s.Parent]; !seen {
			order = append(order, s.Parent)
		}
		sums[s.Parent] += s.dur()
	}
	out := make([]float64, 0, len(order))
	for _, p := range order {
		out = append(out, secs(sums[p]))
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// report sets every per-layer metric.
func (l *layers) report(m metrics) {
	stage := func(name, span string) { m.set(name, "s", median(perParent(l.spans, span))) }
	stage("synth.generate_s", "synth.generate")
	stage("synth.populate_s", "synth.populate")
	stage("crawler.snapshot_s", "crawler.snapshot")
	stage("analysis.build_s", "analysis.build")
	stage("analysis.enrich_s", "analysis.enrich")
	stage("analysis.misbehavior_s", "analysis.misbehavior")
	stage("core.analyses_s", "core.analyses")
	stage("report.render_s", "report.render")
	stage("durable.recover_s", "durable.recover")
	stage("durable.open_s", "durable.open")
	m.set("analysis.parse_failed", "count", float64(l.parseFailed))

	m.set("ingest.handler_p50_ms", "ms", median(l.handler))
	m.set("durable.apply_p50_ms", "ms", median(l.apply))
	m.set("analysis.redetect_useful_ratio", "ratio", ratio(float64(l.redetected), float64(l.prior)))
	m.set("ingest.sealed_ratio", "ratio", ratio(float64(l.sealed), float64(l.deltas)))
	m.set("durable.fsyncs", "count", float64(l.fs.fsyncs))
	m.set("durable.fsync_s", "s", secs(time.Duration(l.fs.fsyncNanos)))
	m.set("durable.snapshots", "count", float64(l.fs.snapshots))
	m.set("durable.snapshot_s", "s", secs(l.snapshotTime))
	m.set("durable.wal_bytes", "B", float64(l.fs.walBytes))
	m.set("durable.snapshot_bytes", "B", float64(l.fs.snapshotBytes))
	m.set("durable.write_amp", "ratio", ratio(float64(l.fs.walBytes+l.fs.snapshotBytes), float64(l.deltaBytes)))
	m.set("durable.wal_replayed", "count", float64(l.walReplayed))
	m.set("market.swap_p50_ms", "ms", median(l.swaps))

	m.set("market.cache_hit_ratio", "ratio", ratio(float64(l.cacheHits), float64(l.cacheHits+l.cacheMisses)))
	m.set("market.shed", "count", float64(l.shed))
	m.set("market.timeouts", "count", float64(l.timeouts))
	m.set("market.overhead_p50_ms", "ms", median(l.overheads))
	m.set("query.time_p50_ms", "ms", median(l.queryTimes))
	p99, _ := percentile(l.queryTimes, 0.99)
	m.set("query.time_p99_ms", "ms", p99)
	m.set("query.page_fetches", "count", float64(l.pageFetches))
	m.set("query.page_evictions", "count", float64(l.pageEvictions))
	m.set("query.page_read_mb", "MB", float64(l.fs.pageReadBytes)/(1<<20))
	m.set("query.resident_peak_mb", "MB", float64(l.residentPeak)/(1<<20))

	m.set("runtime.alloc_mb", "MB", l.allocMB)
	m.set("runtime.gc_cycles", "count", l.gcCycles)

	m.set("trace.op_p50_ms", "ms", l.tracedOp)
	m.set("trace.read_p50_ms", "ms", l.tracedRead)
	m.set("trace.restart_s", "s", l.tracedRestart)
}
