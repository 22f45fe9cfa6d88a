package main

import (
	"time"

	"oodb/internal/model"
	"oodb/internal/obs"
	"oodb/internal/server/proto"
)

// metricDef names one metric, in the shape BENCHMARK.json lists it. The
// tables below carry no bounds: BENCHMARK.json fixes those, and a test holds
// the file's names, units and directions to the tables'.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// The end-to-end metrics: what a user of the database sees. They are
// measured with tracing off. failed_share is not among them because the
// driver's contract wants metrics that are never 0; it travels as the
// result's attempted/failed pair and as a layer line.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "op/s", Better: "higher"},
	{Name: "p50_us", Unit: "us", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

// The per-layer ledger, from the layer pass (--trace 1). A metric that does
// not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{Name: "p99_us", Unit: "us", Better: "lower"}, // demoted from end-to-end: see README
	{Name: "failed_share", Unit: "ratio", Better: "lower"},
	{Name: "trace_overhead", Unit: "ratio", Better: "lower"},
	{Name: "query.parse_us", Unit: "us", Better: "lower"},
	{Name: "query.plan_us", Unit: "us", Better: "lower"},
	{Name: "query.exec_us", Unit: "us", Better: "lower"},
	{Name: "query.rows_examined_per_row", Unit: "ratio", Better: "lower"},
	{Name: "index.lookups_per_op", Unit: "1/op", Better: "lower"},
	{Name: "index.probe_depth", Unit: "levels", Better: "lower"},
	{Name: "storage.buffer_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "storage.page_reads_per_op", Unit: "1/op", Better: "lower"},
	{Name: "storage.evictions_per_op", Unit: "1/op", Better: "lower"},
	{Name: "storage.page_read_us", Unit: "us", Better: "lower"},
	{Name: "storage.fetch_us", Unit: "us", Better: "lower"},
	{Name: "storage.space_amp", Unit: "ratio", Better: "lower"},
	{Name: "storage.write_amp", Unit: "ratio", Better: "lower"},
	{Name: "wal.fsyncs_per_commit", Unit: "ratio", Better: "lower"},
	{Name: "wal.group_batch", Unit: "count", Better: "higher"},
	{Name: "wal.fsync_us", Unit: "us", Better: "lower"},
	{Name: "wal.commit_wait_us", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_commit", Unit: "B", Better: "lower"},
	{Name: "core.commit_us", Unit: "us", Better: "lower"},
	{Name: "core.checkpoints", Unit: "count", Better: "lower"},
	{Name: "core.checkpoint_ms_total", Unit: "ms", Better: "lower"},
	{Name: "mvcc.snapshot_reads_per_op", Unit: "1/op", Better: "lower"},
	{Name: "mvcc.chain_length", Unit: "versions", Better: "lower"},
	{Name: "server.request_us", Unit: "us", Better: "lower"},
	{Name: "server.bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "server.sheds", Unit: "count", Better: "lower"},
	{Name: "proto.encode_us", Unit: "us", Better: "lower"},
	{Name: "proto.decode_us", Unit: "us", Better: "lower"},
	{Name: "wire.overhead_us", Unit: "us", Better: "lower"},
	{Name: "shard.scatter_us", Unit: "us", Better: "lower"},
	{Name: "shard.router_overhead_us", Unit: "us", Better: "lower"},
	{Name: "shard.retries", Unit: "count", Better: "lower"},
	{Name: "shard.partials", Unit: "count", Better: "lower"},
}

// delta is the change of the process-wide obs registry over a window. All
// databases, servers and routers of a run live in this process, so it sums
// over shard members.
type delta struct{ a, b obs.Snapshot }

func (d delta) counter(name string) float64 {
	return float64(d.b.Counters[name] - d.a.Counters[name])
}

func (d delta) count(hist string) float64 {
	return float64(d.b.Histograms[hist].Count - d.a.Histograms[hist].Count)
}

func (d delta) sum(hist string) float64 {
	return float64(d.b.Histograms[hist].Sum - d.a.Histograms[hist].Sum)
}

// mean of the observations a histogram took inside the window.
func (d delta) mean(hist string) float64 { return ratio(d.sum(hist), d.count(hist)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// window is what the layer metrics are computed from.
type window struct {
	d       delta   // registry change over the untraced window
	ops     float64 // operations completed in it
	rows    float64 // result rows the clients received in it
	written float64 // user bytes the clients wrote in it
	spans   []span  // the traced window's spans
}

// layerMetrics fills the ledger. Counter ratios come from the untraced
// window; timed calls come from the traced window's spans.
func layerMetrics(w window, in *instance, diskBytes int64) map[string]float64 {
	d := w.d
	m := map[string]float64{}
	spanMean := func(name string) float64 { return mean(spanDurationsUS(w.spans, name)) }

	m["query.parse_us"] = spanMean("query.Parse")
	m["query.plan_us"] = spanMean("query.Engine.PlanQuery")
	m["query.exec_us"] = spanMean("query.Engine.Execute")
	m["query.rows_examined_per_row"] = ratio(d.counter("query_scan_rows_examined"), w.rows)
	m["index.lookups_per_op"] = ratio(d.counter("index_probe_lookups_total"), w.ops)
	m["index.probe_depth"] = d.mean("index_probe_depth_levels")

	hits, misses := d.counter("storage_buffer_fetch_hits"), d.counter("storage_buffer_fetch_misses")
	m["storage.buffer_hit_rate"] = ratio(hits, hits+misses)
	m["storage.page_reads_per_op"] = ratio(d.count("storage_page_read_ns"), w.ops)
	m["storage.evictions_per_op"] = ratio(d.counter("storage_buffer_evictions_total"), w.ops)
	m["storage.page_read_us"] = d.mean("storage_page_read_ns") / 1e3
	m["storage.fetch_us"] = spanMean("oodb.DB.Fetch")
	m["storage.space_amp"] = ratio(float64(diskBytes), float64(in.userBytes))
	walBytes := d.counter("wal_append_bytes_total")
	m["storage.write_amp"] = ratio(walBytes+d.count("storage_page_write_ns")*4096, w.written)

	// A commit is a group-commit participant: one observation of the
	// commit-wait histogram per transaction that waited for durability.
	commits := d.count("wal_commit_wait_ns")
	m["wal.fsyncs_per_commit"] = ratio(d.count("wal_fsync_latency_ns"), commits)
	m["wal.group_batch"] = d.mean("wal_group_commit_batch")
	m["wal.fsync_us"] = d.mean("wal_fsync_latency_ns") / 1e3
	m["wal.commit_wait_us"] = d.mean("wal_commit_wait_ns") / 1e3
	m["wal.bytes_per_commit"] = ratio(walBytes, commits)
	m["core.commit_us"] = spanMean("core.Tx.Commit")
	m["core.checkpoints"] = d.count("core_checkpoint_duration_ns")
	m["core.checkpoint_ms_total"] = d.sum("core_checkpoint_duration_ns") / 1e6
	m["mvcc.snapshot_reads_per_op"] = ratio(d.counter("txn_snapshot_reads_total"), w.ops)
	m["mvcc.chain_length"] = d.mean("mvcc_chain_length_versions")

	m["server.request_us"] = d.mean("server_request_latency_ns") / 1e3
	m["server.bytes_per_op"] = ratio(d.counter("server_bytes_in_total")+d.counter("server_bytes_out_total"), w.ops)
	m["server.sheds"] = d.counter("server_requests_shed_total")
	m["proto.encode_us"], m["proto.decode_us"] = codecTimes(in.captures)
	if get := spanDurationsUS(w.spans, "client.Client.Get"); len(get) > 0 {
		m["wire.overhead_us"] = percentile(get, 0.5) - percentile(spanDurationsUS(w.spans, "twin.embedded.Get"), 0.5)
	}

	m["shard.scatter_us"] = d.mean("shard_scatter_latency_ns") / 1e3
	m["shard.router_overhead_us"] = routerOverheadUS(w.spans)
	m["shard.retries"] = d.counter("shard_retries_total")
	m["shard.partials"] = d.counter("shard_scatter_partial_total")
	return m
}

// routerOverheadUS is, averaged over the sampled scatter queries, the router
// call's time minus the slowest direct member leg of the same statement.
func routerOverheadUS(spans []span) float64 {
	router := map[int64]int64{}
	slowest := map[int64]int64{}
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "shard.Router.Query":
			router[s.Req] = s.End - s.Start
		case "twin.leg.client.Query":
			slowest[s.Req] = max(slowest[s.Req], s.End-s.Start)
		}
	}
	var over []float64
	for req, dur := range router {
		if leg, ok := slowest[req]; ok {
			over = append(over, float64(dur-leg)/1e3)
		}
	}
	return mean(over)
}

// codecTimes times proto.AppendResult/AppendAttrs (encode) and
// proto.ReadResult/Reader.Attrs (decode) on the payloads captured from the
// run, and returns the mean microseconds per payload.
func codecTimes(captures []*capture) (encodeUS, decodeUS float64) {
	var results []*proto.Result
	var attrs []map[string]model.Value
	for _, c := range captures {
		results = append(results, c.results...)
		attrs = append(attrs, c.attrs...)
	}
	n := len(results) + len(attrs)
	if n == 0 {
		return 0, 0
	}
	const rounds = 50
	var enc, dec time.Duration
	var buf []byte
	for r := 0; r < rounds; r++ {
		for _, res := range results {
			t0 := time.Now()
			buf = proto.AppendResult(buf[:0], res)
			t1 := time.Now()
			_, _ = proto.ReadResult(proto.NewReader(buf))
			enc += t1.Sub(t0)
			dec += time.Since(t1)
		}
		for _, a := range attrs {
			t0 := time.Now()
			buf = proto.AppendAttrs(buf[:0], a)
			t1 := time.Now()
			_ = proto.NewReader(buf).Attrs()
			enc += t1.Sub(t0)
			dec += time.Since(t1)
		}
	}
	per := float64(rounds*n) * 1e3
	return float64(enc) / per, float64(dec) / per
}
