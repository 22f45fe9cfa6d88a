package server

import (
	"oodb/internal/obs"
	"oodb/internal/server/proto"
)

// Server metrics, layer "server". The gauges are not just reporting: the
// admission controller reads the same counters it publishes here
// (sessions, in-flight requests) to decide handshake rejection and
// in-flight shedding, so /metrics always shows the exact state the
// controller acted on.
var (
	// Sessions.
	mSessionsActive   = obs.RegisterGauge("server_sessions_active")
	mSessionsOpened   = obs.RegisterCounter("server_sessions_opened_total")
	mSessionsEvicted  = obs.RegisterCounter("server_sessions_evicted_total")
	mSessionsRejected = obs.RegisterCounter("server_sessions_rejected_total")

	// Requests. Per-verb counters follow server_requests_<verb>_total.
	mReqInflight  = obs.RegisterGauge("server_requests_inflight")
	mReqShed      = obs.RegisterCounter("server_requests_shed_total")
	mReqErrors    = obs.RegisterCounter("server_requests_errors_total")
	mReqLatencyNs = obs.RegisterHistogram("server_request_latency_ns")

	// mReqVerb counts requests per verb, indexed by verb; the handshake
	// is not counted.
	mReqVerb = [...]*obs.Counter{
		proto.VerbQuery:         obs.RegisterCounter("server_requests_query_total"),
		proto.VerbQuerySnapshot: obs.RegisterCounter("server_requests_snapshot_total"),
		proto.VerbFetch:         obs.RegisterCounter("server_requests_fetch_total"),
		proto.VerbGet:           obs.RegisterCounter("server_requests_get_total"),
		proto.VerbInsert:        obs.RegisterCounter("server_requests_insert_total"),
		proto.VerbUpdate:        obs.RegisterCounter("server_requests_update_total"),
		proto.VerbDelete:        obs.RegisterCounter("server_requests_delete_total"),
		proto.VerbBegin:         obs.RegisterCounter("server_requests_begin_total"),
		proto.VerbCommit:        obs.RegisterCounter("server_requests_commit_total"),
		proto.VerbCommitAsync:   obs.RegisterCounter("server_requests_commitasync_total"),
		proto.VerbAbort:         obs.RegisterCounter("server_requests_abort_total"),
		proto.VerbPing:          obs.RegisterCounter("server_requests_ping_total"),
		proto.VerbClasses:       obs.RegisterCounter("server_requests_classes_total"),
	}

	// Wire traffic.
	mBytesIn  = obs.RegisterCounter("server_bytes_in_total")
	mBytesOut = obs.RegisterCounter("server_bytes_out_total")

	// Lifecycle.
	mConnPanics  = obs.RegisterCounter("server_conn_panics_total")
	mDrainAborts = obs.RegisterCounter("server_drain_aborted_txns_total")
	mDrains      = obs.RegisterCounter("server_drain_started_total")
)
