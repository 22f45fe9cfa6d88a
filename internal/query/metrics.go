package query

import (
	"oodb/internal/obs"
)

// Query-executor metrics (obs registry). Row counts are accumulated
// locally per scan/probe and added once, not per row.
var (
	mRowsScanned  = obs.RegisterCounter("query_scan_rows_examined")
	mRowsMatched  = obs.RegisterCounter("query_scan_rows_matched")
	mIndexProbes  = obs.RegisterCounter("query_probe_index_lookups")
	mEarlyExits   = obs.RegisterCounter("query_limit_early_exits")
	mFanoutWidth  = obs.RegisterHistogram("query_scan_fanout_width")
	mQueriesTotal = obs.RegisterCounter("query_exec_statements_total")
	// An aggregate statement answered from index keys, a row statement
	// answered from its (key, posting) pairs, and a covered statement of
	// either kind that gave up and ran the heap scan or probe instead.
	mFolds         = obs.RegisterCounter("query_fold_statements_total")
	mIndexOnly     = obs.RegisterCounter("query_index_only_statements_total")
	mFoldFallbacks = obs.RegisterCounter("query_fold_fallbacks_total")
	// A statement planned again (ErrStalePlan).
	mReplans = obs.RegisterCounter("query_replans_total")
)
