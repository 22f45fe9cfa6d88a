package maint

import "oodb/internal/obs"

// Maintenance metrics (obs registry). Sweep counters tell the operator the
// loop is alive; compaction counters quantify what it recovered.
var (
	mSweepRuns         = obs.RegisterCounter("maint_sweep_runs_total")
	mSweepBusy         = obs.RegisterCounter("maint_sweep_busy_yields")
	mSweepNs           = obs.RegisterHistogram("maint_sweep_duration_ns")
	mCompactRuns       = obs.RegisterCounter("maint_compact_segments_total")
	mCompactPagesFreed = obs.RegisterCounter("maint_compact_pages_freed")
	mCompactObjects    = obs.RegisterCounter("maint_compact_objects_moved")
	mCompactNs         = obs.RegisterHistogram("maint_compact_duration_ns")
	mReclaimPages      = obs.RegisterCounter("maint_reclaim_pages_freed")
	mReclaimStarved    = obs.RegisterCounter("maint_reclaim_starved")
	mStatsAnalyzed     = obs.RegisterCounter("maint_stats_classes_analyzed")

	// Automatic compaction, cost beside gain (auto.go): how many rewrites
	// the manager started on its own, what they wrote (the pages and record
	// bytes of the fresh segments — the reorganisation I/O), how long each
	// excluded writers of its class, and how often the quiet and hysteresis
	// rules held one back. The gain is the foreground's:
	// storage_buffer_fetch_misses per operation.
	mAutoCompactions    = obs.RegisterCounter("maint_auto_compactions_total")
	mAutoPagesRewritten = obs.RegisterCounter("maint_auto_pages_rewritten")
	mAutoBytesRewritten = obs.RegisterCounter("maint_auto_bytes_rewritten")
	mAutoLockNs         = obs.RegisterHistogram("maint_auto_lock_held_ns")
	mAutoSkipQuiet      = obs.RegisterCounter("maint_auto_skipped_quiet_total")
	mAutoSkipHysteresis = obs.RegisterCounter("maint_auto_skipped_hysteresis_total")
	mAutoErrors         = obs.RegisterCounter("maint_auto_errors_total")
)
