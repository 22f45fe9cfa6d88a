package core

import (
	"oodb/internal/obs"
)

// Engine-level metrics (obs registry).
var (
	mCkptNs      = obs.RegisterHistogram("core_checkpoint_duration_ns")
	mCkptSkipped = obs.RegisterCounter("core_checkpoint_truncation_skips")
	// Failed Checkpoint calls surfaced by maybeCheckpoint (best-effort
	// auto-checkpoints used to discard these silently; now they count here
	// and emit an obs log line).
	mCkptErrors = obs.RegisterCounter("core_checkpoint_errors_total")
	// Fail-stop poisonings: a commit failed after its effects reached the
	// heap, so the engine refused all further work (see DB.poison).
	mFailStop = obs.RegisterCounter("core_failstop_events_total")

	// Crash-recovery replay shape: total redo ops applied and end-to-end
	// replay latency.
	mReplayOps = obs.RegisterCounter("core_replay_redo_ops_total")
	mReplayNs  = obs.RegisterHistogram("core_replay_duration_ns")

	// Segment compaction (CompactClass) and statistics collection
	// (CompactClass, AnalyzeClass): what the rewrites recovered and how
	// many classes' planner statistics were refreshed.
	mCompactRuns       = obs.RegisterCounter("core_compact_segments_total")
	mCompactPagesFreed = obs.RegisterCounter("core_compact_pages_freed")
	mCompactObjects    = obs.RegisterCounter("core_compact_objects_moved")
	mCompactNs         = obs.RegisterHistogram("core_compact_duration_ns")
	mStatsAnalyzed     = obs.RegisterCounter("core_stats_classes_analyzed")

	// Snapshot-transaction traffic: begins/ends pair up (a leak shows as
	// a widening gap), reads count objects resolved through the overlay
	// path. Chain-shape health lives in internal/mvcc's metrics.
	mSnapBegins = obs.RegisterCounter("txn_snapshot_begins_total")
	mSnapEnds   = obs.RegisterCounter("txn_snapshot_ends_total")
	mSnapReads  = obs.RegisterCounter("txn_snapshot_reads_total")
)
