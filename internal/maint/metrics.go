package maint

import "oodb/internal/obs"

// Automatic compaction metrics (obs registry), cost beside gain (auto.go):
// how many rewrites the manager started on its own, what they wrote (the
// pages and record bytes of the fresh segments — the reorganisation I/O),
// how long each excluded writers of its class, and how often the quiet and
// hysteresis rules held one back. The gain is the foreground's:
// storage_buffer_fetch_misses per operation. Every compaction, automatic
// or on demand, also counts on core_compact_*.
var (
	mAutoCompactions    = obs.RegisterCounter("maint_auto_compactions_total")
	mAutoPagesRewritten = obs.RegisterCounter("maint_auto_pages_rewritten")
	mAutoBytesRewritten = obs.RegisterCounter("maint_auto_bytes_rewritten")
	mAutoLockNs         = obs.RegisterHistogram("maint_auto_lock_held_ns")
	mAutoSkipQuiet      = obs.RegisterCounter("maint_auto_skipped_quiet_total")
	mAutoSkipHysteresis = obs.RegisterCounter("maint_auto_skipped_hysteresis_total")
	mAutoErrors         = obs.RegisterCounter("maint_auto_errors_total")
)
