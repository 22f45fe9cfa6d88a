package wal

import (
	"time"

	"oodb/internal/obs"
)

// Process-wide WAL metrics (obs registry). The per-WAL Syncs counter the
// benchmarks read stays on the struct; these aggregate across instances
// and add the latency/batch shape the counters cannot carry.
//
// Accounting contract: Syncs, wal_fsync_latency_ns and
// wal_group_commit_batch record successful rounds only — a failed fsync
// counts in wal_fsync_errors_total instead, so the batching factor and the
// latency distribution are not polluted by errored syncs that made nothing
// durable.
var (
	mAppendBytes  = obs.RegisterCounter("wal_append_bytes_total")
	mAppendRecs   = obs.RegisterCounter("wal_append_records_total")
	mFsyncNs      = obs.RegisterHistogram("wal_fsync_latency_ns")
	mBatchSize    = obs.RegisterHistogram("wal_group_commit_batch")
	mFsyncErrs    = obs.RegisterCounter("wal_fsync_errors_total")
	mFailLatched  = obs.RegisterCounter("wal_failstop_latches_total")
	mCommitWaitNs = obs.RegisterHistogram("wal_commit_wait_ns")

	// The cost side of group commit: how often and how long the writer held
	// a batch open for committers it expected (accumulate), and how many of
	// those waits ran to the time bound.
	mGroupWaits        = obs.RegisterCounter("wal_group_waits_total")
	mGroupWaitTimeouts = obs.RegisterCounter("wal_group_wait_timeouts_total")
	mGroupWaitNs       = obs.RegisterHistogram("wal_group_wait_ns")
)

// metricsOn reports whether the obs registry is collecting.
func metricsOn() bool { return obs.Enabled() }

// syncTimed wraps the backing file's fsync with the latency histogram and
// the fsync EMA feeding the writer's adaptive batch window. Failures are
// counted separately and observe no latency.
func (w *WAL) syncTimed() error {
	t0 := time.Now()
	err := w.file.Sync()
	el := time.Since(t0)
	if err != nil {
		mFsyncErrs.Add(1)
		return err
	}
	w.emaFsyncNs += 0.25 * (float64(el) - w.emaFsyncNs)
	if obs.Enabled() {
		mFsyncNs.Observe(uint64(el))
	}
	return nil
}
