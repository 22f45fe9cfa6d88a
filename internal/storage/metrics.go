package storage

import (
	"time"

	"oodb/internal/obs"
)

// Process-wide storage metrics (obs registry; the exact per-pool counts
// are BufferPool.Stats). Names follow
// layer_subsystem_name — checked by `make metrics-lint`.
var (
	// mBufHits is flushed from shard-local batches of hitBatchSize, so it
	// lags the true hit count by up to hitBatchSize-1 per shard; the exact
	// per-pool figures are BufferPool.Stats. Misses go straight through — they
	// are dominated by the disk read they precede.
	mBufHits      = obs.RegisterCounter("storage_buffer_fetch_hits")
	mBufMisses    = obs.RegisterCounter("storage_buffer_fetch_misses")
	mBufEvictions = obs.RegisterCounter("storage_buffer_evictions_total")
	mBufCoalesced = obs.RegisterCounter("storage_buffer_coalesced_waits")
	mPageReadNs   = obs.RegisterHistogram("storage_page_read_ns")
	mPageWriteNs  = obs.RegisterHistogram("storage_page_write_ns")

	mFreeListReused    = obs.RegisterCounter("storage_freelist_reused_pages")
	mFreeListFreed     = obs.RegisterCounter("storage_freelist_freed_pages")
	mFreeListAbandoned = obs.RegisterCounter("storage_freelist_abandoned_heads")

	// mMetaSlotFallback counts opens that found one duplexed metadata slot
	// torn and fell back to its twin — the A/B design absorbing a crash
	// mid-metadata-write.
	mMetaSlotFallback = obs.RegisterCounter("storage_meta_slot_fallbacks")

	mOverflowWrites = obs.RegisterCounter("storage_overflow_chains_written")
	mOverflowFrees  = obs.RegisterCounter("storage_overflow_chains_freed")
	mOverflowLeaked = obs.RegisterCounter("storage_overflow_chains_leaked")

	mRecQuarantined = obs.RegisterCounter("storage_recovery_quarantined_records")
	mRecAmputated   = obs.RegisterCounter("storage_recovery_amputated_pages")

	// Set by Store.AccountPages — the leaked-page accountant run by the
	// crash harness (`make crash`); the future compactor's target.
	mPagesLeaked = obs.RegisterGauge("storage_account_leaked_pages")
	mPagesTotal  = obs.RegisterGauge("storage_account_total_pages")
)

// readPageTimed wraps disk reads with the page-read latency histogram.
// The timing calls are skipped entirely when metrics are disabled; either
// way the cost is dwarfed by the I/O it measures.
func (bp *BufferPool) readPageTimed(id PageID, p *Page) error {
	if !obs.Enabled() {
		return bp.disk.ReadPage(id, p)
	}
	t0 := time.Now()
	err := bp.disk.ReadPage(id, p)
	mPageReadNs.Observe(uint64(time.Since(t0)))
	return err
}

// writePageTimed wraps disk writes with the page-write latency histogram.
func (bp *BufferPool) writePageTimed(id PageID, p *Page) error {
	if !obs.Enabled() {
		return bp.disk.WritePage(id, p)
	}
	t0 := time.Now()
	err := bp.disk.WritePage(id, p)
	mPageWriteNs.Observe(uint64(time.Since(t0)))
	return err
}
