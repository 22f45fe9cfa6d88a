package core

import (
	"errors"
	"time"

	"oodb/internal/model"
	"oodb/internal/stats"
	"oodb/internal/storage"
	"oodb/internal/wal"
)

// Engine-level maintenance: online segment compaction, planner statistics
// and leaked-page reclamation, each one call that does the whole job. When
// to compact on its own is internal/maint's decision; compaction itself
// uses the same detach→checkpoint→free protocol as DropClass (see ddl).

// ErrBusy reports that a maintenance operation refused to run because
// transactions were in flight. Retry when the system quiesces.
var ErrBusy = errors.New("core: maintenance blocked by transactions in flight")

// CompactClass rewrites the class's heap segment online: live records are
// copied in physical order into a fresh, densely packed segment (dropping
// dead slots and any stale duplicates a past crash left behind), the
// segment table is atomically repointed, and only after the checkpoint
// makes the new segment durable are the old pages freed. The class's
// statistics are collected during the copy and published before that
// checkpoint, which persists them in the same root swap as the new
// segment table.
//
// Crash safety mirrors DropClass: a RecCompaction marker is logged first
// (replay-inert — compaction never changes logical content, so recovery
// has nothing to redo), and the swap, the checkpoint and the frees all run
// inside the DDL critical section. A crash before the checkpoint leaks the
// fresh segment's pages; a crash after it but before the frees leaks the
// old segment's pages. Either way no committed row is lost and no page is
// freed twice — the accountant (Store.AccountPages) counts the leak and
// ReclaimLeaked recovers it. Indexes need no maintenance: they map values
// to OIDs and compaction only changes RIDs.
func (db *DB) CompactClass(class model.ClassID) (*storage.CompactResult, error) {
	t0 := time.Now()
	var (
		result *storage.CompactResult
		locked time.Time
	)
	err := db.ddl([]model.ClassID{class}, func() (func() error, error) {
		locked = time.Now()
		if _, err := db.Log.Append(wal.Record{Type: wal.RecCompaction, OID: model.OID(class)}); err != nil {
			return nil, err
		}
		col := stats.NewCollector(class)
		detached, res, err := db.Store.RewriteSegment(class, func(_ model.OID, data []byte) {
			observe(col, data)
		})
		if err != nil {
			return nil, err
		}
		result = res
		db.Stats.Put(col.Finalize())
		return func() error { return db.Store.FreeDetached(detached) }, nil
	})
	if err != nil {
		return nil, err
	}
	result.LockHeld = time.Since(locked)
	mCompactRuns.Add(1)
	mStatsAnalyzed.Add(1)
	mCompactObjects.Add(uint64(result.LiveRecords))
	if result.PagesBefore > result.PagesAfter {
		mCompactPagesFreed.Add(uint64(result.PagesBefore - result.PagesAfter))
	}
	mCompactNs.Observe(uint64(time.Since(t0)))
	return result, nil
}

// AnalyzeClass collects the class's planner statistics without rewriting
// anything — the cheap path for healthy segments — and publishes them to
// db.Stats (the next checkpoint persists them). The sweep reads through a
// snapshot transaction: it stays lock-free, but visibility is pinned to
// the commit epoch at which it starts, so the statistics never count rows
// a concurrent uncommitted transaction wrote (and might abort) — the KMV
// sketches describe a state that actually existed.
func (db *DB) AnalyzeClass(class model.ClassID) (*stats.ClassStats, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	tx := db.BeginSnapshot()
	defer tx.Commit()
	col := stats.NewCollector(class)
	if err := tx.snapshotScanRaw(class, func(_ model.OID, data []byte) bool {
		observe(col, data)
		return true
	}); err != nil {
		return nil, err
	}
	cs := col.Finalize()
	db.Stats.Put(cs)
	mStatsAnalyzed.Add(1)
	return cs, nil
}

// observe feeds one object image to col.
func observe(col *stats.Collector, data []byte) {
	if obj, err := model.DecodeObject(data); err == nil {
		col.Observe(obj, len(data))
	}
}

// ReclaimLeaked frees every page the accountant classifies as leaked —
// the debris of crashes inside the detach→checkpoint→free window — and
// returns how many were freed. It needs a quiesced engine: when
// transactions are in flight it holds the begin fence — new transactions
// block in Begin's first operation — and waits up to wait for the
// in-flight ones to drain, so a steady trickle of short transactions
// cannot starve it. If the window expires (at once for wait 0) it yields
// ErrBusy.
//
// Ordering is load-bearing. ddlMu comes first, so no DDL section is
// between its checkpoint and its frees (its detached chain would look
// leaked). The checkpoint mutex is next (the inline checkpoint below must
// not overlap another), then the begin fence: new transactions block in
// their first operation, while in-flight ones drain freely — waiting for
// the active count to reach zero cannot deadlock, because a draining
// transaction never waits on either (Commit leaves the active set *before*
// its checkpoint attempt, which finds the checkpoint mutex taken and
// returns, and Abort takes neither). If any transaction remains past the
// deadline the reclaim refuses rather than free pages whose WAL images
// could be replayed after a crash. Once quiesced, a full checkpoint runs
// inline under the fence — flush, root swap, and unconditional log
// truncation — so the accountant's reachability walk sees exactly the
// durable state and no stale page image survives to resurrect a freed
// page's old content after a later crash.
func (db *DB) ReclaimLeaked(wait time.Duration) (int, error) {
	if db.closed.Load() {
		return 0, ErrClosed
	}
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	db.ckptRun.Lock()
	defer db.ckptRun.Unlock()
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	deadline := time.Now().Add(wait)
	for db.activeTxns.Load() != 0 {
		if wait <= 0 || time.Now().After(deadline) {
			return 0, ErrBusy
		}
		time.Sleep(200 * time.Microsecond)
	}
	if err := db.checkpointBody(); err != nil {
		return 0, err
	}
	if err := db.Log.Reset(); err != nil {
		return 0, err
	}
	return db.Store.ReclaimLeaked()
}

// SegmentInfo reports the physical shape of a class's segment — the
// fragmentation signal the maintenance policy triggers compaction on —
// from counters the heap keeps, without reading a page. Returns nil if the
// class has no materialized segment.
func (db *DB) SegmentInfo(class model.ClassID) (*storage.SegmentInfo, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	return db.Store.SegmentInfo(class), nil
}
