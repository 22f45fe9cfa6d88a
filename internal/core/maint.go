package core

import (
	"errors"
	"time"

	"oodb/internal/model"
	"oodb/internal/storage"
	"oodb/internal/wal"
)

// Engine-level maintenance operations: online segment compaction and leaked
// page reclamation. The policy that decides *when* to run them lives in
// internal/maint; this file supplies the crash-safe mechanisms, built on
// the same detach→checkpoint→free protocol as DropClass.

// ErrBusy reports that a maintenance operation refused to run because
// transactions were in flight. Retry when the system quiesces.
var ErrBusy = errors.New("core: maintenance blocked by transactions in flight")

// CompactClass rewrites the class's heap segment online: live records are
// copied in physical order into a fresh, densely packed segment (dropping
// dead slots and any stale duplicates a past crash left behind), the
// segment table is atomically repointed, and only after the checkpoint
// makes the new segment durable are the old pages freed.
//
// Crash safety mirrors DropClass: a RecCompaction marker is logged first
// (replay-inert — compaction never changes logical content, so recovery
// has nothing to redo), the swap happens inside the DDL critical section,
// and ddl's closing checkpoint persists the new segment table. A crash
// before the checkpoint leaks the fresh segment's pages; a crash after it
// but before the frees leaks the old segment's pages. Either way no
// committed row is lost and no page is freed twice — the accountant
// (Store.AccountPages) counts the leak and ReclaimLeaked recovers it.
//
// visit, when non-nil, observes every surviving record during the copy —
// the hook the maintenance subsystem uses to collect statistics in the
// same sweep; data is valid only until visit returns. Indexes need no
// maintenance: they map values to OIDs and compaction only changes RIDs.
func (db *DB) CompactClass(class model.ClassID, visit func(oid model.OID, data []byte)) (*storage.CompactResult, error) {
	var (
		detached *storage.DetachedSegment
		result   *storage.CompactResult
		locked   time.Time
	)
	err := db.ddl([]model.ClassID{class}, func() error {
		locked = time.Now()
		if _, err := db.Log.Append(wal.Record{Type: wal.RecCompaction, OID: model.OID(class)}); err != nil {
			return err
		}
		var err error
		detached, result, err = db.Store.RewriteSegment(class, visit)
		return err
	})
	if err != nil {
		return nil, err
	}
	result.LockHeld = time.Since(locked)
	if err := db.Store.FreeDetached(detached); err != nil {
		return result, err
	}
	return result, nil
}

// AnalyzeClass feeds every instance of the class to visit without
// rewriting anything — the on-demand statistics sweep for segments
// healthy enough to skip compaction. The sweep reads through a snapshot
// transaction: it stays lock-free, but visibility is pinned to the commit
// epoch at which it starts, so the statistics never count rows a
// concurrent uncommitted transaction wrote (and might abort) — the KMV
// sketches describe a state that actually existed.
func (db *DB) AnalyzeClass(class model.ClassID, visit func(oid model.OID, data []byte)) error {
	if db.closed.Load() {
		return ErrClosed
	}
	tx := db.BeginSnapshot()
	defer tx.Commit()
	return tx.snapshotScanRaw(class, func(oid model.OID, data []byte) bool {
		visit(oid, data)
		return true
	})
}

// ReclaimLeaked frees every page the accountant classifies as leaked —
// the debris of crashes inside the detach→checkpoint→free window — and
// returns how many were freed. It is ReclaimLeakedWait with no quiesce
// window: any transaction in flight yields ErrBusy immediately.
func (db *DB) ReclaimLeaked() (int, error) {
	return db.ReclaimLeakedWait(0)
}

// ReclaimLeakedWait is ReclaimLeaked with a bounded quiesce window: when
// transactions are in flight it holds the begin fence — new transactions
// block in Begin's first operation — and waits up to wait for the
// in-flight ones to drain before reclaiming, so a steady trickle of
// short transactions can no longer starve the reclaimer forever (each
// sweep previously found activeTxns != 0 and gave up, leaking pages
// unbounded). If the window expires the reclaim still yields ErrBusy.
//
// Ordering is load-bearing. The checkpoint mutex is taken first (the
// inline checkpoint below must not overlap another), then the begin fence:
// new transactions block in their first operation, while in-flight ones
// drain freely — waiting for the active count to reach zero cannot
// deadlock, because a draining transaction never waits on either (Commit
// leaves the active set *before* its checkpoint attempt, which finds the
// checkpoint mutex taken and returns, and Abort takes neither). If any
// transaction remains past the deadline the reclaim refuses (ErrBusy)
// rather than free pages whose WAL images could be replayed after a
// crash. Once quiesced, a full checkpoint runs inline under the fence —
// flush, root swap, and unconditional log truncation — so the
// accountant's reachability walk sees exactly the durable state and no
// stale page image survives to resurrect a freed page's old content
// after a later crash.
func (db *DB) ReclaimLeakedWait(wait time.Duration) (int, error) {
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
