package core

import (
	"errors"

	"oodb/internal/model"
)

// Snapshot transactions: read-only Tx instances whose reads resolve
// through the MVCC overlay (internal/mvcc) at a pinned commit epoch
// instead of taking locks. One bulk writer holding X locks no longer
// stalls a hierarchy scan — the reader simply sees the epoch it began at.

// ErrReadOnlyTxn reports a write attempted through a snapshot
// transaction.
var ErrReadOnlyTxn = errors.New("core: snapshot transaction is read-only")

// BeginSnapshot starts a read-only snapshot transaction pinned to the
// current commit epoch. Its reads never touch the lock manager: Fetch and
// the scan methods resolve visibility through the version overlay, writes
// fail with ErrReadOnlyTxn, and Commit/Abort (either one) releases the
// snapshot. Unlike a locked Tx, its scans may be issued from multiple
// goroutines at once.
func (db *DB) BeginSnapshot() *Tx {
	mSnapBegins.Add(1)
	return &Tx{
		db:        db,
		id:        db.nextTxn.Add(1),
		snap:      true,
		snapEpoch: db.Versions.BeginSnapshot(),
	}
}

// endSnapshot releases the snapshot registration exactly once.
func (tx *Tx) endSnapshot() {
	if tx.snapEnded.CompareAndSwap(false, true) {
		tx.db.Versions.EndSnapshot(tx.snapEpoch)
		mSnapEnds.Add(1)
	}
}

// snapshotScanRaw iterates the snapshot-visible images of exactly one
// class, lock-free (data is valid only until fn returns): a heap scan with
// every record resolved through the overlay, then a sweep of the class's
// remaining version chains — objects whose heap record is already deleted
// (or not yet created) but whose snapshot-visible version lives on in the
// overlay. Per-object resolution takes only the OID's shard read-lock in
// the overlay, which is what keeps reader throughput flat under a bulk
// writer (the -mvcc bench pins the ratio). On a quiesced database the
// overlay is empty or converged, so the output is byte-identical to a
// locked heap scan (the differential test pins this).
func (tx *Tx) snapshotScanRaw(class model.ClassID, fn func(oid model.OID, data []byte) bool) error {
	var seen oidSet
	reads := uint64(0)
	defer func() { mSnapReads.Add(reads) }()
	stopped := false
	err := tx.db.Store.ScanImages(class, func(oid model.OID, data []byte) bool {
		if !seen.add(oid) {
			return true // a concurrent relocation surfaced it twice
		}
		vdata, ok := tx.db.Versions.Resolve(oid, data, true, tx.snapEpoch, 0)
		if !ok {
			return true // invisible at this epoch
		}
		reads++
		if !fn(oid, vdata) {
			stopped = true
			return false
		}
		return true
	})
	if err != nil || stopped {
		return err
	}
	// Only delete-shielded chains can belong to objects the heap scan
	// missed: inserts write their heap record before commit, and
	// Heap.Scan guarantees no live record is skipped (a concurrent
	// relocation only ever moves a record to the heap tail, which the
	// scan still visits — see internal/storage). The tombstone count is
	// checked after the heap scan so a delete recorded mid-scan is never
	// overlooked.
	if tx.db.Versions.ClassTombstones(class) == 0 {
		return nil
	}
	for _, oid := range tx.db.Versions.ClassChains(class) {
		if !seen.add(oid) {
			continue
		}
		// Heap state is irrelevant here: the heap scan already missed the
		// record, so visibility is decided by the chain alone. A chain
		// dropped between listing and resolving had converged with the
		// heap, meaning the object was either scanned above or invisible.
		vdata, ok := tx.db.Versions.Resolve(oid, nil, false, tx.snapEpoch, 0)
		if !ok {
			continue
		}
		reads++
		if !fn(oid, vdata) {
			return nil
		}
	}
	return nil
}

// oidSet is the set of one class's OIDs a snapshot scan has met, as a
// bitmap over their sequence numbers in 4096-bit blocks. Every record of
// the scan goes through it — any of them may be relocated to the heap tail
// and met again, and the first meeting cannot tell which — so it has to be
// cheap: a heap holds sequences in runs, nearly every add lands in the
// block the last one used, and only a change of block touches the map. (A
// map keyed by OID cost a quarter of a snapshot scan.)
type oidSet struct {
	blocks map[uint64]*[64]uint64
	key    uint64      // cur is blocks[key]
	cur    *[64]uint64 // nil before the first add
}

// add inserts oid and reports whether it was absent.
func (s *oidSet) add(oid model.OID) bool {
	seq := oid.Seq()
	if s.cur == nil || seq>>12 != s.key {
		if s.blocks == nil {
			s.blocks = make(map[uint64]*[64]uint64)
		}
		s.key = seq >> 12
		if s.cur = s.blocks[s.key]; s.cur == nil {
			s.cur = new([64]uint64)
			s.blocks[s.key] = s.cur
		}
	}
	w, bit := &s.cur[seq>>6&63], uint64(1)<<(seq&63)
	absent := *w&bit == 0
	*w |= bit
	return absent
}

// SnapshotOverlayOIDs lists the objects of class that currently have
// version chains — the candidates an index probe under a snapshot must
// additionally consider, because index postings track the uncommitted
// present (a key changed or a row deleted after the snapshot began no
// longer probes under its old key). Nil for locked transactions.
func (tx *Tx) SnapshotOverlayOIDs(class model.ClassID) []model.OID {
	if !tx.snap {
		return nil
	}
	return tx.db.Versions.ClassChains(class)
}
