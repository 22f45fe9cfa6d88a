package core

import (
	"cmp"
	"fmt"
	"sync/atomic"

	"oodb/internal/model"
	"oodb/internal/txn"
	"oodb/internal/wal"
)

// Tx is a database transaction: strict two-phase locked, WAL-logged,
// all-or-nothing. A Tx must be used by a single goroutine and finished
// with exactly one Commit or Abort.
//
// A Tx returned by BeginSnapshot runs in snapshot mode instead (see
// snapshot.go): read-only, lock-free, visibility pinned to the commit
// epoch at which it began. Snapshot scans — unlike the rest of Tx — are
// safe to issue from multiple goroutines at once, since snapshot mode
// keeps no per-call state beyond the pinned epoch.
type Tx struct {
	db    *DB
	id    uint64
	began bool // RecBegin written
	done  bool
	undos []undo

	// onCommit runs, in order, once the commit is acknowledged (OnCommit).
	onCommit []func()

	// Snapshot mode: when snap is true, reads resolve through the MVCC
	// overlay at snapEpoch and every write path fails with ErrReadOnlyTxn.
	snap      bool
	snapEpoch uint64
	snapEnded atomic.Bool // EndSnapshot delivered exactly once
}

// undo records the inverse of one applied operation, for in-process
// rollback (crash rollback uses the same images from the WAL).
type undo struct {
	oid    model.OID
	before *model.Object // nil: operation was an insert — undo deletes
}

// Begin starts a transaction.
func (db *DB) Begin() *Tx {
	return &Tx{db: db, id: db.nextTxn.Add(1)}
}

// ID returns the transaction identifier.
func (tx *Tx) ID() uint64 { return tx.id }

func (tx *Tx) ensureBegan() error {
	if tx.done {
		return ErrTxnFinished
	}
	if tx.snap {
		return ErrReadOnlyTxn
	}
	if err := tx.db.check(); err != nil {
		return err
	}
	if !tx.began {
		// Under the checkpoint fence: the begin record and the active-count
		// increment are atomic with respect to WAL truncation, so a
		// checkpoint can never truncate the log out from under a
		// transaction that has started logging (see DB.ckptMu).
		tx.db.ckptMu.RLock()
		_, err := tx.db.Log.Append(wal.Record{Txn: tx.id, Type: wal.RecBegin})
		if err == nil {
			tx.began = true
			tx.db.activeTxns.Add(1)
			tx.db.txnBegins.Add(1)
		}
		tx.db.ckptMu.RUnlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// abortOn wraps lock errors: a deadlock victim is rolled back before the
// error is surfaced, so the caller can simply retry the transaction.
func (tx *Tx) abortOn(err error) error {
	if err == nil {
		return nil
	}
	if err == txn.ErrDeadlock {
		tx.Abort()
	}
	return err
}

// resolveAttrs maps attribute names to (Attribute, checked value) pairs
// against the effective definition of class.
func (tx *Tx) resolveAttrs(class model.ClassID, attrs map[string]model.Value) (map[model.AttrID]model.Value, error) {
	out := make(map[model.AttrID]model.Value, len(attrs))
	for name, v := range attrs {
		a, err := tx.db.Catalog.ResolveAttr(class, name)
		if err != nil {
			return nil, err
		}
		if err := tx.db.Catalog.CheckValue(a, v); err != nil {
			return nil, err
		}
		out[a.ID] = v
	}
	return out, nil
}

// Insert creates a new instance of the named class with the given
// attribute values and returns its OID.
func (tx *Tx) Insert(className string, attrs map[string]model.Value) (model.OID, error) {
	cl, err := tx.db.Catalog.ClassByName(className)
	if err != nil {
		return model.NilOID, err
	}
	return tx.InsertClass(cl.ID, attrs)
}

// InsertClass is Insert by class id.
func (tx *Tx) InsertClass(class model.ClassID, attrs map[string]model.Value) (model.OID, error) {
	if err := tx.ensureBegan(); err != nil {
		return model.NilOID, err
	}
	resolved, err := tx.resolveAttrs(class, attrs)
	if err != nil {
		return model.NilOID, err
	}
	oid, err := tx.db.Store.NewOID(class)
	if err != nil {
		return model.NilOID, err
	}
	if err := tx.abortOn(tx.db.Locks.LockInstanceWrite(tx.id, oid)); err != nil {
		return model.NilOID, err
	}
	obj := model.NewObject(oid)
	for id, v := range resolved {
		obj.Set(id, v)
	}
	if err := tx.applyPut(nil, obj); err != nil {
		return model.NilOID, err
	}
	return oid, nil
}

// Update overwrites the given attributes of an existing object.
func (tx *Tx) Update(oid model.OID, attrs map[string]model.Value) error {
	old, err := tx.FetchForUpdate(oid)
	if err != nil {
		return err
	}
	resolved, err := tx.resolveAttrs(oid.Class(), attrs)
	if err != nil {
		return err
	}
	next := old.Clone()
	for id, v := range resolved {
		next.Set(id, v)
	}
	return tx.applyPut(old, next)
}

// Delete removes an object.
func (tx *Tx) Delete(oid model.OID) error {
	old, err := tx.FetchForUpdate(oid)
	if err != nil {
		return err
	}
	before := model.EncodeObject(old)
	if _, err := tx.db.Log.Append(wal.Record{
		Txn: tx.id, Type: wal.RecDelete, OID: oid, Before: before,
	}); err != nil {
		return err
	}
	// Version-chain entry before the heap delete: a snapshot reader that
	// misses the record still finds the committed base in the overlay.
	tx.db.Versions.RecordDelete(tx.id, oid, before)
	if err := tx.db.Store.Delete(oid); err != nil {
		return err
	}
	if err := tx.db.Indexes.OnDelete(old); err != nil {
		return err
	}
	tx.undos = append(tx.undos, undo{oid: oid, before: old})
	return nil
}

// applyPut logs, stores and indexes one object write.
func (tx *Tx) applyPut(old, next *model.Object) error {
	rec := wal.Record{Txn: tx.id, Type: wal.RecPut, OID: next.OID, After: model.EncodeObject(next)}
	if old != nil {
		rec.Before = model.EncodeObject(old)
	}
	if _, err := tx.db.Log.Append(rec); err != nil {
		return err
	}
	// Version-chain entry before the heap write (the MVCC ordering
	// protocol): a snapshot reader that observes the uncommitted heap
	// bytes is guaranteed to find the chain shielding them.
	tx.db.Versions.RecordWrite(tx.id, next.OID, rec.Before, rec.After)
	if err := tx.db.Store.Put(next.OID, rec.After); err != nil {
		return err
	}
	if err := tx.db.Indexes.OnPut(old, next); err != nil {
		return err
	}
	tx.undos = append(tx.undos, undo{oid: next.OID, before: old})
	return nil
}

// Rewrite physically relocates an object to the tail of its class
// segment without changing its state: the record is deleted and re-put, so
// it lands on the segment's current tail page. Rewriting a set of objects
// in sequence therefore places them on contiguous pages — the physical
// clustering primitive (Kim §4.2) used by the composite layer's Recluster.
func (tx *Tx) Rewrite(oid model.OID) error {
	old, err := tx.FetchForUpdate(oid)
	if err != nil {
		return err
	}
	img := model.EncodeObject(old)
	if _, err := tx.db.Log.Append(wal.Record{
		Txn: tx.id, Type: wal.RecPut, OID: oid, Before: img, After: img,
	}); err != nil {
		return err
	}
	// The relocation leaves the object logically unchanged, but between
	// the delete and the re-put the heap has no record; the chain keeps
	// the image visible to snapshot scans through that window.
	tx.db.Versions.RecordWrite(tx.id, oid, img, img)
	if err := tx.db.Store.Delete(oid); err != nil {
		return err
	}
	if err := tx.db.Store.Put(oid, img); err != nil {
		return err
	}
	tx.undos = append(tx.undos, undo{oid: oid, before: old})
	return nil
}

// FetchForUpdate takes the exclusive lock a write of oid needs, then reads
// the object. A check that guards a write reads through it, so two writers
// queue on the lock instead of deadlocking on an S→X upgrade. The lock
// stays held when the read fails (ErrNoObject). Update, Delete and Rewrite
// start with it.
func (tx *Tx) FetchForUpdate(oid model.OID) (*model.Object, error) {
	if err := tx.ensureBegan(); err != nil {
		return nil, err
	}
	if err := tx.abortOn(tx.db.Locks.LockInstanceWrite(tx.id, oid)); err != nil {
		return nil, err
	}
	return tx.Read(oid)
}

// Fetch is Read under a shared lock (snapshot mode: no lock). The returned
// object is a private copy; mutate it freely and write back with Update.
func (tx *Tx) Fetch(oid model.OID) (*model.Object, error) {
	if !tx.snap && !tx.done {
		// Locked reads check the poison latch: a fail-stopped DB retains the
		// failed committer's locks forever, so without the check a reader
		// would block indefinitely instead of learning the engine is dead.
		// (A lock-free read stays safe without it — the failed transaction's
		// version chains were never committed, so they shield its heap bytes.)
		if err := tx.db.check(); err != nil {
			return nil, err
		}
		if err := tx.abortOn(tx.db.Locks.LockInstanceRead(tx.id, oid)); err != nil {
			return nil, err
		}
	}
	return tx.Read(oid)
}

// Read returns the object without a lock: a snapshot's version at its
// epoch; in a locked transaction its own write, else the newest committed
// state — never another transaction's uncommitted write. Like ScanLocked
// it keeps no per-call state, so parallel scans may call it at once.
func (tx *Tx) Read(oid model.OID) (*model.Object, error) {
	if tx.done {
		return nil, ErrTxnFinished
	}
	if tx.snap {
		mSnapReads.Add(1)
		return tx.db.read(oid, tx.snapEpoch, 0)
	}
	return tx.db.read(oid, newest, tx.id)
}

// LockClassScan takes the class-scan (S) lock footprint over the given
// classes; the query executor calls it before scanning. Snapshot
// transactions skip the lock manager entirely — visibility comes from the
// pinned epoch, so the call is a no-op for them.
func (tx *Tx) LockClassScan(classes []model.ClassID) error {
	if tx.done {
		return ErrTxnFinished
	}
	if tx.snap {
		return nil
	}
	if err := tx.db.check(); err != nil {
		return err
	}
	return tx.abortOn(tx.db.Locks.LockHierarchyRead(tx.id, classes))
}

// Scan iterates the stored instances of exactly one class under a class
// S lock (snapshot mode: the snapshot-visible instances, no lock).
func (tx *Tx) Scan(class model.ClassID, fn func(*model.Object) bool) error {
	if err := tx.LockClassScan([]model.ClassID{class}); err != nil {
		return err
	}
	return tx.decodeScan([]model.ClassID{class}, fn)
}

// decodeScan calls fn with each object of each class in classes, as
// scanImages reads them, class by class, until fn returns false. Each
// record is decoded in one pass (model.DecodeObject), which checks it as
// ScanLocked does.
func (tx *Tx) decodeScan(classes []model.ClassID, fn func(*model.Object) bool) error {
	more := true
	for _, class := range classes {
		var derr error
		err := tx.scanImages(class, func(oid model.OID, data []byte) bool {
			obj, err := model.DecodeObject(data)
			if err != nil {
				derr = fmt.Errorf("core: class %d object %s: %w", class, oid, err)
				return false
			}
			more = fn(obj)
			return more
		})
		if err = cmp.Or(err, derr); err != nil || !more {
			return err
		}
	}
	return nil
}

// ScanLocked iterates the stored images of exactly one class, uncommitted
// writes included, so the transaction must already hold the class S lock
// (via LockClassScan) or X on the one object whose records it looks for
// (checkout, composite ownership). It acquires no locks and performs no
// abort handling, so — unlike the rest of Tx — it is safe to call from
// multiple goroutines at once: the query executor locks a hierarchy scope
// up front and then fans the per-class scans out in parallel. In snapshot
// mode no lock is assumed (there is none): the scan resolves visibility by
// epoch instead.
//
// Each record is read in one pass (model.ReadImage): its structure is
// checked — a damaged record stops the scan with ErrCorrupt, naming the
// class and the object — and the attributes fields names are decoded into
// fields before fn sees the record. fn sees it as a view over its stored
// bytes, valid only until fn returns; it decodes the object (Image.Decode)
// if it needs to keep it. Concurrent scans need fields of their own.
func (tx *Tx) ScanLocked(class model.ClassID, fields []model.Field, fn func(model.Image) bool) error {
	if tx.done {
		return ErrTxnFinished
	}
	var verr error
	err := tx.scanImages(class, func(oid model.OID, data []byte) bool {
		im, err := model.ReadImage(data, fields)
		if err != nil {
			verr = fmt.Errorf("core: class %d object %s: %w", class, oid, err)
			return false
		}
		return fn(im)
	})
	return cmp.Or(err, verr)
}

// scanImages calls visit with each record of class a scan of tx reads: the
// snapshot-visible images under a snapshot, else the heap's as stored.
func (tx *Tx) scanImages(class model.ClassID, visit func(oid model.OID, data []byte) bool) error {
	if tx.snap {
		return tx.snapshotScanRaw(class, visit)
	}
	return tx.db.Store.ScanImages(class, visit)
}

// Commit makes the transaction durable and releases its locks: it returns
// only after the commit record is fsynced. For a snapshot transaction it
// simply releases the snapshot. CommitAsync skips the wait.
func (tx *Tx) Commit() error {
	return tx.commitMode(false)
}

// OnCommit queues fn to run once the transaction's commit is acknowledged:
// after its fsync under full durability, after the log append for
// CommitAsync or NoSync. It runs after the locks are released, on the
// committing goroutine, and never after Abort or a failed commit — so an
// attempt that Do retries runs nothing. Effects outside the database that a
// transaction causes (a change notification) go through it.
func (tx *Tx) OnCommit(fn func()) { tx.onCommit = append(tx.onCommit, fn) }

// CommitAsync commits without waiting for the commit record to reach disk:
// the write is queued for the WAL writer's next batch and the call returns
// as soon as the record is in the log buffer. Ordering is preserved — the
// log holds commits in commit order, so a crash can only lose a suffix of
// acknowledged-async transactions, never an intermediate one. Locks release
// immediately; a later Commit (full durability) by any transaction also
// hardens every async commit queued before it.
func (tx *Tx) CommitAsync() error {
	return tx.commitMode(true)
}

func (tx *Tx) commitMode(async bool) error {
	if tx.done {
		return ErrTxnFinished
	}
	hooks := tx.onCommit
	tx.onCommit = nil
	if err := tx.commit(async); err != nil {
		return err
	}
	for _, fn := range hooks {
		fn()
	}
	return nil
}

// commit is Commit and CommitAsync for a transaction not yet finished.
func (tx *Tx) commit(async bool) error {
	tx.done = true
	if tx.snap {
		tx.endSnapshot()
		return nil
	}
	// Locks release only on the success path. A commit that fails after its
	// writes reached the heap leaves objects whose durability is unknown;
	// releasing the locks would let other transactions read and build on
	// state a restart may roll back. Fail-stop instead: keep the locks,
	// poison the DB so every subsequent operation reports the fault, and
	// force a reopen (which recovers to the last durable prefix).
	release := true
	defer func() {
		if release {
			tx.db.Locks.ReleaseAll(tx.id)
		}
	}()
	if !tx.began {
		return nil // read-only: nothing to log
	}
	decremented := false
	finish := func() {
		if !decremented {
			decremented = true
			tx.db.activeTxns.Add(-1)
		}
	}
	defer finish()
	// The logged epoch is a conservative watermark: the real epoch is
	// assigned when the versions are stamped below, after the group
	// commit. Recovery only needs a monotonic restart point, and the
	// overlay itself never survives a restart.
	lsn, err := tx.db.Log.Append(wal.Record{
		Txn: tx.id, Type: wal.RecCommit, Epoch: tx.db.Versions.Epoch() + 1,
	})
	if err != nil {
		release = false
		tx.db.poison(fmt.Errorf("txn %d: commit append: %w", tx.id, err))
		return err
	}
	if !tx.db.opts.NoSync {
		if async {
			// Relaxed durability: hand the LSN to the writer and return.
			tx.db.Log.RequestSync(lsn)
		} else if err := tx.db.Log.WaitDurable(lsn); err != nil {
			release = false
			tx.db.poison(fmt.Errorf("txn %d: commit sync: %w", tx.id, err))
			return err
		}
	}
	// Stamp the version chains only after the commit is durable (or, for
	// async mode, queued behind the durability the caller opted out of),
	// matching the locked path's guarantee: no snapshot ever observes a
	// commit the log could still lose under full durability.
	tx.db.Versions.Commit(tx.id)
	// Leave the active set before deciding on a checkpoint, or a lone
	// committer would block its own WAL truncation.
	finish()
	tx.db.maybeCheckpoint()
	return nil
}

// Abort rolls the transaction back: every applied operation is reversed
// (store and indexes) and the reversal is logged as compensation records
// — after a crash, replaying the aborted transaction forward (originals
// then compensations) reproduces the rolled-back state, so recovery never
// undoes an aborted transaction a second time (which could overwrite a
// later committed write once locks are released here). Ends with an abort
// record and lock release.
func (tx *Tx) Abort() error {
	if tx.done {
		return ErrTxnFinished
	}
	tx.done = true
	tx.onCommit = nil
	if tx.snap {
		tx.endSnapshot()
		return nil
	}
	defer tx.db.Locks.ReleaseAll(tx.id)
	// Discard the pending version-chain entries only after the heap is
	// restored below, so snapshot readers stay shielded from the dirty
	// bytes for the whole rollback.
	defer tx.db.Versions.Abort(tx.id)
	if tx.began {
		defer tx.db.activeTxns.Add(-1)
	}
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for i := len(tx.undos) - 1; i >= 0; i-- {
		u := tx.undos[i]
		cur, _ := tx.db.fetchRaw(u.oid) // nil if currently absent
		if u.before != nil {
			img := model.EncodeObject(u.before)
			_, err := tx.db.Log.Append(wal.Record{
				Txn: tx.id, Type: wal.RecPut, OID: u.oid, After: img,
			})
			keep(err)
			keep(tx.db.Store.Put(u.oid, img))
			keep(tx.db.Indexes.OnPut(cur, u.before))
		} else {
			_, err := tx.db.Log.Append(wal.Record{
				Txn: tx.id, Type: wal.RecDelete, OID: u.oid,
			})
			keep(err)
			keep(tx.db.Store.Delete(u.oid))
			if cur != nil {
				keep(tx.db.Indexes.OnDelete(cur))
			}
		}
	}
	if tx.began {
		_, err := tx.db.Log.Append(wal.Record{Txn: tx.id, Type: wal.RecAbort})
		keep(err)
	}
	return firstErr
}

// Do runs fn inside a transaction, committing on nil and aborting on
// error, with one automatic retry after a deadlock abort.
func (db *DB) Do(fn func(tx *Tx) error) error {
	for attempt := 0; ; attempt++ {
		tx := db.Begin()
		err := fn(tx)
		if err == nil {
			return tx.Commit()
		}
		if !tx.done {
			tx.Abort()
		}
		if err == txn.ErrDeadlock && attempt == 0 {
			continue
		}
		return err
	}
}

// String renders a transaction for diagnostics.
func (tx *Tx) String() string { return fmt.Sprintf("txn(%d)", tx.id) }
