// Package core implements the kimdb database engine: it binds the schema
// catalog, the storage engine, the write-ahead log, the lock manager and
// the index manager into a single object-oriented database satisfying the
// paper's two minimum requirements (Kim §3.1): a core object-oriented data
// model, plus conventional database features (transactions, recovery,
// indexing, declarative queries) with semantics extended to that model.
package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"oodb/internal/index"
	"oodb/internal/model"
	"oodb/internal/mvcc"
	"oodb/internal/obs"
	"oodb/internal/schema"
	"oodb/internal/stats"
	"oodb/internal/storage"
	"oodb/internal/txn"
	"oodb/internal/wal"
)

// Options configures a database.
type Options struct {
	// PoolPages is the buffer pool capacity in pages (0 = default).
	PoolPages int
	// CheckpointBytes triggers an automatic checkpoint when the WAL grows
	// past this size (0 = 8 MiB).
	CheckpointBytes int64
	// NoSync skips the fsync at commit. Unsafe; benchmarks only.
	NoSync bool
	// WrapDisk and WrapWAL, when set, wrap the storage disk layer and the
	// WAL's backing file — the seams the fault-injection harness
	// (internal/fault) uses to script I/O failures and simulated crashes.
	WrapDisk func(storage.Disk) storage.Disk
	WrapWAL  func(wal.File) wal.File
}

// DB is an open kimdb database.
type DB struct {
	Catalog *schema.Catalog
	Store   *storage.Store
	Log     *wal.WAL
	Locks   *txn.LockManager
	Indexes *index.Manager
	// Stats holds the planner statistics CompactClass and AnalyzeClass
	// collect: per-class cardinality and per-attribute distinct/min/max
	// summaries, persisted under the metadata's stats root at every
	// checkpoint. Advisory only — an empty registry just means the planner
	// keeps its heuristic ranking.
	Stats *stats.Registry
	// Versions is the MVCC overlay: per-object version chains and the
	// commit-epoch counter that give snapshot transactions (BeginSnapshot)
	// their lock-free visibility rule. Writers feed it from the Tx write
	// paths; commits, aborts and snapshot ends prune it (see internal/mvcc).
	Versions *mvcc.Manager

	opts       Options
	nextTxn    atomic.Uint64
	activeTxns atomic.Int64  // logged (begun) and unfinished transactions
	txnBegins  atomic.Uint64 // transactions that have logged a begin record, ever

	// ddlMu serializes DDL (schema evolution is rare and heavyweight:
	// catalog change + instance/index maintenance + checkpoint).
	ddlMu sync.Mutex
	// snapMu makes SnapshotSchema's label check and insert one step.
	snapMu sync.Mutex

	// ckptMu fences WAL truncation against transaction begin: a
	// transaction logs its begin record and raises activeTxns under the
	// read side, the checkpoint checks activeTxns and truncates under the
	// write side. Without the fence, Checkpoint can observe zero active
	// transactions, then a begin record (and first data record) lands in
	// the log just before Reset truncates it — an acknowledged commit of
	// that transaction would then lose its records.
	ckptMu sync.RWMutex

	// ckptRun admits one checkpoint at a time. Two overlapping SwapBlobs
	// read the same old roots and both free the same blob chains, handing
	// one page to two owners. Lock order: ddlMu, ckptRun, ckptMu.
	ckptRun sync.Mutex

	// beforeCkptFence, when set, runs on the checkpointing goroutine
	// between the checkpoint's flush and its taking of the begin fence —
	// the window a concurrent commit can land in. beforeFree runs in ddl
	// between the checkpoint and the frees of a detached segment.
	// Tests only; set before the operation that is to call them.
	beforeCkptFence, beforeFree func()

	closed atomic.Bool

	// afterCkpt, when set, runs after every checkpoint that completed, on
	// the goroutine that ran it and outside the checkpoint locks (but
	// possibly inside ddlMu: DDL closes with a checkpoint). It is how the
	// maintenance manager learns that a segment has gone sparse without
	// polling; it must not block or take engine locks.
	afterCkpt atomic.Pointer[func()]

	// Fail-stop poison latch: set when a commit fails after its effects
	// reached the heap (WAL append or durability wait failed). The failed
	// transaction's locks are retained and every subsequent locked
	// operation returns ErrPoisoned — releasing the locks would expose
	// heap bytes that were neither made durable nor rolled back. Recovery
	// is a reopen, which replays the durable WAL prefix.
	poisoned    atomic.Bool
	poisonMu    sync.Mutex
	poisonCause error
}

// Sentinel errors of the engine layer.
var (
	ErrClosed      = errors.New("core: database closed")
	ErrTxnFinished = errors.New("core: transaction already committed or aborted")
	ErrNoObject    = storage.ErrNoObject
	// ErrPoisoned reports a database fail-stopped by a failed commit; see
	// DB.poison. Every error returned after the latch wraps ErrPoisoned
	// and the original cause.
	ErrPoisoned = errors.New("core: database fail-stopped by a failed commit (reopen to recover)")
)

// poison latches the database into its fail-stop state (first cause wins).
func (db *DB) poison(cause error) {
	db.poisonMu.Lock()
	if !db.poisoned.Load() {
		db.poisonCause = cause
		db.poisoned.Store(true)
		mFailStop.Add(1)
		obs.Logf("core: fail-stop: %v", cause)
	}
	db.poisonMu.Unlock()
}

// FailStopped returns nil while the database is healthy, or the poison
// error — wrapping ErrPoisoned and the original cause — once a failed
// commit has fail-stopped it.
func (db *DB) FailStopped() error {
	if !db.poisoned.Load() {
		return nil
	}
	db.poisonMu.Lock()
	defer db.poisonMu.Unlock()
	return fmt.Errorf("%w: %w", ErrPoisoned, db.poisonCause)
}

// check gates every transactional entry point on the closed and poison
// latches.
func (db *DB) check() error {
	if db.closed.Load() {
		return ErrClosed
	}
	return db.FailStopped()
}

// Open opens (or creates) a database in dir. The directory holds two
// files: data.kdb (pages) and log.wal (the write-ahead log). Open runs
// crash recovery: committed work since the last checkpoint is redone,
// uncommitted work is undone, and all indexes are rebuilt.
func Open(dir string, opts Options) (_ *DB, err error) {
	if opts.CheckpointBytes == 0 {
		opts.CheckpointBytes = 8 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: create %s: %w", dir, err)
	}
	dataPath := filepath.Join(dir, "data.kdb")
	// The WAL opens first: pages torn by a crash mid-write are physically
	// restored from their logged full-page images before the store scans
	// anything (WAL-before-data, so an image always exists for such pages).
	log, records, err := wal.OpenWith(filepath.Join(dir, "log.wal"), opts.WrapWAL)
	if err != nil {
		return nil, err
	}
	// A failed open releases what it opened: the store, then the log.
	var store *storage.Store
	defer func() {
		if err != nil {
			if store != nil {
				store.Close()
			}
			log.Close()
		}
	}()
	if imgs := wal.PageImages(records); len(imgs) > 0 {
		if _, err := storage.RestoreTornPages(dataPath, imgs); err != nil {
			return nil, fmt.Errorf("core: page-image restore failed: %w", err)
		}
	}
	store, err = storage.Open(dataPath, storage.Options{
		PoolPages: opts.PoolPages,
		WrapDisk:  opts.WrapDisk,
	})
	if err != nil {
		return nil, err
	}
	// From here on, in-place page writes log full-page images first.
	store.Pool().SetPageLogger(pageLogger{log: log, noSync: opts.NoSync})

	// Restore the catalog persisted at the last checkpoint (or start
	// fresh).
	cat := schema.NewCatalog()
	if head := store.Disk().GetRoot(storage.RootCatalog); head != storage.InvalidPage {
		blob, err := store.Pool().ReadBlob(head)
		if err != nil {
			return nil, err
		}
		if cat, err = schema.DecodeCatalog(blob); err != nil {
			return nil, err
		}
	}

	// Restore planner statistics from the stats root. Tolerant: stats are
	// advisory, so a missing or undecodable blob (e.g. written by an older
	// format) degrades to an empty registry, never a failed open.
	reg := stats.NewRegistry()
	if head := store.Disk().GetRoot(storage.RootStats); head != storage.InvalidPage {
		if blob, err := store.Pool().ReadBlob(head); err == nil {
			if dec, err := stats.DecodeRegistry(blob); err == nil {
				reg = dec
			}
		}
	}

	db := &DB{
		Catalog:  cat,
		Store:    store,
		Log:      log,
		Locks:    txn.NewLockManager(),
		Stats:    reg,
		Versions: mvcc.NewManager(),
		opts:     opts,
	}
	db.Indexes = index.NewManager(cat, db.fetchRaw)

	// Crash recovery: logical redo of winners, undo of losers. Replay runs
	// with stub-driven frees suppressed — a stub read back from the heap
	// may predate the records being replayed (its page can have reverted
	// in the crash), so the chain it names is not trustworthy to free.
	if len(records) > 0 {
		store.Pool().SetRecovering(true)
		err := db.replay(records)
		store.Pool().SetRecovering(false)
		if err != nil {
			return nil, fmt.Errorf("core: recovery failed: %w", err)
		}
	}

	// Recreate index definitions and rebuild contents from class scans.
	if head := store.Disk().GetRoot(storage.RootIndexTable); head != storage.InvalidPage {
		blob, err := store.Pool().ReadBlob(head)
		if err != nil {
			return nil, err
		}
		defs, err := index.DecodeDefs(blob)
		if err != nil {
			return nil, err
		}
		for _, d := range defs {
			if err := db.buildIndex(d.Name, d.Class, d.Path, d.Hierarchy); err != nil {
				return nil, err
			}
		}
	}

	// Recovery done: checkpoint so the log starts clean.
	if len(records) > 0 {
		if err := db.Checkpoint(); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// Close checkpoints and closes the database. A poisoned database skips the
// checkpoint — flushing the pool could persist heap state whose undo
// information never became durable — and returns the poison error after
// releasing the files; the next Open recovers from the durable WAL prefix.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	err := db.Checkpoint() // the poison error, without a flush, when fail-stopped
	if serr := db.Store.Close(); err == nil {
		err = serr
	}
	if lerr := db.Log.Close(); err == nil {
		err = lerr
	}
	return err
}

// Checkpoint makes the on-disk state self-contained: catalog, index
// definitions, segment table and planner statistics are persisted, every
// dirty page is flushed, and — when no transactions are in flight — the
// WAL is truncated. With active transactions the truncation is skipped:
// their undo information must survive, because the flush may have written
// their uncommitted page state. The flushed prefix is still safe to replay
// (logical redo is idempotent), so skipping truncation costs only log
// space.
//
// All four system blobs move under a single metadata write (SwapBlobs): a
// crash during the checkpoint leaves either every root pointing at the old
// blobs or every root pointing at the new ones, never a mix — the
// metadata-swap window separate root writes would leave open (catalog new,
// segment table old ⇒ a recreated class scanning a freed segment) is gone.
func (db *DB) Checkpoint() error {
	db.ckptRun.Lock()
	err := db.checkpointExclusive()
	db.ckptRun.Unlock()
	if err == nil {
		db.checkpointed()
	}
	return err
}

// OnCheckpoint registers fn to run after every completed checkpoint (see
// DB.afterCkpt for what fn may do), replacing any earlier registration.
func (db *DB) OnCheckpoint(fn func()) { db.afterCkpt.Store(&fn) }

func (db *DB) checkpointed() {
	if fn := db.afterCkpt.Load(); fn != nil {
		(*fn)()
	}
}

// checkpointExclusive is Checkpoint for a caller that holds ckptRun.
func (db *DB) checkpointExclusive() error {
	// Fail-stop: a poisoned engine must not flush the pool (uncommitted
	// heap state, no durable undo) or truncate the log.
	if err := db.FailStopped(); err != nil {
		return err
	}
	// Begins before active: a transaction that begins between the two loads
	// is seen by the second, one that begins after them by the recount below.
	begins := db.txnBegins.Load()
	writers := db.activeTxns.Load() != 0
	if err := db.checkpointBody(); err != nil {
		return err
	}
	if db.beforeCkptFence != nil {
		db.beforeCkptFence()
	}
	// Truncate under the begin fence: after taking the write side, the
	// active count is exact — no transaction can slip its begin record into
	// the log between the check and the Reset (see ckptMu).
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	if db.activeTxns.Load() != 0 {
		mCkptSkipped.Add(1)
		return nil // keep the log: in-flight undo information lives there
	}
	// A transaction that ran beside the flush may have dirtied pages the
	// flush had already passed and committed since: its pages are only in
	// the pool and its records only in the log about to be truncated. Flush
	// again, now that nothing can begin. A quiesced checkpoint skips this.
	if writers || db.txnBegins.Load() != begins {
		if err := db.Store.Pool().FlushAll(); err != nil {
			return err
		}
	}
	return db.Log.Reset()
}

// checkpointBody is the fence-free first half of Checkpoint: flush every
// dirty page, then move all four system roots in one atomic swap. Shared
// with ReclaimLeaked, which runs it while already holding the begin
// fence (Checkpoint itself must not, since it takes the fence afterwards).
func (db *DB) checkpointBody() error {
	t0 := time.Now()
	defer func() { mCkptNs.Observe(uint64(time.Since(t0))) }()
	pool := db.Store.Pool()
	// Flush data pages BEFORE the root swap: the new segment table may name
	// freshly written chains (a compaction's rewritten heap), and publishing
	// a root over pages still dirty in the pool would lose committed rows on
	// a crash between the swap and the flush.
	if err := pool.FlushAll(); err != nil {
		return err
	}
	return pool.SwapBlobs(map[storage.MetaRoot][]byte{
		storage.RootCatalog:    schema.EncodeCatalog(db.Catalog),
		storage.RootIndexTable: index.EncodeDefs(db.Indexes),
		storage.RootSegTable:   db.Store.EncodeSegTable(),
		storage.RootStats:      db.Stats.Encode(),
	})
}

// pageLogger adapts the WAL to the buffer pool's full-page-image hook.
// With NoSync the flush skips the fsync, consistent with commits: the
// NoSync mode trades crash safety for speed across the board.
type pageLogger struct {
	log    *wal.WAL
	noSync bool
}

func (l pageLogger) LogPageImage(id storage.PageID, img []byte) error {
	_, err := l.log.Append(wal.Record{Type: wal.RecPageImage, OID: model.OID(id), After: img})
	return err
}

func (l pageLogger) FlushImages() error {
	if l.noSync {
		return nil
	}
	return l.log.Sync()
}

// maybeCheckpoint checkpoints when the WAL has outgrown the configured
// threshold. Called at commit boundaries. A failed auto-checkpoint is
// survivable — the WAL stays in place, so durability is unaffected — but
// it must not be silent: the log keeps growing and the failure cause
// (a sick disk, a poisoned engine) is operationally significant, so it
// counts in core_checkpoint_errors_total and emits an obs log line.
//
// While the log stays over the threshold (truncation is skipped whenever
// another transaction is active) every committer arrives here; the one that
// finds a checkpoint already running leaves it to finish and returns.
func (db *DB) maybeCheckpoint() {
	size := db.Log.Size()
	if size < db.opts.CheckpointBytes {
		return
	}
	if !db.ckptRun.TryLock() {
		return
	}
	err := db.checkpointExclusive()
	db.ckptRun.Unlock()
	if err != nil {
		mCkptErrors.Add(1)
		obs.Logf("core: auto-checkpoint failed (WAL retained at %d bytes): %v", size, err)
		return
	}
	db.checkpointed()
}

// replay applies recovered WAL records: redo committed transactions in
// log order, then undo uncommitted ones in reverse order. Both passes are
// idempotent (Put is an upsert keyed by OID; Delete of a missing object is
// a no-op).
func (db *DB) replay(records []wal.Record) error {
	t0 := time.Now()
	defer func() { mReplayNs.Observe(uint64(time.Since(t0))) }()
	a := wal.Analyze(records)
	// Restore the commit-epoch watermark from the logged commit records.
	// The overlay itself stays empty: replay reconstructs a fully
	// committed heap, so every recovered snapshot reads committed truth.
	var maxEpoch uint64
	for _, r := range records {
		if r.Type == wal.RecCommit && r.Epoch > maxEpoch {
			maxEpoch = r.Epoch
		}
	}
	db.Versions.RestoreEpoch(maxEpoch)
	redo := a.RedoOps()
	mReplayOps.Add(uint64(len(redo)))
	for _, r := range redo {
		if err := db.redoOne(r); err != nil {
			return err
		}
	}
	for _, r := range a.UndoOps() {
		if r.Before != nil {
			if err := tolerateDropped(db.Store.Put(r.OID, r.Before)); err != nil {
				return err
			}
		} else if err := tolerateDropped(db.Store.Delete(r.OID)); err != nil {
			return err
		}
	}
	return nil
}

// tolerateDropped absorbs replay of a record targeting a class dropped
// after it was logged (DDL checkpoints persist the catalog immediately,
// but the log survives a checkpoint taken under active transactions):
// such writes are moot.
func tolerateDropped(err error) error {
	if errors.Is(err, storage.ErrNoSegment) {
		return nil
	}
	return err
}

// redoOne applies a single redo record.
func (db *DB) redoOne(r wal.Record) error {
	switch r.Type {
	case wal.RecPut:
		return tolerateDropped(db.Store.Put(r.OID, r.After))
	case wal.RecDelete:
		return tolerateDropped(db.Store.Delete(r.OID))
	}
	return nil
}

const (
	newest = math.MaxUint64 // read's epoch for the newest committed state
	raw    = math.MaxUint64 // read's txn for the stored image, overlay skipped
)

// read is the engine's one point read (DESIGN §6 "The point read"): oid's
// state at epoch, except that a pending write of txn is read as it stands.
// The heap record is resolved through the overlay and decoded inside the
// Store.View that pins it, under the heap latch; a newest read registers
// no snapshot for it (DESIGN §12). A heap miss reads again under a
// registered snapshot, where the overlay alone decides it.
func (db *DB) read(oid model.OID, epoch, txn uint64) (*model.Object, error) {
	var obj *model.Object
	visible := false
	resolve := func(heap []byte, heapOK bool) (err error) {
		if txn != raw {
			heap, heapOK = db.Versions.Resolve(oid, heap, heapOK, epoch, txn)
		}
		if visible = heapOK; heapOK {
			obj, err = model.DecodeObject(heap)
		}
		return err
	}
	err := db.Store.View(oid, func(payload []byte) error { return resolve(payload, true) })
	switch {
	case err == nil && !visible:
		return nil, fmt.Errorf("%w: %s", ErrNoObject, oid)
	case err == nil || visible || txn == raw:
		return obj, err
	case epoch == newest:
		snap := db.Versions.BeginSnapshot()
		defer db.Versions.EndSnapshot(snap)
		return db.read(oid, snap, txn)
	}
	if rerr := resolve(nil, false); visible {
		return obj, rerr
	}
	return nil, err
}

// Fetch returns the newest committed state of oid, without a lock: it
// never waits for a writer, nor returns a write that has not committed.
func (db *DB) Fetch(oid model.OID) (*model.Object, error) { return db.read(oid, newest, 0) }

// fetchRaw returns the stored image of oid, uncommitted writes included:
// the raw read of Tx.Abort's undo and of the index manager.
func (db *DB) fetchRaw(oid model.OID) (*model.Object, error) { return db.read(oid, newest, raw) }

// Scan calls fn with the newest committed state of every instance of each
// class in classes, class by class, until fn returns false; fn owns each.
// Like Fetch it takes no lock: it reads one snapshot, so it never waits for
// a writer nor sees an uncommitted write. A damaged record is ErrCorrupt.
func (db *DB) Scan(classes []model.ClassID, fn func(*model.Object) bool) error {
	tx := db.BeginSnapshot()
	defer tx.Commit()
	return tx.decodeScan(classes, fn)
}

// scanRaw is Scan over the stored records, uncommitted writes included:
// for index builds, which key the uncommitted present that Abort un-keys,
// and DropClass, which holds the class X lock.
func (db *DB) scanRaw(classes []model.ClassID, fn func(*model.Object) bool) error {
	return (&Tx{db: db}).decodeScan(classes, fn)
}

// AttrValue reads an attribute of an object by name, applying inheritance
// and the class default for unset attributes — the read-side half of lazy
// schema evolution (an instance written before AddAttribute reads the new
// attribute's default).
func (db *DB) AttrValue(obj *model.Object, name string) (model.Value, error) {
	a, err := db.Catalog.ResolveAttr(obj.Class(), name)
	if err != nil {
		return model.Null, err
	}
	if v, ok := obj.Lookup(a.ID); ok {
		return v, nil
	}
	return a.Default, nil
}

// Send dispatches a message to an object with late binding (Kim §3.1
// model 6): the method is resolved starting at the instance's class and
// walking up the hierarchy; the body runs with this database as its
// engine. The receiver is read as Fetch reads it: newest committed state.
func (db *DB) Send(oid model.OID, message string, args ...model.Value) (model.Value, error) {
	obj, err := db.Fetch(oid)
	if err != nil {
		return model.Null, err
	}
	m, err := db.Catalog.ResolveMethod(obj.Class(), message)
	if err != nil {
		return model.Null, err
	}
	if m.Impl == nil {
		return model.Null, fmt.Errorf("core: method %q has no registered implementation (register after open)", message)
	}
	return m.Impl(db, obj, args)
}

// interface conformance: the engine is the method-execution environment.
var _ schema.MethodEngine = (*DB)(nil)
