package core

// Regression coverage for the fail-stop commit path (the fsyncgate class of
// bugs): a commit that fails after its effects reached the heap must poison
// the engine — locks retained, every further operation refused — instead of
// releasing locks over state a restart may roll back. Also covers the
// auto-checkpoint error surfacing that used to swallow Checkpoint failures.

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"oodb/internal/fault"
	"oodb/internal/model"
	"oodb/internal/obs"
	"oodb/internal/schema"
	"oodb/internal/txn"
	"oodb/internal/wal"
)

// openFaultDB opens a DB with both I/O seams routed through a fresh
// injector and a single integer class "P" defined.
func openFaultDB(t *testing.T, dir string) (*DB, *fault.Injector, *schema.Class) {
	t.Helper()
	inj := fault.NewInjector(fault.Schedule{Seed: 1})
	db, err := Open(dir, Options{
		WrapDisk: fault.WrapDisk(inj, dir+"/data.kdb"),
		WrapWAL:  fault.WrapWAL(inj),
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := db.DefineClass("P", nil, schema.AttrSpec{Name: "n", Domain: schema.ClassInteger})
	if err != nil {
		t.Fatal(err)
	}
	return db, inj, cl
}

// TestFsyncFailurePoisonsDB is the fsyncgate regression: a failed commit
// fsync must latch the WAL, poison the DB, and refuse all further work
// until a reopen recovers to the durable prefix.
func TestFsyncFailurePoisonsDB(t *testing.T) {
	dir := t.TempDir()
	db, inj, cl := openFaultDB(t, dir)

	// One durably committed object before the fault.
	var keep model.OID
	if err := db.Do(func(tx *Tx) error {
		var err error
		keep, err = tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(1)})
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// The next fsync fails: the commit must error and the engine fail-stop.
	inj.FailAt(fault.OpWALSync, 1)
	tx := db.Begin()
	victim, err := tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	err = tx.Commit()
	if err == nil {
		t.Fatal("commit succeeded across a failed fsync")
	}
	if !errors.Is(err, wal.ErrFailed) {
		t.Fatalf("commit error %v does not wrap wal.ErrFailed", err)
	}
	if db.FailStopped() == nil {
		t.Fatal("failed commit did not poison the DB")
	}

	// Every subsequent operation reports the poison, including reads that
	// would otherwise block on the dead transaction's retained locks.
	err = db.Do(func(tx *Tx) error {
		_, err := tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(3)})
		return err
	})
	if !errors.Is(err, ErrPoisoned) {
		t.Fatalf("insert after poison: %v, want ErrPoisoned", err)
	}
	rd := db.Begin()
	if _, err := rd.Fetch(victim); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("fetch after poison: %v, want ErrPoisoned", err)
	}
	if err := rd.Scan(cl.ID, func(*model.Object) bool { return true }); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("scan after poison: %v, want ErrPoisoned", err)
	}
	rd.Abort()
	if err := db.Checkpoint(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("checkpoint after poison: %v, want ErrPoisoned", err)
	}
	if err := db.Close(); err == nil {
		t.Fatal("close of a poisoned DB reported success")
	}

	// Reopen without the injector: the pre-fault commit is intact; the
	// failed commit is indeterminate (its record may have reached the file
	// before the refused fsync) but never corrupt — if present, it is
	// complete and correct.
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after fail-stop: %v", err)
	}
	defer db2.Close()
	obj, err := db2.Fetch(keep)
	if err != nil {
		t.Fatalf("durable pre-fault object lost: %v", err)
	}
	if v, _ := db2.AttrValue(obj, "n"); !model.Equal(v, model.Int(1)) {
		t.Fatalf("pre-fault object n = %v, want 1", v)
	}
	if obj, err := db2.Fetch(victim); err == nil {
		if v, _ := db2.AttrValue(obj, "n"); !model.Equal(v, model.Int(2)) {
			t.Fatalf("recovered victim has n = %v, want 2", v)
		}
	}
	// The recovered engine accepts work again.
	if err := db2.Do(func(tx *Tx) error {
		_, err := tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(4)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCommitFlushFailureRetainsLocks pins the partial-failure half of the
// fix: the failed committer's heap writes stay shielded — no other
// transaction can observe them, because the engine poisons before a single
// lock releases.
func TestCommitFlushFailureRetainsLocks(t *testing.T) {
	dir := t.TempDir()
	db, inj, cl := openFaultDB(t, dir)
	defer db.Close()

	tx := db.Begin()
	oid, err := tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(7)})
	if err != nil {
		t.Fatal(err)
	}
	// The insert reached the heap; now the commit's log flush fails.
	inj.FailAt(fault.OpWALWrite, 1)
	if err := tx.Commit(); err == nil {
		t.Fatal("commit succeeded across a failed log write")
	}
	if _, held := db.Locks.Holding(tx.ID(), txn.InstanceRes(oid)); !held {
		t.Fatal("failed commit released its locks over never-durable heap state")
	}
	// A reader cannot reach the uncommitted bytes: the poison check fires
	// before the lock request would block on the retained X lock.
	rd := db.Begin()
	if _, err := rd.Fetch(oid); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("fetch of uncommitted heap state: %v, want ErrPoisoned", err)
	}
	rd.Abort()
}

// TestAutoCheckpointFailureSurfaced: maybeCheckpoint swallows Checkpoint
// errors by design (the WAL is intact, so durability holds and the commit
// must succeed) but has to surface them — counter plus event-log line —
// instead of discarding them silently.
func TestAutoCheckpointFailureSurfaced(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(fault.Schedule{Seed: 1})
	db, err := Open(dir, Options{
		CheckpointBytes: 1, // every commit attempts a checkpoint
		WrapDisk:        fault.WrapDisk(inj, dir+"/data.kdb"),
		WrapWAL:         fault.WrapWAL(inj),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cl, err := db.DefineClass("P", nil, schema.AttrSpec{Name: "n", Domain: schema.ClassInteger})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	prev := obs.SetLogWriter(&buf)
	defer obs.SetLogWriter(prev)
	before := mCkptErrors.Value()

	// The checkpoint's page flush fails; the commit itself must succeed.
	inj.FailAt(fault.OpDiskWrite, 1)
	if err := db.Do(func(tx *Tx) error {
		_, err := tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(1)})
		return err
	}); err != nil {
		t.Fatalf("commit failed on auto-checkpoint error (durability was intact): %v", err)
	}
	if got := mCkptErrors.Value(); got != before+1 {
		t.Fatalf("core_checkpoint_errors_total = %d, want %d", got, before+1)
	}
	if !strings.Contains(buf.String(), "auto-checkpoint failed") {
		t.Fatalf("no event-log line for the failed checkpoint; log: %q", buf.String())
	}
	// The engine is not poisoned — the WAL still holds the redo — and the
	// next auto-checkpoint (fault disarmed) succeeds.
	if err := db.FailStopped(); err != nil {
		t.Fatalf("auto-checkpoint failure must not fail-stop: %v", err)
	}
	if err := db.Do(func(tx *Tx) error {
		_, err := tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(2)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
}
