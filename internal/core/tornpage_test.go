package core

import (
	"os"
	"path/filepath"
	"testing"

	"oodb/internal/model"
	"oodb/internal/schema"
	"oodb/internal/storage"
)

// TestTornPageRecovered injects a torn write (a corrupted heap page) and
// verifies the full recovery story: the directory rebuild amputates the
// torn page and logical WAL replay re-materializes every committed object
// that lived on it.
func TestTornPageRecovered(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := db.DefineClass("P", nil, schema.AttrSpec{Name: "n", Domain: schema.ClassInteger})
	if err != nil {
		t.Fatal(err)
	}
	// 50 committed objects. DefineClass checkpointed, so these live in the
	// WAL tail; FlushAll pushes their pages to disk as a crash might.
	var oids []model.OID
	err = db.Do(func(tx *Tx) error {
		for i := 0; i < 50; i++ {
			oid, err := tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(int64(i))})
			if err != nil {
				return err
			}
			oids = append(oids, oid)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Store.Pool().FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := db.Log.Sync(); err != nil {
		t.Fatal(err)
	}

	// Crash: corrupt the last heap-typed page in the data file (the torn
	// write), without closing the database.
	path := filepath.Join(dir, "data.kdb")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const pageSize = 4096
	torn := -1
	for off := 0; off+pageSize <= len(data); off += pageSize {
		if data[off+12] == 1 { // pageTypeHeap
			torn = off
		}
	}
	if torn < 0 {
		t.Fatal("no heap page found in data file")
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	garbage := make([]byte, 512)
	for i := range garbage {
		garbage[i] = 0xAB
	}
	if _, err := f.WriteAt(garbage, int64(torn+1000)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Recovery: open must succeed, amputate the torn page and replay the
	// WAL so every committed object is back.
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open after torn write: %v", err)
	}
	defer db2.Close()
	for i, oid := range oids {
		obj, err := db2.Fetch(oid)
		if err != nil {
			t.Fatalf("object %d (%v) lost to torn page: %v", i, oid, err)
		}
		v, _ := db2.AttrValue(obj, "n")
		if n, _ := v.AsInt(); n != int64(i) {
			t.Fatalf("object %d has n=%v", i, v)
		}
	}
	// The store stays fully usable: inserts and a reopen both work.
	err = db2.Do(func(tx *Tx) error {
		_, err := tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(999)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := db2.Store.Count(cl.ID); got != 51 {
		t.Fatalf("Count = %d, want 51", got)
	}
}

// TestTornPageWithoutWALLosesOnlyThatPage documents the model's limit: a
// torn page whose records are no longer in the WAL (post-checkpoint
// corruption) loses those records but the database still opens and the
// rest of the data survives.
func TestTornPageWithoutWALLosesOnlyThatPage(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := db.DefineClass("P", nil, schema.AttrSpec{Name: "n", Domain: schema.ClassInteger})
	db.Do(func(tx *Tx) error {
		for i := 0; i < 400; i++ { // several pages worth
			if _, err := tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(int64(i))}); err != nil {
				return err
			}
		}
		return nil
	})
	if err := db.Close(); err != nil { // checkpoint: WAL truncated
		t.Fatal(err)
	}

	path := filepath.Join(dir, "data.kdb")
	data, _ := os.ReadFile(path)
	const pageSize = 4096
	torn := -1
	for off := 0; off+pageSize <= len(data); off += pageSize {
		if data[off+12] == 1 {
			torn = off // last heap page
		}
	}
	f, _ := os.OpenFile(path, os.O_WRONLY, 0o644)
	f.WriteAt([]byte{0xFF, 0xFF, 0xFF, 0xFF}, int64(torn+2000))
	f.Close()

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open after post-checkpoint torn page: %v", err)
	}
	defer db2.Close()
	got := db2.Store.Count(cl.ID)
	if got >= 400 {
		t.Fatalf("Count = %d; corruption should have cost some records", got)
	}
	if got == 0 {
		t.Fatal("all records lost; amputation should be page-local")
	}
}

// TestOpenStillFailsOnUnreadableMeta verifies amputation does not mask
// real structural corruption: a destroyed metadata page must fail Open.
func TestOpenStillFailsOnUnreadableMeta(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.DefineClass("P", nil)
	db.Close()
	path := filepath.Join(dir, "data.kdb")
	f, _ := os.OpenFile(path, os.O_WRONLY, 0o644)
	// Destroy both duplexed metadata slots: losing one is survivable by
	// design (the twin takes over), losing both is real corruption.
	for slot := int64(0); slot < storage.MetaSlots; slot++ {
		f.WriteAt(make([]byte, 256), slot*storage.PageSize)
	}
	f.Close()
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a database with no valid metadata slot")
	}
}

// TestAbortThenCommitThenCrash is the regression test for the
// compensation-logging fix: T1 updates X and aborts (releasing its lock),
// T2 updates X and commits, then the process crashes. Recovery must leave
// X at T2's committed value — a recovery-time undo of T1 would clobber it.
func TestAbortThenCommitThenCrash(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := db.DefineClass("P", nil, schema.AttrSpec{Name: "n", Domain: schema.ClassInteger})
	var oid model.OID
	db.Do(func(tx *Tx) error {
		var err error
		oid, err = tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(1)})
		return err
	})
	db.Checkpoint()

	// T1: update then abort.
	t1 := db.Begin()
	if err := t1.Update(oid, map[string]model.Value{"n": model.Int(666)}); err != nil {
		t.Fatal(err)
	}
	if err := t1.Abort(); err != nil {
		t.Fatal(err)
	}
	// T2: update then commit.
	db.Do(func(tx *Tx) error {
		return tx.Update(oid, map[string]model.Value{"n": model.Int(2)})
	})
	db.Log.Sync()
	// Crash (no close), reopen, replay.
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	obj, err := db2.Fetch(oid)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := db2.AttrValue(obj, "n")
	if n, _ := v.AsInt(); n != 2 {
		t.Fatalf("n = %v after recovery, want 2 (T1's undo must not clobber T2)", v)
	}
}

// TestCheckpointKeepsLogWithActiveTxn: a checkpoint taken while a
// transaction is in flight must retain the WAL (the flush may have
// persisted uncommitted state whose undo information lives there).
func TestCheckpointKeepsLogWithActiveTxn(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := db.DefineClass("P", nil, schema.AttrSpec{Name: "n", Domain: schema.ClassInteger})
	var oid model.OID
	db.Do(func(tx *Tx) error {
		var err error
		oid, err = tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(1)})
		return err
	})

	// In-flight transaction with a logged update.
	t1 := db.Begin()
	if err := t1.Update(oid, map[string]model.Value{"n": model.Int(666)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	size := db.Log.Size()
	if size == 0 {
		t.Fatal("checkpoint truncated the WAL under an active transaction")
	}
	db.Log.Sync()
	// Crash with T1 unfinished: recovery must roll its update back even
	// though the checkpoint flushed the dirty page.
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	obj, _ := db2.Fetch(oid)
	v, _ := db2.AttrValue(obj, "n")
	if n, _ := v.AsInt(); n != 1 {
		t.Fatalf("n = %v, want 1 (in-flight update must be undone)", v)
	}
	// After the in-flight txn ends, checkpoints truncate again.
	db2.Do(func(tx *Tx) error {
		return tx.Update(oid, map[string]model.Value{"n": model.Int(3)})
	})
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	size = db2.Log.Size()
	if size != 0 {
		t.Fatalf("quiet checkpoint left %d log bytes", size)
	}
}

// TestReplayToleratesDroppedClass: a logged write whose class was dropped
// before the crash must not fail recovery.
func TestReplayToleratesDroppedClass(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	keep, _ := db.DefineClass("Keep", nil, schema.AttrSpec{Name: "n", Domain: schema.ClassInteger})
	gone, _ := db.DefineClass("Gone", nil, schema.AttrSpec{Name: "n", Domain: schema.ClassInteger})

	// Hold a transaction open so checkpoints keep the log.
	holdOID := func() model.OID {
		var oid model.OID
		db.Do(func(tx *Tx) error {
			var err error
			oid, err = tx.InsertClass(keep.ID, map[string]model.Value{"n": model.Int(1)})
			return err
		})
		return oid
	}
	kept := holdOID()
	hold := db.Begin()
	if err := hold.Update(kept, map[string]model.Value{"n": model.Int(5)}); err != nil {
		t.Fatal(err)
	}
	// Committed write into Gone (logged; log survives DDL checkpoint
	// because hold is active).
	db.Do(func(tx *Tx) error {
		_, err := tx.InsertClass(gone.ID, map[string]model.Value{"n": model.Int(9)})
		return err
	})
	if err := db.DropClass(gone.ID); err != nil {
		t.Fatal(err)
	}
	db.Log.Sync()
	// Crash with hold unfinished.
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery failed on dropped-class record: %v", err)
	}
	defer db2.Close()
	obj, err := db2.Fetch(kept)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := db2.AttrValue(obj, "n")
	if n, _ := v.AsInt(); n != 1 {
		t.Fatalf("kept.n = %v, want 1 (hold's update undone)", v)
	}
	if _, err := db2.Catalog.ClassByName("Gone"); err == nil {
		t.Fatal("dropped class resurrected")
	}
}
