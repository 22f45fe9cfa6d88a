package core

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"oodb/internal/model"
	"oodb/internal/schema"
	"oodb/internal/storage"
)

func TestRenameAttributeEngine(t *testing.T) {
	td := openVehicleDB(t)
	oid := td.mustInsert(t, "Vehicle", map[string]model.Value{"weight": model.Int(5)})
	if err := td.RenameAttribute(td.vehicle.ID, "weight", "grossWeight"); err != nil {
		t.Fatal(err)
	}
	// Stored value readable under the new name (same AttrID).
	obj, _ := td.Fetch(oid)
	v, err := td.AttrValue(obj, "grossWeight")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := v.AsInt(); n != 5 {
		t.Fatalf("renamed attr value = %v", v)
	}
	if _, err := td.AttrValue(obj, "weight"); err == nil {
		t.Fatal("old name still resolves")
	}
	// Rename survives restart.
	if err := td.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(td.dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	obj, _ = db2.Fetch(oid)
	if _, err := db2.AttrValue(obj, "grossWeight"); err != nil {
		t.Fatal("rename lost across restart")
	}
}

func TestDropSuperclassReindexes(t *testing.T) {
	td := openVehicleDB(t)
	// Give Truck a second superclass so dropping one is legal.
	aux, _ := td.DefineClass("Taxable", nil)
	if err := td.AddSuperclass(td.truck.ID, aux.ID); err != nil {
		t.Fatal(err)
	}
	if err := td.CreateIndex("tax_idx", aux.ID, []string{"weight"}, true); err == nil {
		t.Fatal("index path should not resolve on Taxable (no weight attr)")
	}
	// Index the vehicle hierarchy; trucks are covered.
	if err := td.CreateIndex("w", td.vehicle.ID, []string{"weight"}, true); err != nil {
		t.Fatal(err)
	}
	td.mustInsert(t, "Truck", map[string]model.Value{"weight": model.Int(9000)})
	idx, _ := td.Indexes.Get("w")
	if got := idx.Lookup(model.Int(9000), nil); len(got) != 1 {
		t.Fatal("setup: truck not indexed")
	}
	// Drop Truck's Vehicle edge: trucks leave the hierarchy and must leave
	// the CH index too (reindexAfterUncover path). Truck loses `weight`,
	// making its instances unindexable under the vehicle index.
	if err := td.DropSuperclass(td.truck.ID, td.vehicle.ID); err != nil {
		t.Fatal(err)
	}
	idx, err := td.Indexes.Get("w")
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Lookup(model.Int(9000), nil); got != nil {
		t.Fatalf("uncovered truck still indexed: %v", got)
	}
	if td.Catalog.IsSubclassOf(td.truck.ID, td.vehicle.ID) {
		t.Fatal("edge not dropped")
	}
}

// TestDropClassOverDamagedRecordLeavesIndexes: DropClass reads the whole
// class before it unindexes an instance, so a record that does not decode
// fails the drop with ErrCorrupt and an index over a superclass keeps the
// instances scanned before it.
func TestDropClassOverDamagedRecordLeavesIndexes(t *testing.T) {
	td := openVehicleDB(t)
	if err := td.CreateIndex("w", td.vehicle.ID, []string{"weight"}, true); err != nil {
		t.Fatal(err)
	}
	truck := td.mustInsert(t, "Truck", map[string]model.Value{"weight": model.Int(9000)})
	// Behind it in the heap, a truck whose one value has an unknown kind.
	bad, err := td.Store.NewOID(td.truck.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := td.Store.Put(bad, append(binary.AppendUvarint(nil, uint64(bad)), 1, 1, 238)); err != nil {
		t.Fatal(err)
	}
	if err := td.DropClass(td.truck.ID); !errors.Is(err, model.ErrCorrupt) {
		t.Fatalf("DropClass over a damaged record: %v, want ErrCorrupt", err)
	}
	idx, err := td.Indexes.Get("w")
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Lookup(model.Int(9000), nil); len(got) != 1 || got[0] != truck {
		t.Fatalf("vehicle index after the failed drop: %v, want [%s]", got, truck)
	}
}

func TestRegisterMethodAfterReopen(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir, Options{})
	cl, _ := db.DefineClass("P", nil)
	if err := db.AddMethod(cl.ID, "ping", func(schema.MethodEngine, *model.Object, []model.Value) (model.Value, error) {
		return model.String("pong"), nil
	}); err != nil {
		t.Fatal(err)
	}
	var oid model.OID
	db.Do(func(tx *Tx) error {
		var err error
		oid, err = tx.InsertClass(cl.ID, nil)
		return err
	})
	db.Close()

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	// Signature survived, implementation did not.
	if _, err := db2.Send(oid, "ping"); err == nil {
		t.Fatal("unregistered method body executed")
	}
	if err := db2.RegisterMethod(cl.ID, "ping", func(schema.MethodEngine, *model.Object, []model.Value) (model.Value, error) {
		return model.String("pong2"), nil
	}); err != nil {
		t.Fatal(err)
	}
	out, err := db2.Send(oid, "ping")
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := out.AsString(); s != "pong2" {
		t.Fatalf("Send = %v", out)
	}
	// Registering on an undefined signature fails.
	if err := db2.RegisterMethod(cl.ID, "nosuch", nil); !errors.Is(err, schema.ErrNoSuchMethod) {
		t.Fatalf("expected ErrNoSuchMethod, got %v", err)
	}
}

func TestDropIndexEngine(t *testing.T) {
	td := openVehicleDB(t)
	if err := td.CreateIndex("w", td.vehicle.ID, []string{"weight"}, true); err != nil {
		t.Fatal(err)
	}
	if err := td.DropIndex("w"); err != nil {
		t.Fatal(err)
	}
	if _, err := td.Indexes.Get("w"); err == nil {
		t.Fatal("index survived drop")
	}
	// The drop is durable (index table checkpointed).
	td.Close()
	db2, err := Open(td.dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Indexes.Get("w"); err == nil {
		t.Fatal("dropped index resurrected at reopen")
	}
}

func TestRewriteRelocatesWithoutStateChange(t *testing.T) {
	td := openVehicleDB(t)
	td.CreateIndex("w", td.vehicle.ID, []string{"weight"}, true)
	a := td.mustInsert(t, "Vehicle", map[string]model.Value{"weight": model.Int(10)})
	// Interleave inserts so a is not at the tail.
	for i := 0; i < 50; i++ {
		td.mustInsert(t, "Vehicle", map[string]model.Value{"weight": model.Int(int64(i + 100))})
	}
	if err := td.Do(func(tx *Tx) error { return tx.Rewrite(a) }); err != nil {
		t.Fatal(err)
	}
	// State unchanged.
	obj, err := td.Fetch(a)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := td.AttrValue(obj, "weight")
	if n, _ := v.AsInt(); n != 10 {
		t.Fatalf("rewrite changed state: %v", v)
	}
	// Index unchanged.
	idx, _ := td.Indexes.Get("w")
	if got := idx.Lookup(model.Int(10), nil); len(got) != 1 || got[0] != a {
		t.Fatalf("rewrite disturbed index: %v", got)
	}
	// Abort of a rewrite restores, too.
	tx := td.Begin()
	if err := tx.Rewrite(a); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if _, err := td.Fetch(a); err != nil {
		t.Fatalf("aborted rewrite lost object: %v", err)
	}
}

func TestTxStringAndID(t *testing.T) {
	td := openVehicleDB(t)
	tx := td.Begin()
	defer tx.Commit()
	if tx.ID() == 0 {
		t.Error("transaction id should be nonzero")
	}
	if tx.String() == "" {
		t.Error("empty String()")
	}
}

func TestOperationsAfterCloseFail(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir, Options{})
	cl, _ := db.DefineClass("P", nil)
	db.Close()
	// Double close is a no-op.
	if err := db.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	tx := db.Begin()
	if _, err := tx.InsertClass(cl.ID, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
	if _, err := db.DefineClass("Q", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("DDL after close: %v", err)
	}
}

func TestLockClassScanFootprint(t *testing.T) {
	td := openVehicleDB(t)
	tx := td.Begin()
	classes, _ := td.Catalog.Descendants(td.vehicle.ID)
	if err := tx.LockClassScan(classes); err != nil {
		t.Fatal(err)
	}
	// DDL on a subclass must block behind the scan locks.
	done := make(chan error, 1)
	go func() {
		_, err := td.AddAttribute(td.truck.ID, schema.AttrSpec{Name: "zz", Domain: schema.ClassInteger})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("DDL proceeded under scan locks: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	tx.Commit()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Finished transactions refuse further scans.
	if err := tx.LockClassScan(classes); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("expected ErrTxnFinished, got %v", err)
	}
}

// TestDropClassRacingReclaim starts a reclaim while DropClass sits between
// its checkpoint and the frees of the detached segment. There the
// segment is durably unnamed but still allocated — leaked, to the
// accountant — so a reclaim that got in would free it, and DropClass would
// then free every page a second time, putting it on the free list twice.
// The reclaim has to wait for the DDL section to end and find nothing.
func TestDropClassRacingReclaim(t *testing.T) {
	td := openVehicleDB(t)
	if err := td.Do(func(tx *Tx) error {
		for i := 0; i < 2000; i++ {
			if _, err := tx.Insert("Truck", map[string]model.Value{"weight": model.Int(int64(i))}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var reclaimed int
	done := make(chan error, 1)
	td.beforeFree = func() {
		td.beforeFree = nil
		go func() {
			n, err := td.ReclaimLeaked(time.Second)
			reclaimed = n
			done <- err
		}()
		// Give the reclaim its chance to run inside the window.
		select {
		case err := <-done:
			done <- err
		case <-time.After(200 * time.Millisecond):
		}
	}
	if err := td.DropClass(td.truck.ID); err != nil {
		t.Fatalf("DropClass: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("ReclaimLeaked: %v", err)
	}
	if reclaimed != 0 {
		t.Errorf("the reclaim freed %d pages of the segment DropClass was freeing", reclaimed)
	}
	acct, err := td.Store.AccountPages()
	if err != nil {
		t.Fatal(err)
	}
	if acct.Leaked != 0 {
		t.Errorf("%d pages leaked: %v", acct.Leaked, acct.LeakedPages)
	}
	// The free list holds every free page once: popping it hands out
	// distinct pages, as many as the account counts, and then the file grows.
	disk := td.Store.Disk()
	seen := make(map[storage.PageID]bool)
	for {
		end := disk.NumPages()
		id, err := disk.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		if id == end {
			break
		}
		if seen[id] {
			t.Fatalf("page %d is on the free list twice (freed twice)", id)
		}
		seen[id] = true
	}
	if uint64(len(seen)) != acct.Free {
		t.Fatalf("free list holds %d pages, the account counts %d free", len(seen), acct.Free)
	}
}
