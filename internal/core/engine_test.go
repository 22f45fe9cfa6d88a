package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"oodb/internal/model"
	"oodb/internal/schema"
	"oodb/internal/storage"
	"oodb/internal/wal"
)

// testDB opens a fresh database with the Figure 1 vehicle schema.
type testDB struct {
	*DB
	dir                                   string
	vehicle, auto, truck, company, autoCo *schema.Class
}

func openVehicleDB(t *testing.T) *testDB {
	t.Helper()
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	td := &testDB{DB: db, dir: dir}
	td.company, err = db.DefineClass("Company", nil,
		schema.AttrSpec{Name: "name", Domain: schema.ClassString},
		schema.AttrSpec{Name: "location", Domain: schema.ClassString})
	if err != nil {
		t.Fatal(err)
	}
	td.autoCo, _ = db.DefineClass("AutoCompany", []model.ClassID{td.company.ID})
	td.vehicle, err = db.DefineClass("Vehicle", nil,
		schema.AttrSpec{Name: "weight", Domain: schema.ClassInteger},
		schema.AttrSpec{Name: "manufacturer", Domain: td.company.ID})
	if err != nil {
		t.Fatal(err)
	}
	td.auto, _ = db.DefineClass("Automobile", []model.ClassID{td.vehicle.ID})
	td.truck, _ = db.DefineClass("Truck", []model.ClassID{td.vehicle.ID},
		schema.AttrSpec{Name: "payload", Domain: schema.ClassInteger})
	return td
}

func (td *testDB) mustInsert(t *testing.T, class string, attrs map[string]model.Value) model.OID {
	t.Helper()
	var oid model.OID
	err := td.Do(func(tx *Tx) error {
		var err error
		oid, err = tx.Insert(class, attrs)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return oid
}

func TestInsertFetchRoundTrip(t *testing.T) {
	td := openVehicleDB(t)
	maker := td.mustInsert(t, "Company", map[string]model.Value{
		"name": model.String("GM"), "location": model.String("Detroit"),
	})
	oid := td.mustInsert(t, "Vehicle", map[string]model.Value{
		"weight": model.Int(8000), "manufacturer": model.Ref(maker),
	})
	tx := td.Begin()
	defer tx.Commit()
	obj, err := tx.Fetch(oid)
	if err != nil {
		t.Fatal(err)
	}
	w, err := td.AttrValue(obj, "weight")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := w.AsInt(); v != 8000 {
		t.Errorf("weight = %v", w)
	}
	m, _ := td.AttrValue(obj, "manufacturer")
	ref, _ := m.AsRef()
	if ref != maker {
		t.Errorf("manufacturer = %v, want %v", ref, maker)
	}
}

func TestDomainViolationRejected(t *testing.T) {
	td := openVehicleDB(t)
	err := td.Do(func(tx *Tx) error {
		_, err := tx.Insert("Vehicle", map[string]model.Value{"weight": model.String("heavy")})
		return err
	})
	if !errors.Is(err, schema.ErrDomain) {
		t.Fatalf("expected ErrDomain, got %v", err)
	}
	// Reference to the wrong class rejected too.
	v := td.mustInsert(t, "Vehicle", map[string]model.Value{"weight": model.Int(1)})
	err = td.Do(func(tx *Tx) error {
		_, err := tx.Insert("Vehicle", map[string]model.Value{"manufacturer": model.Ref(v)})
		return err
	})
	if !errors.Is(err, schema.ErrDomain) {
		t.Fatalf("expected ErrDomain for wrong ref class, got %v", err)
	}
}

func TestSubclassInstanceSatisfiesDomain(t *testing.T) {
	td := openVehicleDB(t)
	ac := td.mustInsert(t, "AutoCompany", map[string]model.Value{"name": model.String("Toyota")})
	err := td.Do(func(tx *Tx) error {
		_, err := tx.Insert("Vehicle", map[string]model.Value{"manufacturer": model.Ref(ac)})
		return err
	})
	if err != nil {
		t.Fatalf("AutoCompany should satisfy Company domain: %v", err)
	}
}

func TestInheritedAttributeOnSubclass(t *testing.T) {
	td := openVehicleDB(t)
	oid := td.mustInsert(t, "Truck", map[string]model.Value{
		"weight": model.Int(9000), "payload": model.Int(4000),
	})
	if oid.Class() != td.truck.ID {
		t.Fatalf("class = %d", oid.Class())
	}
	obj, _ := td.Fetch(oid)
	w, _ := td.AttrValue(obj, "weight")
	if v, _ := w.AsInt(); v != 9000 {
		t.Error("inherited attribute lost")
	}
}

func TestAbortRollsBackStoreAndIndexes(t *testing.T) {
	td := openVehicleDB(t)
	if err := td.CreateIndex("w", td.vehicle.ID, []string{"weight"}, true); err != nil {
		t.Fatal(err)
	}
	pre := td.mustInsert(t, "Vehicle", map[string]model.Value{"weight": model.Int(100)})

	tx := td.Begin()
	ins, err := tx.Insert("Vehicle", map[string]model.Value{"weight": model.Int(200)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(pre, map[string]model.Value{"weight": model.Int(300)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}

	// Inserted object gone.
	if _, err := td.Fetch(ins); !errors.Is(err, ErrNoObject) {
		t.Errorf("aborted insert visible: %v", err)
	}
	// Update reversed.
	obj, _ := td.Fetch(pre)
	w, _ := td.AttrValue(obj, "weight")
	if v, _ := w.AsInt(); v != 100 {
		t.Errorf("aborted update visible: %v", w)
	}
	// Index agrees.
	idx, _ := td.Indexes.Get("w")
	if got := idx.Lookup(model.Int(100), nil); len(got) != 1 {
		t.Errorf("index lost pre-image: %v", got)
	}
	if got := idx.Lookup(model.Int(200), nil); got != nil {
		t.Errorf("index kept aborted insert: %v", got)
	}
	if got := idx.Lookup(model.Int(300), nil); got != nil {
		t.Errorf("index kept aborted update: %v", got)
	}
}

func TestDurabilityAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := db.DefineClass("P", nil, schema.AttrSpec{Name: "n", Domain: schema.ClassInteger})
	var oids []model.OID
	db.Do(func(tx *Tx) error {
		for i := 0; i < 50; i++ {
			oid, err := tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(int64(i))})
			if err != nil {
				return err
			}
			oids = append(oids, oid)
		}
		return nil
	})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Catalog.ClassByName("P"); err != nil {
		t.Fatal("catalog lost")
	}
	for i, oid := range oids {
		obj, err := db2.Fetch(oid)
		if err != nil {
			t.Fatalf("object %d lost: %v", i, err)
		}
		n, _ := db2.AttrValue(obj, "n")
		if v, _ := n.AsInt(); v != int64(i) {
			t.Fatalf("object %d corrupted", i)
		}
	}
}

// crash simulates a crash: the store file keeps whatever was flushed, the
// WAL keeps synced records, and nothing graceful runs. We reopen from the
// same directory.
func TestCrashRecoveryCommittedSurvives(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := db.DefineClass("P", nil, schema.AttrSpec{Name: "n", Domain: schema.ClassInteger})

	var committed model.OID
	db.Do(func(tx *Tx) error {
		var err error
		committed, err = tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(7)})
		return err
	})

	// An uncommitted transaction in flight at the crash.
	tx := db.Begin()
	loser, err := tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(666)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(committed, map[string]model.Value{"n": model.Int(999)}); err != nil {
		t.Fatal(err)
	}
	// Force the loser's dirty state to disk (evictions could do this in
	// production), then "crash" without commit/close.
	if err := db.Store.Pool().FlushAll(); err != nil {
		t.Fatal(err)
	}
	db.Log.Sync() // loser ops are durable in the log, but no commit record

	// Crash: reopen without Close.
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()

	// Committed object survives with its committed value.
	obj, err := db2.Fetch(committed)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := db2.AttrValue(obj, "n")
	if v, _ := n.AsInt(); v != 7 {
		t.Fatalf("committed value = %v, want 7 (loser update must be undone)", n)
	}
	// Loser insert is gone.
	if _, err := db2.Fetch(loser); !errors.Is(err, ErrNoObject) {
		t.Fatalf("loser insert survived crash: %v", err)
	}
}

func TestCrashRecoveryRedo(t *testing.T) {
	// Committed work that never reached the data file (no checkpoint, no
	// flush) must be redone from the log alone.
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := db.DefineClass("P", nil, schema.AttrSpec{Name: "n", Domain: schema.ClassInteger})
	// DefineClass checkpointed; subsequent DML lives only in WAL + buffer.
	var oid model.OID
	db.Do(func(tx *Tx) error {
		var err error
		oid, err = tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(42)})
		return err
	})
	// Crash without flushing pages or closing.
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	obj, err := db2.Fetch(oid)
	if err != nil {
		t.Fatalf("committed insert lost (redo failed): %v", err)
	}
	n, _ := db2.AttrValue(obj, "n")
	if v, _ := n.AsInt(); v != 42 {
		t.Fatal("redo applied wrong image")
	}
}

func TestIndexesRebuiltOnOpen(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir, Options{})
	cl, _ := db.DefineClass("P", nil, schema.AttrSpec{Name: "n", Domain: schema.ClassInteger})
	db.CreateIndex("pn", cl.ID, []string{"n"}, true)
	db.Do(func(tx *Tx) error {
		for i := 0; i < 30; i++ {
			if _, err := tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(int64(i % 5))}); err != nil {
				return err
			}
		}
		return nil
	})
	db.Close()

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	idx, err := db2.Indexes.Get("pn")
	if err != nil {
		t.Fatal("index definition lost across reopen")
	}
	if got := idx.Lookup(model.Int(3), nil); len(got) != 6 {
		t.Fatalf("rebuilt index lookup = %d entries, want 6", len(got))
	}
}

func TestLateBindingSendAndOverride(t *testing.T) {
	td := openVehicleDB(t)
	// describe on Vehicle; Truck overrides.
	if err := td.AddMethod(td.vehicle.ID, "describe", func(eng schema.MethodEngine, recv *model.Object, _ []model.Value) (model.Value, error) {
		return model.String("a vehicle"), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := td.AddMethod(td.truck.ID, "describe", func(eng schema.MethodEngine, recv *model.Object, _ []model.Value) (model.Value, error) {
		return model.String("a truck"), nil
	}); err != nil {
		t.Fatal(err)
	}
	car := td.mustInsert(t, "Automobile", map[string]model.Value{"weight": model.Int(1)})
	truck := td.mustInsert(t, "Truck", map[string]model.Value{"weight": model.Int(2)})

	// Automobile has no describe: late binding walks up to Vehicle.
	got, err := td.Send(car, "describe")
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := got.AsString(); s != "a vehicle" {
		t.Errorf("Send(car) = %v", got)
	}
	got, _ = td.Send(truck, "describe")
	if s, _ := got.AsString(); s != "a truck" {
		t.Errorf("Send(truck) = %v", got)
	}
	// Unknown message.
	if _, err := td.Send(car, "fly"); err == nil {
		t.Error("unknown message accepted")
	}
}

func TestMethodsCanSendAndFetch(t *testing.T) {
	td := openVehicleDB(t)
	// makerLocation fetches the referenced company through the engine.
	err := td.AddMethod(td.vehicle.ID, "makerLocation", func(eng schema.MethodEngine, recv *model.Object, _ []model.Value) (model.Value, error) {
		for _, a := range recv.AttrVals() {
			_ = a
		}
		mref, err := td.AttrValue(recv, "manufacturer")
		if err != nil {
			return model.Null, err
		}
		oid, ok := mref.AsRef()
		if !ok {
			return model.Null, nil
		}
		maker, err := eng.Fetch(oid)
		if err != nil {
			return model.Null, err
		}
		return td.AttrValue(maker, "location")
	})
	if err != nil {
		t.Fatal(err)
	}
	maker := td.mustInsert(t, "Company", map[string]model.Value{"location": model.String("Detroit")})
	v := td.mustInsert(t, "Vehicle", map[string]model.Value{"manufacturer": model.Ref(maker)})
	got, err := td.Send(v, "makerLocation")
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := got.AsString(); s != "Detroit" {
		t.Errorf("makerLocation = %v", got)
	}
}

func TestLazyEvolutionDefaults(t *testing.T) {
	td := openVehicleDB(t)
	oid := td.mustInsert(t, "Vehicle", map[string]model.Value{"weight": model.Int(1)})
	// Add an attribute after the instance exists.
	if _, err := td.AddAttribute(td.vehicle.ID, schema.AttrSpec{
		Name: "color", Domain: schema.ClassString, Default: model.String("white"),
	}); err != nil {
		t.Fatal(err)
	}
	obj, _ := td.Fetch(oid)
	c, err := td.AttrValue(obj, "color")
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := c.AsString(); s != "white" {
		t.Errorf("lazy default = %v", c)
	}
	// Writing it overrides the default.
	td.Do(func(tx *Tx) error {
		return tx.Update(oid, map[string]model.Value{"color": model.String("red")})
	})
	obj, _ = td.Fetch(oid)
	c, _ = td.AttrValue(obj, "color")
	if s, _ := c.AsString(); s != "red" {
		t.Errorf("written value = %v", c)
	}
}

func TestDropAttributeDropsCoveringIndexes(t *testing.T) {
	td := openVehicleDB(t)
	td.CreateIndex("w", td.vehicle.ID, []string{"weight"}, true)
	td.CreateIndex("loc", td.vehicle.ID, []string{"manufacturer", "location"}, true)
	if err := td.DropAttribute(td.vehicle.ID, "weight"); err != nil {
		t.Fatal(err)
	}
	if _, err := td.Indexes.Get("w"); err == nil {
		t.Error("index on dropped attribute survived")
	}
	if _, err := td.Indexes.Get("loc"); err != nil {
		t.Error("unrelated index dropped")
	}
}

func TestDropClassRemovesInstances(t *testing.T) {
	td := openVehicleDB(t)
	leaf, _ := td.DefineClass("Moped", []model.ClassID{td.vehicle.ID})
	var oid model.OID
	td.Do(func(tx *Tx) error {
		var err error
		oid, err = tx.InsertClass(leaf.ID, map[string]model.Value{"weight": model.Int(90)})
		return err
	})
	if err := td.DropClass(leaf.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := td.Fetch(oid); !errors.Is(err, ErrNoObject) {
		t.Error("instance survived class drop")
	}
	if _, err := td.Catalog.ClassByName("Moped"); err == nil {
		t.Error("class survived drop")
	}
}

func TestAddSuperclassExtendsIndexCoverage(t *testing.T) {
	td := openVehicleDB(t)
	td.CreateIndex("w", td.vehicle.ID, []string{"weight"}, true)
	// A standalone class with compatible data, initially outside the
	// hierarchy.
	bike, _ := td.DefineClass("Bicycle", nil)
	var oid model.OID
	td.Do(func(tx *Tx) error {
		var err error
		oid, err = tx.InsertClass(bike.ID, nil)
		return err
	})
	_ = oid
	// Link it under Vehicle: it inherits weight and joins the CH index
	// coverage (no data yet — but new inserts get indexed).
	if err := td.AddSuperclass(bike.ID, td.vehicle.ID); err != nil {
		t.Fatal(err)
	}
	td.Do(func(tx *Tx) error {
		_, err := tx.InsertClass(bike.ID, map[string]model.Value{"weight": model.Int(12)})
		return err
	})
	idx, _ := td.Indexes.Get("w")
	if got := idx.Lookup(model.Int(12), nil); len(got) != 1 {
		t.Fatalf("bicycle not covered by CH index after AddSuperclass: %v", got)
	}
}

func TestScanIsolationClassLock(t *testing.T) {
	td := openVehicleDB(t)
	for i := 0; i < 10; i++ {
		td.mustInsert(t, "Vehicle", map[string]model.Value{"weight": model.Int(int64(i))})
	}
	tx := td.Begin()
	n := 0
	if err := tx.Scan(td.vehicle.ID, func(*model.Object) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("scan saw %d", n)
	}
	tx.Commit()
}

func TestDoRetriesDeadlock(t *testing.T) {
	// Two transactions updating a, b in opposite orders; Do's retry must
	// let both complete eventually.
	td := openVehicleDB(t)
	a := td.mustInsert(t, "Vehicle", map[string]model.Value{"weight": model.Int(1)})
	b := td.mustInsert(t, "Vehicle", map[string]model.Value{"weight": model.Int(2)})
	done := make(chan error, 2)
	run := func(first, second model.OID) {
		done <- td.Do(func(tx *Tx) error {
			if err := tx.Update(first, map[string]model.Value{"weight": model.Int(10)}); err != nil {
				return err
			}
			if err := tx.Update(second, map[string]model.Value{"weight": model.Int(20)}); err != nil {
				return err
			}
			return nil
		})
	}
	go run(a, b)
	go run(b, a)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
}

func TestAutoCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{CheckpointBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cl, _ := db.DefineClass("P", nil, schema.AttrSpec{Name: "s", Domain: schema.ClassString})
	payload := model.String(string(make([]byte, 512)))
	for i := 0; i < 20; i++ {
		db.Do(func(tx *Tx) error {
			_, err := tx.InsertClass(cl.ID, map[string]model.Value{"s": payload})
			return err
		})
	}
	size := db.Log.Size()
	if size > 8192 {
		t.Fatalf("WAL grew to %d bytes; auto-checkpoint never fired", size)
	}
}

func TestTxFinishedGuards(t *testing.T) {
	td := openVehicleDB(t)
	tx := td.Begin()
	tx.Commit()
	if _, err := tx.Insert("Vehicle", nil); !errors.Is(err, ErrTxnFinished) {
		t.Errorf("Insert after commit: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnFinished) {
		t.Errorf("double commit: %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxnFinished) {
		t.Errorf("abort after commit: %v", err)
	}
}

func TestWALRecordsHaveBeforeImages(t *testing.T) {
	// White-box: an update logs both images (needed for undo).
	td := openVehicleDB(t)
	oid := td.mustInsert(t, "Vehicle", map[string]model.Value{"weight": model.Int(1)})
	td.Do(func(tx *Tx) error {
		return tx.Update(oid, map[string]model.Value{"weight": model.Int(2)})
	})
	td.Log.Sync()
	// Read the WAL file directly.
	recs := readWAL(t, td.dir)
	var found bool
	for _, r := range recs {
		if r.Type == wal.RecPut && r.OID == oid && r.Before != nil {
			found = true
		}
	}
	if !found {
		t.Error("update logged without before-image")
	}
}

func readWAL(t *testing.T, dir string) []wal.Record {
	t.Helper()
	// Open a second handle on the log for inspection.
	tmp := filepath.Join(t.TempDir(), "copy.wal")
	data, err := os.ReadFile(filepath.Join(dir, "log.wal"))
	if err != nil {
		t.Fatal(err)
	}
	os.WriteFile(tmp, data, 0o644)
	w, recs, err := wal.Open(tmp)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	return recs
}

func TestManyObjectsAcrossCheckpointAndCrash(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir, Options{})
	cl, _ := db.DefineClass("P", nil, schema.AttrSpec{Name: "n", Domain: schema.ClassInteger})
	for i := 0; i < 10; i++ {
		db.Do(func(tx *Tx) error {
			for j := 0; j < 20; j++ {
				if _, err := tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(int64(j))}); err != nil {
					return err
				}
			}
			return nil
		})
		if i == 4 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Crash without close.
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Store.Count(cl.ID); got != 200 {
		t.Fatalf("Count = %d, want 200", got)
	}
}

func TestOpenRejectsCorruptDataFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "data.kdb"), make([]byte, storage.PageSize), 0o644); err != nil {
		t.Fatal(err)
	}
	// A zero metadata page has no magic; Open must fail, not panic.
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("garbage data file accepted")
	}
}

func ExampleDB_Send() {
	dir, _ := os.MkdirTemp("", "kimdb")
	defer os.RemoveAll(dir)
	db, _ := Open(dir, Options{})
	defer db.Close()
	shape, _ := db.DefineClass("Shape", nil,
		schema.AttrSpec{Name: "name", Domain: schema.ClassString})
	db.AddMethod(shape.ID, "display", func(eng schema.MethodEngine, recv *model.Object, _ []model.Value) (model.Value, error) {
		return model.String("displaying a shape"), nil
	})
	var oid model.OID
	db.Do(func(tx *Tx) error {
		var err error
		oid, err = tx.Insert("Shape", map[string]model.Value{"name": model.String("box")})
		return err
	})
	out, _ := db.Send(oid, "display")
	s, _ := out.AsString()
	fmt.Println(s)
	// Output: displaying a shape
}
