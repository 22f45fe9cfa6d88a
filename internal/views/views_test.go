package views

import (
	"errors"
	"maps"
	"testing"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/query"
	"oodb/internal/schema"
)

type world struct {
	db           *core.DB
	vm           *Manager
	heavy, light model.OID
}

func newWorld(t *testing.T) *world {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	vehicle, _ := db.DefineClass("Vehicle", nil,
		schema.AttrSpec{Name: "id", Domain: schema.ClassString},
		schema.AttrSpec{Name: "weight", Domain: schema.ClassInteger})
	db.DefineClass("Truck", []model.ClassID{vehicle.ID})
	vm, err := New(db, query.NewEngine(db))
	if err != nil {
		t.Fatal(err)
	}
	w := &world{db: db, vm: vm}
	db.Do(func(tx *core.Tx) error {
		w.heavy, _ = tx.Insert("Truck", map[string]model.Value{
			"id": model.String("t1"), "weight": model.Int(9000)})
		w.light, _ = tx.Insert("Vehicle", map[string]model.Value{
			"id": model.String("v1"), "weight": model.Int(900)})
		return nil
	})
	return w
}

func TestDefineAndRun(t *testing.T) {
	w := newWorld(t)
	if err := w.vm.Define("HeavyVehicles", `SELECT * FROM Vehicle WHERE weight > 7500`); err != nil {
		t.Fatal(err)
	}
	tx := w.db.Begin()
	defer tx.Commit()
	res, err := w.vm.Run(tx, "HeavyVehicles")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].OID != w.heavy {
		t.Fatalf("rows = %+v", res.Rows)
	}
}

func TestDefineValidates(t *testing.T) {
	w := newWorld(t)
	if err := w.vm.Define("bad", `SELECT * FROM Nowhere`); err == nil {
		t.Fatal("invalid view accepted")
	}
	if err := w.vm.Define("bad", `garbage`); err == nil {
		t.Fatal("unparseable view accepted")
	}
	if len(w.vm.Names()) != 0 {
		t.Fatal("failed define left state")
	}
}

func TestDuplicateAndDrop(t *testing.T) {
	w := newWorld(t)
	w.vm.Define("v", `SELECT * FROM Vehicle`)
	if err := w.vm.Define("v", `SELECT * FROM Vehicle`); !errors.Is(err, ErrViewExists) {
		t.Fatalf("expected ErrViewExists, got %v", err)
	}
	if err := w.vm.Drop("v"); err != nil {
		t.Fatal(err)
	}
	if err := w.vm.Drop("v"); !errors.Is(err, ErrNoSuchView) {
		t.Fatalf("expected ErrNoSuchView, got %v", err)
	}
}

func TestVisibleContentBasedAuthorization(t *testing.T) {
	w := newWorld(t)
	w.vm.Define("HeavyVehicles", `SELECT * FROM Vehicle WHERE weight > 7500`)
	tx := w.db.Begin()
	defer tx.Commit()
	ok, err := w.vm.Visible(tx, "HeavyVehicles", w.heavy)
	if err != nil || !ok {
		t.Fatalf("heavy not visible: %v %v", ok, err)
	}
	ok, _ = w.vm.Visible(tx, "HeavyVehicles", w.light)
	if ok {
		t.Fatal("light vehicle visible through heavy view")
	}
}

func TestViewReflectsCurrentData(t *testing.T) {
	w := newWorld(t)
	w.vm.Define("HeavyVehicles", `SELECT * FROM Vehicle WHERE weight > 7500`)
	// Views are virtual: new matching objects appear immediately.
	w.db.Do(func(tx *core.Tx) error {
		_, err := tx.Insert("Vehicle", map[string]model.Value{
			"id": model.String("v2"), "weight": model.Int(8000)})
		return err
	})
	tx := w.db.Begin()
	defer tx.Commit()
	res, _ := w.vm.Run(tx, "HeavyVehicles")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
}

func TestRedefine(t *testing.T) {
	w := newWorld(t)
	w.vm.Define("V", `SELECT * FROM Vehicle WHERE weight > 7500`)
	if err := w.vm.Redefine("V", `SELECT * FROM Vehicle WHERE weight < 7500`); err != nil {
		t.Fatal(err)
	}
	tx := w.db.Begin()
	defer tx.Commit()
	res, _ := w.vm.Run(tx, "V")
	if len(res.Rows) != 1 || res.Rows[0].OID != w.light {
		t.Fatalf("redefined view rows = %+v", res.Rows)
	}
	if err := w.vm.Redefine("missing", `SELECT * FROM Vehicle`); !errors.Is(err, ErrNoSuchView) {
		t.Fatalf("expected ErrNoSuchView, got %v", err)
	}
}

func TestViewsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	db, _ := core.Open(dir, core.Options{})
	db.DefineClass("Vehicle", nil,
		schema.AttrSpec{Name: "weight", Domain: schema.ClassInteger})
	vm, _ := New(db, query.NewEngine(db))
	vm.Define("Heavy", `SELECT * FROM Vehicle WHERE weight > 7500`)
	db.Do(func(tx *core.Tx) error {
		_, err := tx.Insert("Vehicle", map[string]model.Value{"weight": model.Int(9000)})
		return err
	})
	db.Close()

	db2, _ := core.Open(dir, core.Options{})
	defer db2.Close()
	vm2, err := New(db2, query.NewEngine(db2))
	if err != nil {
		t.Fatal(err)
	}
	if len(vm2.Names()) != 1 || vm2.Names()[0] != "Heavy" {
		t.Fatalf("names after reopen = %v", vm2.Names())
	}
	tx := db2.Begin()
	defer tx.Commit()
	res, err := vm2.Run(tx, "Heavy")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("reopened view run = %v, %v", res, err)
	}
}

func TestProjectionViews(t *testing.T) {
	w := newWorld(t)
	w.vm.Define("IDs", `SELECT id FROM Vehicle ORDER BY weight DESC`)
	tx := w.db.Begin()
	defer tx.Commit()
	res, err := w.vm.Run(tx, "IDs")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 1 || res.Cols[0] != "id" {
		t.Fatalf("cols = %v", res.Cols)
	}
	if s, _ := res.Rows[0].Values[0].AsString(); s != "t1" {
		t.Fatalf("first row = %v", res.Rows[0].Values)
	}
}

func TestQueryFromView(t *testing.T) {
	// "A query may be issued against views just as though they were
	// relations" (Kim §5.4): FROM <ViewName> with further predicates.
	w := newWorld(t)
	if err := w.vm.Define("HeavyVehicles", `SELECT * FROM Vehicle WHERE weight > 7500`); err != nil {
		t.Fatal(err)
	}
	// Add more data so the composition is visible.
	w.db.Do(func(tx *core.Tx) error {
		tx.Insert("Truck", map[string]model.Value{
			"id": model.String("t2"), "weight": model.Int(8000)})
		return nil
	})
	tx := w.db.Begin()
	defer tx.Commit()
	eng := w.vm.eng

	// Bare view query.
	res, err := eng.Run(tx, `SELECT * FROM HeavyVehicles`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("FROM view rows = %d", len(res.Rows))
	}
	// Further restriction conjoins with the view's predicate.
	res, err = eng.Run(tx, `SELECT id FROM HeavyVehicles WHERE weight > 8500`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("restricted view rows = %d", len(res.Rows))
	}
	if s, _ := res.Rows[0].Values[0].AsString(); s != "t1" {
		t.Fatalf("row = %v", res.Rows[0].Values)
	}
	// Aggregates over a view.
	res, err = eng.Run(tx, `SELECT COUNT(*) FROM HeavyVehicles`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Rows[0].Values[0].AsInt(); n != 2 {
		t.Fatalf("COUNT over view = %v", res.Rows[0].Values[0])
	}
	// Ordering and limit over a view.
	res, err = eng.Run(tx, `SELECT id FROM HeavyVehicles ORDER BY weight DESC LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := res.Rows[0].Values[0].AsString(); s != "t1" {
		t.Fatalf("ordered view row = %v", res.Rows[0].Values)
	}
}

func TestViewOverViewAndCycles(t *testing.T) {
	w := newWorld(t)
	w.vm.Define("Heavy", `SELECT * FROM Vehicle WHERE weight > 7500`)
	if err := w.vm.Define("VeryHeavy", `SELECT * FROM Heavy WHERE weight > 8500`); err != nil {
		t.Fatal(err)
	}
	tx := w.db.Begin()
	defer tx.Commit()
	res, err := w.vm.eng.Run(tx, `SELECT * FROM VeryHeavy`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("view-over-view rows = %d", len(res.Rows))
	}
	// A cyclic redefinition must error, not recurse forever.
	if err := w.vm.Redefine("Heavy", `SELECT * FROM Heavy`); err == nil {
		t.Fatal("cyclic view accepted")
	}
}

func TestViewWithLimitOnlyBareSelect(t *testing.T) {
	w := newWorld(t)
	w.vm.Define("TopOne", `SELECT * FROM Vehicle ORDER BY weight DESC LIMIT 1`)
	tx := w.db.Begin()
	defer tx.Commit()
	res, err := w.vm.eng.Run(tx, `SELECT * FROM TopOne`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].OID != w.heavy {
		t.Fatalf("rows = %+v", res.Rows)
	}
	// Restricting a LIMITed view would silently change semantics: reject.
	if _, err := w.vm.eng.Run(tx, `SELECT * FROM TopOne WHERE weight > 0`); err == nil {
		t.Fatal("restriction over LIMITed view accepted")
	}
}

// New loads the committed view definitions: beside an open transaction
// that inserts a definition record, rewrites one and deletes another, and
// again after it aborts.
func TestNewBesideUncommittedDefinitions(t *testing.T) {
	w := newWorld(t)
	want := map[string]string{
		"Heavy": `SELECT * FROM Vehicle WHERE weight > 7500`,
		"Light": `SELECT * FROM Vehicle WHERE weight < 1000`,
	}
	for name, src := range want {
		if err := w.vm.Define(name, src); err != nil {
			t.Fatal(err)
		}
	}
	tx := w.db.Begin()
	defer tx.Abort()
	if _, err := tx.InsertClass(w.vm.class.ID, map[string]model.Value{
		"name": model.String("Ghost"), "source": model.String(`SELECT * FROM Vehicle`),
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(w.vm.defs["Heavy"].oid, map[string]model.Value{"source": model.String(`SELECT * FROM Truck`)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(w.vm.defs["Light"].oid); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		vm, err := New(w.db, query.NewEngine(w.db))
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		for name, d := range vm.defs {
			got[name] = d.src
		}
		if !maps.Equal(got, want) {
			t.Fatalf("%s: views %v, want %v", when, got, want)
		}
	}
	check("beside the open transaction")
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	check("after its abort")
}
