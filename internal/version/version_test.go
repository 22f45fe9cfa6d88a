package version

import (
	"errors"
	"testing"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/schema"
)

type world struct {
	db     *core.DB
	vm     *Manager
	design *schema.Class
}

func newWorld(t *testing.T) *world {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	db.OnWrite(CheckWrite)
	design, err := db.DefineClass("Design", nil,
		schema.AttrSpec{Name: "name", Domain: schema.ClassString},
		schema.AttrSpec{Name: "area", Domain: schema.ClassInteger})
	if err != nil {
		t.Fatal(err)
	}
	vm, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.EnableVersioning(design.ID); err != nil {
		t.Fatal(err)
	}
	return &world{db: db, vm: vm, design: design}
}

func (w *world) create(t *testing.T) (generic, v1 model.OID) {
	t.Helper()
	err := w.db.Do(func(tx *core.Tx) error {
		var err error
		generic, v1, err = w.vm.CreateVersioned(tx, w.design.ID, map[string]model.Value{
			"name": model.String("alu"), "area": model.Int(100),
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return generic, v1
}

func TestCreateVersioned(t *testing.T) {
	w := newWorld(t)
	g, v1 := w.create(t)
	st, err := w.vm.StateOf(v1)
	if err != nil || st != Transient {
		t.Fatalf("state = %v, %v", st, err)
	}
	gg, err := w.vm.GenericOf(v1)
	if err != nil || gg != g {
		t.Fatalf("generic = %v, %v", gg, err)
	}
	vs, _ := w.vm.Versions(g)
	if len(vs) != 1 || vs[0] != v1 {
		t.Fatalf("versions = %v", vs)
	}
}

func TestCreateRequiresEnabledClass(t *testing.T) {
	w := newWorld(t)
	other, _ := w.db.DefineClass("Plain", nil)
	err := w.db.Do(func(tx *core.Tx) error {
		_, _, err := w.vm.CreateVersioned(tx, other.ID, nil)
		return err
	})
	if !errors.Is(err, ErrNotVersionable) {
		t.Fatalf("expected ErrNotVersionable, got %v", err)
	}
}

func TestUpdateRules(t *testing.T) {
	w := newWorld(t)
	_, v1 := w.create(t)
	// Transient updatable.
	err := w.db.Do(func(tx *core.Tx) error {
		return w.vm.UpdateVersion(tx, v1, map[string]model.Value{"area": model.Int(200)})
	})
	if err != nil {
		t.Fatal(err)
	}
	// Promote to working: frozen.
	w.db.Do(func(tx *core.Tx) error {
		_, err := w.vm.Promote(tx, v1)
		return err
	})
	err = w.db.Do(func(tx *core.Tx) error {
		return w.vm.UpdateVersion(tx, v1, map[string]model.Value{"area": model.Int(300)})
	})
	if !errors.Is(err, ErrFrozen) {
		t.Fatalf("expected ErrFrozen, got %v", err)
	}
}

func TestDeriveCopiesStateAndPromotesParent(t *testing.T) {
	w := newWorld(t)
	g, v1 := w.create(t)
	var v2 model.OID
	err := w.db.Do(func(tx *core.Tx) error {
		var err error
		v2, err = w.vm.Derive(tx, v1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Parent auto-promoted to working.
	st, _ := w.vm.StateOf(v1)
	if st != Working {
		t.Errorf("parent state = %v, want working", st)
	}
	// Child is transient, carries copied attributes, linked to parent.
	st, _ = w.vm.StateOf(v2)
	if st != Transient {
		t.Errorf("child state = %v", st)
	}
	obj, _ := w.db.Fetch(v2)
	area, _ := w.db.AttrValue(obj, "area")
	if n, _ := area.AsInt(); n != 100 {
		t.Errorf("copied area = %v", area)
	}
	p, _ := w.vm.ParentOf(v2)
	if p != v1 {
		t.Errorf("parent = %v", p)
	}
	vs, _ := w.vm.Versions(g)
	if len(vs) != 2 {
		t.Errorf("versions = %v", vs)
	}
}

func TestDerivationHierarchy(t *testing.T) {
	w := newWorld(t)
	_, v1 := w.create(t)
	var v2, v3, v4 model.OID
	w.db.Do(func(tx *core.Tx) error {
		v2, _ = w.vm.Derive(tx, v1)
		v3, _ = w.vm.Derive(tx, v1) // sibling branch
		v4, _ = w.vm.Derive(tx, v2)
		return nil
	})
	// v2 and v3 share parent v1; v4 descends from v2.
	if p, _ := w.vm.ParentOf(v3); p != v1 {
		t.Error("v3 parent wrong")
	}
	if p, _ := w.vm.ParentOf(v4); p != v2 {
		t.Error("v4 parent wrong")
	}
	// Version numbers are distinct and increasing.
	nums := map[int64]bool{}
	for _, v := range []model.OID{v1, v2, v3, v4} {
		obj, _ := w.db.Fetch(v)
		nv, _ := w.db.AttrValue(obj, attrNumber)
		n, _ := nv.AsInt()
		if nums[n] {
			t.Fatalf("duplicate version number %d", n)
		}
		nums[n] = true
	}
}

func TestResolveDynamicBinding(t *testing.T) {
	w := newWorld(t)
	g, v1 := w.create(t)
	var v2 model.OID
	w.db.Do(func(tx *core.Tx) error {
		var err error
		v2, err = w.vm.Derive(tx, v1)
		return err
	})
	// No default: resolves to the latest (v2).
	got, err := w.vm.Resolve(g)
	if err != nil || got != v2 {
		t.Fatalf("Resolve = %v, %v (want %v)", got, err, v2)
	}
	// Pin default to v1: static binding.
	w.db.Do(func(tx *core.Tx) error { return w.vm.SetDefault(tx, g, v1) })
	got, _ = w.vm.Resolve(g)
	if got != v1 {
		t.Fatalf("Resolve with default = %v, want %v", got, v1)
	}
}

func TestDeleteRules(t *testing.T) {
	w := newWorld(t)
	g, v1 := w.create(t)
	var v2 model.OID
	w.db.Do(func(tx *core.Tx) error {
		var err error
		v2, err = w.vm.Derive(tx, v1)
		return err
	})
	// Release v1: undeletable.
	w.db.Do(func(tx *core.Tx) error {
		w.vm.Promote(tx, v1) // already working after derive -> released
		return nil
	})
	if st, _ := w.vm.StateOf(v1); st != Released {
		t.Fatalf("v1 state = %v", st)
	}
	err := w.db.Do(func(tx *core.Tx) error { return w.vm.DeleteVersion(tx, v1) })
	if !errors.Is(err, ErrReleased) {
		t.Fatalf("expected ErrReleased, got %v", err)
	}
	// Transient v2 deletable; generic sheds it.
	if err := w.db.Do(func(tx *core.Tx) error { return w.vm.DeleteVersion(tx, v2) }); err != nil {
		t.Fatal(err)
	}
	vs, _ := w.vm.Versions(g)
	if len(vs) != 1 || vs[0] != v1 {
		t.Fatalf("versions after delete = %v", vs)
	}
	if _, err := w.db.Fetch(v2); err == nil {
		t.Fatal("deleted version still stored")
	}
}

func TestDeleteClearsDefault(t *testing.T) {
	w := newWorld(t)
	g, v1 := w.create(t)
	var v2 model.OID
	w.db.Do(func(tx *core.Tx) error {
		v2, _ = w.vm.Derive(tx, v1)
		return w.vm.SetDefault(tx, g, v2)
	})
	w.db.Do(func(tx *core.Tx) error { return w.vm.DeleteVersion(tx, v2) })
	// Default cleared; resolve falls back to v1.
	got, err := w.vm.Resolve(g)
	if err != nil || got != v1 {
		t.Fatalf("Resolve = %v, %v", got, err)
	}
}

func TestChangeNotification(t *testing.T) {
	w := newWorld(t)
	g, v1 := w.create(t)
	user := model.MakeOID(999, 1) // any object identity can subscribe
	w.vm.RegisterDependent(g, user)
	var events []Notification
	w.vm.OnChange(func(n Notification) { events = append(events, n) })

	w.db.Do(func(tx *core.Tx) error {
		_, err := w.vm.Derive(tx, v1)
		return err
	})
	stale := w.vm.StaleDependents()
	if len(stale) != 1 || stale[0] != user {
		t.Fatalf("stale = %v", stale)
	}
	// Derive auto-promoted v1 first, so two events arrive: promote then
	// derive.
	if len(events) != 2 || events[0].Event != "promote" || events[1].Event != "derive" {
		t.Fatalf("events = %+v", events)
	}
	w.vm.ClearStale()
	if len(w.vm.StaleDependents()) != 0 {
		t.Fatal("ClearStale ineffective")
	}
}

// TestAbortedDeriveNotifiesNothing: a notification leaves only with the
// commit of the transaction that caused it. A Derive that is rolled back —
// by Abort, or by an error returned to Do — marks no dependent stale and
// reaches no callback, though it promoted its parent before the rollback.
func TestAbortedDeriveNotifiesNothing(t *testing.T) {
	w := newWorld(t)
	g, v1 := w.create(t)
	user := model.MakeOID(999, 1)
	w.vm.RegisterDependent(g, user)
	var events []Notification
	w.vm.OnChange(func(n Notification) { events = append(events, n) })

	tx := w.db.Begin()
	if _, err := w.vm.Derive(tx, v1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	errRollback := errors.New("roll back")
	if err := w.db.Do(func(tx *core.Tx) error {
		if _, err := w.vm.Derive(tx, v1); err != nil {
			return err
		}
		return errRollback
	}); !errors.Is(err, errRollback) {
		t.Fatalf("Do = %v", err)
	}
	if vs, _ := w.vm.Versions(g); len(vs) != 1 {
		t.Fatalf("versions after the rollbacks = %v, want v1 alone", vs)
	}
	if stale := w.vm.StaleDependents(); len(stale) != 0 {
		t.Fatalf("rolled-back derives marked %v stale", stale)
	}
	if len(events) != 0 {
		t.Fatalf("rolled-back derives notified %+v", events)
	}
}

func TestReattachDetectsEnabledClasses(t *testing.T) {
	dir := t.TempDir()
	db, _ := core.Open(dir, core.Options{})
	design, _ := db.DefineClass("Design", nil,
		schema.AttrSpec{Name: "name", Domain: schema.ClassString})
	vm, _ := New(db)
	vm.EnableVersioning(design.ID)
	var g, v1 model.OID
	db.Do(func(tx *core.Tx) error {
		g, v1, _ = vm.CreateVersioned(tx, design.ID, map[string]model.Value{"name": model.String("x")})
		return nil
	})
	db.Close()

	db2, err := core.Open(dir, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	vm2, err := New(db2)
	if err != nil {
		t.Fatal(err)
	}
	// Versioning survives reopen: no re-enable needed.
	err = db2.Do(func(tx *core.Tx) error {
		_, err := vm2.Derive(tx, v1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	vs, _ := vm2.Versions(g)
	if len(vs) != 2 {
		t.Fatalf("versions after reopen = %v", vs)
	}
}
