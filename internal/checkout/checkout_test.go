package checkout

import (
	"errors"
	"testing"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/schema"
)

type world struct {
	db     *core.DB
	cm     *Manager
	design *schema.Class
	oid    model.OID
}

func newWorld(t *testing.T) *world {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	design, _ := db.DefineClass("Design", nil,
		schema.AttrSpec{Name: "name", Domain: schema.ClassString},
		schema.AttrSpec{Name: "rev", Domain: schema.ClassInteger})
	cm, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	w := &world{db: db, cm: cm, design: design}
	db.Do(func(tx *core.Tx) error {
		var err error
		w.oid, err = tx.InsertClass(design.ID, map[string]model.Value{
			"name": model.String("chip"), "rev": model.Int(1)})
		return err
	})
	return w
}

func TestCheckoutEditCheckin(t *testing.T) {
	w := newWorld(t)
	d, err := w.cm.Checkout("alice", w.oid)
	if err != nil {
		t.Fatal(err)
	}
	if holder, _ := w.cm.Holder(w.oid); holder != "alice" {
		t.Fatalf("holder = %q", holder)
	}
	// Long edit session in the private workspace.
	if err := d.Set("rev", model.Int(2)); err != nil {
		t.Fatal(err)
	}
	// Shared database still sees rev 1.
	obj, _ := w.db.Fetch(w.oid)
	rv, _ := w.db.AttrValue(obj, "rev")
	if n, _ := rv.AsInt(); n != 1 {
		t.Fatal("private edit leaked before checkin")
	}
	if err := w.cm.Checkin("alice", w.oid); err != nil {
		t.Fatal(err)
	}
	obj, _ = w.db.Fetch(w.oid)
	rv, _ = w.db.AttrValue(obj, "rev")
	if n, _ := rv.AsInt(); n != 2 {
		t.Fatal("checkin did not write back")
	}
	if holder, _ := w.cm.Holder(w.oid); holder != "" {
		t.Fatal("checkout record survived checkin")
	}
}

func TestConflictingCheckoutRejected(t *testing.T) {
	w := newWorld(t)
	if _, err := w.cm.Checkout("alice", w.oid); err != nil {
		t.Fatal(err)
	}
	if _, err := w.cm.Checkout("bob", w.oid); !errors.Is(err, ErrCheckedOut) {
		t.Fatalf("expected ErrCheckedOut, got %v", err)
	}
	// Re-checkout by the holder is fine.
	if _, err := w.cm.Checkout("alice", w.oid); err != nil {
		t.Fatal(err)
	}
}

func TestCheckinRequiresHolder(t *testing.T) {
	w := newWorld(t)
	w.cm.Checkout("alice", w.oid)
	if err := w.cm.Checkin("bob", w.oid); !errors.Is(err, ErrNotCheckedOut) {
		t.Fatalf("expected ErrNotCheckedOut, got %v", err)
	}
}

func TestCancelDiscardsChanges(t *testing.T) {
	w := newWorld(t)
	d, _ := w.cm.Checkout("alice", w.oid)
	d.Set("rev", model.Int(99))
	if err := w.cm.Cancel("alice", w.oid); err != nil {
		t.Fatal(err)
	}
	obj, _ := w.db.Fetch(w.oid)
	rv, _ := w.db.AttrValue(obj, "rev")
	if n, _ := rv.AsInt(); n != 1 {
		t.Fatal("canceled change reached shared database")
	}
	if holder, _ := w.cm.Holder(w.oid); holder != "" {
		t.Fatal("record survived cancel")
	}
	// Bob can now check out.
	if _, err := w.cm.Checkout("bob", w.oid); err != nil {
		t.Fatal(err)
	}
}

func TestGuardUpdateCooperativeProtocol(t *testing.T) {
	w := newWorld(t)
	w.cm.Checkout("alice", w.oid)
	err := w.db.Do(func(tx *core.Tx) error {
		return w.cm.GuardUpdate(tx, "bob", w.oid, map[string]model.Value{"rev": model.Int(5)})
	})
	if !errors.Is(err, ErrCheckedOut) {
		t.Fatalf("expected ErrCheckedOut, got %v", err)
	}
	// The holder may write directly.
	err = w.db.Do(func(tx *core.Tx) error {
		return w.cm.GuardUpdate(tx, "alice", w.oid, map[string]model.Value{"rev": model.Int(5)})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCheckoutSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	db, _ := core.Open(dir, core.Options{})
	design, _ := db.DefineClass("Design", nil,
		schema.AttrSpec{Name: "rev", Domain: schema.ClassInteger})
	cm, _ := New(db)
	var oid model.OID
	db.Do(func(tx *core.Tx) error {
		var err error
		oid, err = tx.InsertClass(design.ID, map[string]model.Value{"rev": model.Int(1)})
		return err
	})
	if _, err := cm.Checkout("alice", oid); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// The long transaction spans the restart.
	db2, _ := core.Open(dir, core.Options{})
	defer db2.Close()
	cm2, err := New(db2)
	if err != nil {
		t.Fatal(err)
	}
	if holder, _ := cm2.Holder(oid); holder != "alice" {
		t.Fatalf("holder after reopen = %q", holder)
	}
	if _, err := cm2.Checkout("bob", oid); !errors.Is(err, ErrCheckedOut) {
		t.Fatalf("expected ErrCheckedOut after reopen, got %v", err)
	}
	// Alice resumes and checks in (workspace state was lost with the
	// process; she re-fetches, edits, checks in).
	d, err := cm2.Checkout("alice", oid)
	if err != nil {
		t.Fatal(err)
	}
	d.Set("rev", model.Int(7))
	if err := cm2.Checkin("alice", oid); err != nil {
		t.Fatal(err)
	}
	obj, _ := db2.Fetch(oid)
	rv, _ := db2.AttrValue(obj, "rev")
	if n, _ := rv.AsInt(); n != 7 {
		t.Fatal("resumed checkin lost")
	}
}

func TestCheckoutComposite(t *testing.T) {
	w := newWorld(t)
	var c1, c2 model.OID
	w.db.Do(func(tx *core.Tx) error {
		c1, _ = tx.InsertClass(w.design.ID, map[string]model.Value{"rev": model.Int(1)})
		c2, _ = tx.InsertClass(w.design.ID, map[string]model.Value{"rev": model.Int(1)})
		return nil
	})
	descs, err := w.cm.CheckoutComposite("alice", w.oid, []model.OID{c1, c2})
	if err != nil || len(descs) != 3 {
		t.Fatalf("composite checkout = %d, %v", len(descs), err)
	}
	// All three held.
	held, _ := w.cm.CheckedOutBy("alice")
	if len(held) != 3 {
		t.Fatalf("CheckedOutBy = %v", held)
	}
	// A conflicting component checkout rolls the whole group back.
	w.cm.Checkin("alice", w.oid)
	w.cm.Checkin("alice", c1)
	w.cm.Checkin("alice", c2)
	w.cm.Checkout("bob", c2)
	if _, err := w.cm.CheckoutComposite("alice", w.oid, []model.OID{c1, c2}); !errors.Is(err, ErrCheckedOut) {
		t.Fatalf("expected ErrCheckedOut, got %v", err)
	}
	held, _ = w.cm.CheckedOutBy("alice")
	if len(held) != 0 {
		t.Fatalf("partial composite checkout not rolled back: %v", held)
	}
}

// revOf reads oid's shared rev.
func (w *world) revOf(t *testing.T, oid model.OID) int64 {
	t.Helper()
	obj, err := w.db.Fetch(oid)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := w.db.AttrValue(obj, "rev")
	n, _ := v.AsInt()
	return n
}

// editTwo checks out w.oid and a second design b as alice and edits both
// privately: a's rev to 2, b's to 9.
func editTwo(t *testing.T, w *world) (a, b model.OID) {
	t.Helper()
	a = w.oid
	if err := w.db.Do(func(tx *core.Tx) error {
		var err error
		b, err = tx.InsertClass(w.design.ID, map[string]model.Value{"rev": model.Int(1)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for oid, rev := range map[model.OID]int64{a: 2, b: 9} {
		d, err := w.cm.Checkout("alice", oid)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Set("rev", model.Int(rev)); err != nil {
			t.Fatal(err)
		}
	}
	return a, b
}

// Checkin writes back only the object checked in.
func TestCheckinWritesOnlyThatObject(t *testing.T) {
	w := newWorld(t)
	a, b := editTwo(t, w)
	if err := w.cm.Checkin("alice", a); err != nil {
		t.Fatal(err)
	}
	if got := w.revOf(t, a); got != 2 {
		t.Fatalf("a's rev = %d after its checkin, want 2", got)
	}
	if got := w.revOf(t, b); got != 1 {
		t.Fatalf("b's rev = %d while b is still checked out, want 1: its private edit was written", got)
	}
	if err := w.cm.Checkin("alice", b); err != nil {
		t.Fatal(err)
	}
	if got := w.revOf(t, b); got != 9 {
		t.Fatalf("b's rev = %d after its checkin, want 9", got)
	}
}

// Cancel drops only the object cancelled: another object's private edit
// survives it and is written by that object's checkin.
func TestCancelDropsOnlyThatObject(t *testing.T) {
	w := newWorld(t)
	a, b := editTwo(t, w)
	if err := w.cm.Cancel("alice", b); err != nil {
		t.Fatal(err)
	}
	if got := w.revOf(t, b); got != 1 {
		t.Fatalf("b's rev = %d after cancel, want 1", got)
	}
	if err := w.cm.Checkin("alice", a); err != nil {
		t.Fatal(err)
	}
	if got := w.revOf(t, a); got != 2 {
		t.Fatalf("a's rev = %d after cancelling b and checking a in, want 2: the edit was dropped", got)
	}
}
