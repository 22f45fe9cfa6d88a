package composite

import (
	"errors"
	"testing"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/schema"
	"oodb/internal/txn"
)

// cadWorld models a small design hierarchy: Assembly has exclusive
// subassemblies (set-valued) and a shared standard part library reference.
type cadWorld struct {
	db       *core.DB
	cm       *Manager
	assembly *schema.Class
	part     *schema.Class
}

func newCADWorld(t *testing.T) *cadWorld {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	db.OnWrite(CheckWrite)
	part, _ := db.DefineClass("Part", nil,
		schema.AttrSpec{Name: "name", Domain: schema.ClassString})
	assembly, err := db.DefineClass("Assembly", nil,
		schema.AttrSpec{Name: "name", Domain: schema.ClassString})
	if err != nil {
		t.Fatal(err)
	}
	// Self-referential subassemblies plus parts.
	db.AddAttribute(assembly.ID, schema.AttrSpec{Name: "subs", Domain: assembly.ID, SetValued: true})
	db.AddAttribute(assembly.ID, schema.AttrSpec{Name: "parts", Domain: part.ID, SetValued: true})
	db.AddAttribute(assembly.ID, schema.AttrSpec{Name: "library", Domain: part.ID})

	cm := New(db)
	if err := cm.DeclareComposite(assembly.ID, "subs", true); err != nil {
		t.Fatal(err)
	}
	if err := cm.DeclareComposite(assembly.ID, "parts", true); err != nil {
		t.Fatal(err)
	}
	// library is a plain (non-composite) reference on purpose.
	return &cadWorld{db: db, cm: cm, assembly: assembly, part: part}
}

func (w *cadWorld) newAssembly(t *testing.T, name string) model.OID {
	t.Helper()
	var oid model.OID
	err := w.db.Do(func(tx *core.Tx) error {
		var err error
		oid, err = tx.InsertClass(w.assembly.ID, map[string]model.Value{"name": model.String(name)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return oid
}

func (w *cadWorld) newPart(t *testing.T, name string) model.OID {
	t.Helper()
	var oid model.OID
	err := w.db.Do(func(tx *core.Tx) error {
		var err error
		oid, err = tx.InsertClass(w.part.ID, map[string]model.Value{"name": model.String(name)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return oid
}

func TestAttachAndComponents(t *testing.T) {
	w := newCADWorld(t)
	root := w.newAssembly(t, "engine")
	sub := w.newAssembly(t, "piston-bank")
	p1 := w.newPart(t, "piston")
	p2 := w.newPart(t, "ring")

	err := w.db.Do(func(tx *core.Tx) error {
		if err := w.cm.Attach(tx, root, "subs", sub); err != nil {
			return err
		}
		if err := w.cm.Attach(tx, sub, "parts", p1); err != nil {
			return err
		}
		return w.cm.Attach(tx, sub, "parts", p2)
	})
	if err != nil {
		t.Fatal(err)
	}
	comps, err := w.cm.Components(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 3 {
		t.Fatalf("components = %v", comps)
	}
}

func TestExclusivityEnforced(t *testing.T) {
	w := newCADWorld(t)
	a := w.newAssembly(t, "a")
	b := w.newAssembly(t, "b")
	shared := w.newPart(t, "bolt")
	err := w.db.Do(func(tx *core.Tx) error {
		return w.cm.Attach(tx, a, "parts", shared)
	})
	if err != nil {
		t.Fatal(err)
	}
	err = w.db.Do(func(tx *core.Tx) error {
		return w.cm.Attach(tx, b, "parts", shared)
	})
	if !errors.Is(err, ErrAlreadyOwned) {
		t.Fatalf("expected ErrAlreadyOwned, got %v", err)
	}
	// Re-attaching to the same parent is fine (idempotent semantics).
	err = w.db.Do(func(tx *core.Tx) error {
		return w.cm.Attach(tx, a, "parts", shared)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCycleRejected(t *testing.T) {
	w := newCADWorld(t)
	a := w.newAssembly(t, "a")
	b := w.newAssembly(t, "b")
	w.db.Do(func(tx *core.Tx) error { return w.cm.Attach(tx, a, "subs", b) })
	err := w.db.Do(func(tx *core.Tx) error { return w.cm.Attach(tx, b, "subs", a) })
	if !errors.Is(err, ErrCycle) {
		t.Fatalf("expected ErrCycle, got %v", err)
	}
	err = w.db.Do(func(tx *core.Tx) error { return w.cm.Attach(tx, a, "subs", a) })
	if !errors.Is(err, ErrCycle) {
		t.Fatalf("self-attach: expected ErrCycle, got %v", err)
	}
}

func TestDeletePropagation(t *testing.T) {
	w := newCADWorld(t)
	root := w.newAssembly(t, "engine")
	sub := w.newAssembly(t, "bank")
	p := w.newPart(t, "piston")
	libPart := w.newPart(t, "standard-bolt")

	err := w.db.Do(func(tx *core.Tx) error {
		if err := w.cm.Attach(tx, root, "subs", sub); err != nil {
			return err
		}
		if err := w.cm.Attach(tx, sub, "parts", p); err != nil {
			return err
		}
		// Non-composite reference to a library part.
		return tx.Update(root, map[string]model.Value{"library": model.Ref(libPart)})
	})
	if err != nil {
		t.Fatal(err)
	}
	err = w.db.Do(func(tx *core.Tx) error {
		return w.cm.DeleteComposite(tx, root)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, oid := range []model.OID{root, sub, p} {
		if _, err := w.db.Fetch(oid); err == nil {
			t.Errorf("component %v survived composite delete", oid)
		}
	}
	// The library part, referenced through a plain attribute, survives.
	if _, err := w.db.Fetch(libPart); err != nil {
		t.Error("non-composite reference propagated delete")
	}
}

func TestNonExclusiveComponentsSurviveDelete(t *testing.T) {
	w := newCADWorld(t)
	// Declare a non-exclusive composite link on a fresh class.
	doc, _ := w.db.DefineClass("Document", nil,
		schema.AttrSpec{Name: "name", Domain: schema.ClassString})
	w.db.AddAttribute(doc.ID, schema.AttrSpec{Name: "figures", Domain: doc.ID, SetValued: true})
	if err := w.cm.DeclareComposite(doc.ID, "figures", false); err != nil {
		t.Fatal(err)
	}
	var d1, d2, fig model.OID
	w.db.Do(func(tx *core.Tx) error {
		d1, _ = tx.InsertClass(doc.ID, map[string]model.Value{"name": model.String("d1")})
		d2, _ = tx.InsertClass(doc.ID, map[string]model.Value{"name": model.String("d2")})
		fig, _ = tx.InsertClass(doc.ID, map[string]model.Value{"name": model.String("fig")})
		return nil
	})
	// Shared component: both documents reference the figure.
	err := w.db.Do(func(tx *core.Tx) error {
		if err := w.cm.Attach(tx, d1, "figures", fig); err != nil {
			return err
		}
		return w.cm.Attach(tx, d2, "figures", fig)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Deleting d1 must not delete the shared figure.
	w.db.Do(func(tx *core.Tx) error { return w.cm.DeleteComposite(tx, d1) })
	if _, err := w.db.Fetch(fig); err != nil {
		t.Error("shared (non-exclusive) component deleted")
	}
}

func TestLockComposite(t *testing.T) {
	w := newCADWorld(t)
	root := w.newAssembly(t, "engine")
	sub := w.newAssembly(t, "bank")
	w.db.Do(func(tx *core.Tx) error { return w.cm.Attach(tx, root, "subs", sub) })

	tx := w.db.Begin()
	if err := w.cm.LockComposite(tx, root, true); err != nil {
		t.Fatal(err)
	}
	// Both root and component are X-locked.
	for _, oid := range []model.OID{root, sub} {
		if m, ok := w.db.Locks.Holding(tx.ID(), txn.InstanceRes(oid)); !ok || m != txn.X {
			t.Errorf("object %v mode = %v %v", oid, m, ok)
		}
	}
	tx.Commit()
}

func TestDeclarationsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	db, _ := core.Open(dir, core.Options{})
	db.OnWrite(CheckWrite)
	asm, _ := db.DefineClass("Assembly", nil,
		schema.AttrSpec{Name: "name", Domain: schema.ClassString})
	db.AddAttribute(asm.ID, schema.AttrSpec{Name: "subs", Domain: asm.ID, SetValued: true})
	cm := New(db)
	if err := cm.DeclareComposite(asm.ID, "subs", true); err != nil {
		t.Fatal(err)
	}
	var root, sub model.OID
	db.Do(func(tx *core.Tx) error {
		root, _ = tx.InsertClass(asm.ID, map[string]model.Value{"name": model.String("r")})
		sub, _ = tx.InsertClass(asm.ID, map[string]model.Value{"name": model.String("s")})
		return cm.Attach(tx, root, "subs", sub)
	})
	db.Close()

	db2, err := core.Open(dir, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	cm2 := New(db2)
	comps, err := cm2.Components(root)
	if err != nil || len(comps) != 1 || comps[0] != sub {
		t.Fatalf("components after reopen = %v, %v", comps, err)
	}
	// Delete propagation still applies.
	db2.Do(func(tx *core.Tx) error { return cm2.DeleteComposite(tx, root) })
	if _, err := db2.Fetch(sub); err == nil {
		t.Error("propagation lost after reopen")
	}
}

func TestDeclareCompositeValidation(t *testing.T) {
	w := newCADWorld(t)
	// Primitive-domain attribute cannot be composite.
	if err := w.cm.DeclareComposite(w.assembly.ID, "name", true); err == nil {
		t.Error("primitive attribute declared composite")
	}
	// Duplicate declaration rejected.
	if err := w.cm.DeclareComposite(w.assembly.ID, "subs", true); err == nil {
		t.Error("duplicate declaration accepted")
	}
	// Attach through a non-composite attribute rejected.
	a := w.newAssembly(t, "a")
	p := w.newPart(t, "p")
	err := w.db.Do(func(tx *core.Tx) error { return w.cm.Attach(tx, a, "library", p) })
	if !errors.Is(err, ErrNotComposite) {
		t.Errorf("expected ErrNotComposite, got %v", err)
	}
}

// A declaration names the attribute's defining class: the flag applies
// wherever the attribute does, so a subclass cannot declare it.
func TestDeclareOnSubclassRefused(t *testing.T) {
	w := newCADWorld(t)
	sub, err := w.db.DefineClass("Subassembly", []model.ClassID{w.assembly.ID})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.cm.DeclareComposite(sub.ID, "library", true); !errors.Is(err, schema.ErrInheritedAttr) {
		t.Fatalf("declaration on the subclass: %v, want ErrInheritedAttr", err)
	}
	if a, err := w.db.Catalog.ResolveAttr(w.assembly.ID, "library"); err != nil || a.Composite {
		t.Fatalf("Assembly.library after the refused declaration: %+v, %v", a, err)
	}
}

func TestReclusterRewritesComponents(t *testing.T) {
	w := newCADWorld(t)
	root := w.newAssembly(t, "engine")
	var parts []model.OID
	// Interleave part creation with unrelated inserts to scatter them.
	for i := 0; i < 10; i++ {
		p := w.newPart(t, "p")
		parts = append(parts, p)
		w.newPart(t, "noise")
	}
	w.db.Do(func(tx *core.Tx) error {
		for _, p := range parts {
			if err := w.cm.Attach(tx, root, "parts", p); err != nil {
				return err
			}
		}
		return nil
	})
	var n int
	err := w.db.Do(func(tx *core.Tx) error {
		var err error
		n, err = w.cm.Recluster(tx, root)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n < 11 { // root + 10 parts
		t.Fatalf("reclustered %d objects", n)
	}
	// Objects still intact.
	comps, _ := w.cm.Components(root)
	if len(comps) != 10 {
		t.Fatalf("components after recluster = %d", len(comps))
	}
}
