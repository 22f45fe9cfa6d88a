package oodb_test

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"oodb"
	"oodb/internal/authz"
	"oodb/internal/composite"
	"oodb/internal/server"
	"oodb/internal/server/client"
	"oodb/internal/version"
)

// The composite and version rules are the engine's: a plain Insert, Update
// or Delete is checked as the layers' own entry points are, through the
// embedded Tx and through kimsrv alike, and in a process that never builds
// a layer manager.

// rulesWorld is a database with an Assembly whose parts and subs are
// exclusive composite attributes, p an exclusive part of a1, and a
// released version of a versionable Design.
type rulesWorld struct {
	a1, a2, p, design oodb.OID
}

// buildRulesWorld builds a rulesWorld in db, or in a database of its own
// when db is nil.
func buildRulesWorld(t *testing.T, db *oodb.DB) (*oodb.DB, rulesWorld) {
	t.Helper()
	if db == nil {
		var err error
		if db, err = oodb.Open(t.TempDir(), oodb.Options{}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := db.DefineClass("Part", nil, oodb.Attr{Name: "name", Domain: "String"})
	must(err)
	_, err = db.DefineClass("Assembly", nil,
		oodb.Attr{Name: "parts", Domain: "Part", SetValued: true},
		oodb.Attr{Name: "subs", Domain: "Assembly", SetValued: true})
	must(err)
	_, err = db.DefineClass("Design", nil, oodb.Attr{Name: "area", Domain: "Integer"})
	must(err)
	cm, err := db.Composites()
	must(err)
	vm, err := db.Versions()
	must(err)
	asm, _ := db.ClassByName("Assembly")
	design, _ := db.ClassByName("Design")
	must(cm.DeclareComposite(asm.ID, "parts", true))
	must(cm.DeclareComposite(asm.ID, "subs", true))
	must(vm.EnableVersioning(design.ID))
	var w rulesWorld
	must(db.Do(func(tx *oodb.Tx) error {
		var err error
		if w.a1, err = tx.Insert("Assembly", nil); err != nil {
			return err
		}
		if w.a2, err = tx.Insert("Assembly", nil); err != nil {
			return err
		}
		if w.p, err = tx.Insert("Part", nil); err != nil {
			return err
		}
		if err := cm.Attach(tx, w.a1, "parts", w.p); err != nil {
			return err
		}
		_, w.design, err = vm.CreateVersioned(tx, design.ID, oodb.Attrs{"area": oodb.Int(1)})
		return err
	}))
	for range 2 { // transient → working → released
		must(db.Do(func(tx *oodb.Tx) error {
			_, err := vm.Promote(tx, w.design)
			return err
		}))
	}
	return db, w
}

// writeDoor is the write surface of the embedded Tx and of a client.
type writeDoor interface {
	Insert(class string, attrs oodb.Attrs) (oodb.OID, error)
	Update(oid oodb.OID, attrs oodb.Attrs) error
	Delete(oid oodb.OID) error
}

// txDoor writes through the embedded door: one Tx per write.
type txDoor struct{ db *oodb.DB }

func (d txDoor) Insert(class string, attrs oodb.Attrs) (oid oodb.OID, err error) {
	err = d.db.Do(func(tx *oodb.Tx) error {
		oid, err = tx.Insert(class, attrs)
		return err
	})
	return oid, err
}

func (d txDoor) Update(oid oodb.OID, attrs oodb.Attrs) error {
	return d.db.Do(func(tx *oodb.Tx) error { return tx.Update(oid, attrs) })
}

func (d txDoor) Delete(oid oodb.OID) error {
	return d.db.Do(func(tx *oodb.Tx) error { return tx.Delete(oid) })
}

// designerClient serves db on an in-process kimsrv whose authorizer lets
// role designer write the whole database, and dials it as designer.
func designerClient(t *testing.T, db *oodb.DB) *client.Client {
	t.Helper()
	az := db.Authorizer()
	az.AddRole("designer")
	az.Grant(authz.Grant{Role: "designer", Type: authz.Write, Object: authz.Database()})
	s := server.New(db, server.Options{Authorizer: az})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Drain(2 * time.Second) })
	c, err := client.Dial(s.Addr().String(), client.Options{Role: "designer"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// probe is one plain write the layers' rules refuse, the layer error the
// embedded door returns for it, and the check that the data is unchanged.
type probe struct {
	name  string
	write func(d writeDoor, w rulesWorld) error
	want  error
	same  func(t *testing.T, db *oodb.DB, w rulesWorld)
}

var ruleProbes = []probe{
	{"SecondOwnerByUpdate", func(d writeDoor, w rulesWorld) error {
		return d.Update(w.a2, oodb.Attrs{"parts": oodb.SetOf(oodb.Ref(w.p))})
	}, composite.ErrAlreadyOwned, func(t *testing.T, db *oodb.DB, w rulesWorld) {
		wantAttr(t, db, w.a2, "parts", "null")
		wantAttr(t, db, w.a1, "parts", oodb.SetOf(oodb.Ref(w.p)).String())
	}},
	{"SecondOwnerByInsert", func(d writeDoor, w rulesWorld) error {
		_, err := d.Insert("Assembly", oodb.Attrs{"parts": oodb.SetOf(oodb.Ref(w.p))})
		return err
	}, composite.ErrAlreadyOwned, func(t *testing.T, db *oodb.DB, w rulesWorld) {
		if res, err := db.Query("SELECT COUNT(*) FROM Assembly"); err != nil || res.Rows[0].Values[0].String() != "2" {
			t.Fatalf("assemblies after the refused insert: %v, %v; want 2", res, err)
		}
	}},
	{"Cycle", func(d writeDoor, w rulesWorld) error {
		if err := d.Update(w.a1, oodb.Attrs{"subs": oodb.SetOf(oodb.Ref(w.a2))}); err != nil {
			return err
		}
		return d.Update(w.a2, oodb.Attrs{"subs": oodb.SetOf(oodb.Ref(w.a1))})
	}, composite.ErrCycle, func(t *testing.T, db *oodb.DB, w rulesWorld) {
		wantAttr(t, db, w.a2, "subs", "null")
	}},
	{"UpdateReleased", func(d writeDoor, w rulesWorld) error {
		return d.Update(w.design, oodb.Attrs{"area": oodb.Int(2)})
	}, version.ErrFrozen, func(t *testing.T, db *oodb.DB, w rulesWorld) {
		wantAttr(t, db, w.design, "area", "1")
	}},
	{"StateGoesDown", func(d writeDoor, w rulesWorld) error {
		return d.Update(w.design, oodb.Attrs{"_vState": oodb.Int(0)})
	}, version.ErrFrozen, func(t *testing.T, db *oodb.DB, w rulesWorld) {
		wantAttr(t, db, w.design, "_vState", "2")
	}},
	{"DeleteReleased", func(d writeDoor, w rulesWorld) error {
		return d.Delete(w.design)
	}, version.ErrReleased, func(t *testing.T, db *oodb.DB, w rulesWorld) {
		wantAttr(t, db, w.design, "area", "1")
	}},
}

// wantAttr fails unless oid's committed attr renders as want.
func wantAttr(t *testing.T, db *oodb.DB, oid oodb.OID, attr, want string) {
	t.Helper()
	obj, err := db.Fetch(oid)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := db.Get(obj, attr); err != nil || v.String() != want {
		t.Fatalf("%s.%s = %v (%v), want %s", oid, attr, v, err, want)
	}
}

// TestPlainWritesKeepLayerRules makes each probe write through the
// embedded Tx and through kimsrv: the first is refused with the layer's
// error, the second with ErrCodeBadRequest, and nothing changes.
func TestPlainWritesKeepLayerRules(t *testing.T) {
	for _, p := range ruleProbes {
		t.Run("Tx/"+p.name, func(t *testing.T) {
			db, w := buildRulesWorld(t, nil)
			if err := p.write(txDoor{db}, w); !errors.Is(err, p.want) {
				t.Fatalf("plain write: %v, want %v", err, p.want)
			}
			p.same(t, db, w)
		})
		t.Run("Wire/"+p.name, func(t *testing.T) {
			db, w := buildRulesWorld(t, nil)
			if err := p.write(designerClient(t, db), w); !errors.Is(err, client.ErrBadRequest) {
				t.Fatalf("plain write through kimsrv: %v, want %v", err, client.ErrBadRequest)
			}
			p.same(t, db, w)
		})
	}
}

// TestRulesHoldWithoutLayerAccessor declares the rules, closes the
// database, reopens it and serves it without ever calling Composites or
// Versions: the probe writes through kimsrv are still refused.
func TestRulesHoldWithoutLayerAccessor(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := oodb.Open(dir, oodb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, w := buildRulesWorld(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = oodb.Open(dir, oodb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	c := designerClient(t, db)
	for _, p := range ruleProbes {
		if err := p.write(c, w); !errors.Is(err, client.ErrBadRequest) {
			t.Fatalf("%s through kimsrv after reopen: %v, want %v", p.name, err, client.ErrBadRequest)
		}
		p.same(t, db, w)
	}
}

// TestVersionsOfOneDesignShareExclusiveParts: deriving a version copies
// its parent's links, so the versions of one design share its exclusive
// components and count as one owner; a version of another design is a
// second owner.
func TestVersionsOfOneDesignShareExclusiveParts(t *testing.T) {
	db, err := oodb.Open(t.TempDir(), oodb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.DefineClass("Cell", nil, oodb.Attr{Name: "name", Domain: "String"}); err != nil {
		t.Fatal(err)
	}
	module, err := db.DefineClass("Module", nil, oodb.Attr{Name: "cells", Domain: "Cell", SetValued: true})
	if err != nil {
		t.Fatal(err)
	}
	cm, _ := db.Composites()
	vm, _ := db.Versions()
	if err := cm.DeclareComposite(module.ID, "cells", true); err != nil {
		t.Fatal(err)
	}
	if err := vm.EnableVersioning(module.ID); err != nil {
		t.Fatal(err)
	}
	var cell, v1, v2, other oodb.OID
	if err := db.Do(func(tx *oodb.Tx) error {
		if cell, err = tx.Insert("Cell", nil); err != nil {
			return err
		}
		if _, v1, err = vm.CreateVersioned(tx, module.ID, nil); err != nil {
			return err
		}
		if err := cm.Attach(tx, v1, "cells", cell); err != nil {
			return err
		}
		if v2, err = vm.Derive(tx, v1); err != nil {
			return err
		}
		_, other, err = vm.CreateVersioned(tx, module.ID, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if comps, err := cm.Components(v2); err != nil || len(comps) != 1 || comps[0] != cell {
		t.Fatalf("components of the derived version = %v, %v; want [%s]", comps, err, cell)
	}
	err = db.Do(func(tx *oodb.Tx) error { return cm.Attach(tx, other, "cells", cell) })
	if !errors.Is(err, composite.ErrAlreadyOwned) {
		t.Fatalf("attach to another design's version: %v, want ErrAlreadyOwned", err)
	}
}
