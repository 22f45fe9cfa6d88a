package oodb_test

import (
	"fmt"
	"sync"
	"testing"

	"oodb"
	"oodb/internal/checkout"
	"oodb/internal/composite"
	"oodb/internal/version"
)

// The feature layers keep state in memory — enabled classes, dependents,
// composite declarations, private workspaces — so a database has one
// manager per layer, and what is done through one accessor result holds
// through every other.

// layerWorld is an open database with a Design class (rev, part) and a
// Part class.
func layerWorld(t *testing.T) *oodb.DB {
	t.Helper()
	db, err := oodb.Open(t.TempDir(), oodb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.DefineClass("Part", nil, oodb.Attr{Name: "name", Domain: "String"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineClass("Design", nil,
		oodb.Attr{Name: "rev", Domain: "Integer"},
		oodb.Attr{Name: "part", Domain: "Part"}); err != nil {
		t.Fatal(err)
	}
	return db
}

func insert(t *testing.T, db *oodb.DB, class string, attrs oodb.Attrs) oodb.OID {
	t.Helper()
	var oid oodb.OID
	if err := db.Do(func(tx *oodb.Tx) error {
		var err error
		oid, err = tx.Insert(class, attrs)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return oid
}

func rev(t *testing.T, db *oodb.DB, oid oodb.OID) int64 {
	t.Helper()
	obj, err := db.Fetch(oid)
	if err != nil {
		t.Fatal(err)
	}
	v, err := db.Get(obj, "rev")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := v.AsInt()
	return n
}

func TestFeatureManagersAreOnePerDB(t *testing.T) {
	t.Run("SamePointer", func(t *testing.T) {
		db := layerWorld(t)
		for name, get := range map[string]func() (any, error){
			"Versions":   func() (any, error) { return db.Versions() },
			"Composites": func() (any, error) { return db.Composites() },
			"Checkouts":  func() (any, error) { return db.Checkouts() },
			"Views":      func() (any, error) { return db.Views() },
		} {
			first, err := get()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if again, err := get(); err != nil || again != first {
					t.Errorf("%s returned %p, %v after %p", name, again, err, first)
				}
			}
		}
	})

	// A manager taken before the declaration sees it: Attach works, and a
	// second declaration of the same attribute is refused.
	t.Run("CompositeDeclaration", func(t *testing.T) {
		db := layerWorld(t)
		before, err := db.Composites()
		if err != nil {
			t.Fatal(err)
		}
		after, err := db.Composites()
		if err != nil {
			t.Fatal(err)
		}
		design, _ := db.ClassByName("Design")
		if err := after.DeclareComposite(design.ID, "part", true); err != nil {
			t.Fatal(err)
		}
		d := insert(t, db, "Design", nil)
		p := insert(t, db, "Part", nil)
		if err := db.Do(func(tx *oodb.Tx) error { return before.Attach(tx, d, "part", p) }); err != nil {
			t.Fatalf("attach through the other accessor result: %v", err)
		}
		if err := before.DeclareComposite(design.ID, "part", false); err == nil {
			t.Fatal("a second, conflicting declaration of Design.part was accepted")
		}
	})

	t.Run("EnableVersioning", func(t *testing.T) {
		db := layerWorld(t)
		before, err := db.Versions()
		if err != nil {
			t.Fatal(err)
		}
		after, err := db.Versions()
		if err != nil {
			t.Fatal(err)
		}
		design, _ := db.ClassByName("Design")
		if err := after.EnableVersioning(design.ID); err != nil {
			t.Fatal(err)
		}
		if err := db.Do(func(tx *oodb.Tx) error {
			_, _, err := before.CreateVersioned(tx, design.ID, oodb.Attrs{"rev": oodb.Int(1)})
			return err
		}); err != nil {
			t.Fatalf("CreateVersioned through the other accessor result: %v", err)
		}
	})

	// A dependent registered through one result is notified of a derive
	// made through another: its callback runs and it is flagged stale.
	t.Run("Notification", func(t *testing.T) {
		db := layerWorld(t)
		first, err := db.Versions()
		if err != nil {
			t.Fatal(err)
		}
		design, _ := db.ClassByName("Design")
		if err := first.EnableVersioning(design.ID); err != nil {
			t.Fatal(err)
		}
		var g, v1 oodb.OID
		if err := db.Do(func(tx *oodb.Tx) error {
			var err error
			g, v1, err = first.CreateVersioned(tx, design.ID, nil)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		dep := insert(t, db, "Part", nil)
		first.RegisterDependent(g, dep)
		var events []version.Notification
		first.OnChange(func(n version.Notification) { events = append(events, n) })
		second, err := db.Versions()
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Do(func(tx *oodb.Tx) error {
			_, err := second.Derive(tx, v1)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if stale := first.StaleDependents(); len(stale) != 1 || stale[0] != dep {
			t.Errorf("stale dependents = %v, want [%s]", stale, dep)
		}
		if len(events) == 0 {
			t.Error("the derive delivered no notification")
		}
	})

	// alice checks out through one result and checks in through another:
	// her edit reaches the shared database.
	t.Run("Checkin", func(t *testing.T) {
		db := layerWorld(t)
		a := insert(t, db, "Design", oodb.Attrs{"rev": oodb.Int(1)})
		out, err := db.Checkouts()
		if err != nil {
			t.Fatal(err)
		}
		d, err := out.Checkout("alice", a)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Set("rev", oodb.Int(2)); err != nil {
			t.Fatal(err)
		}
		in, err := db.Checkouts()
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Checkin("alice", a); err != nil {
			t.Fatal(err)
		}
		if got := rev(t, db, a); got != 2 {
			t.Fatalf("rev after checkin = %d, want 2: the edit was lost", got)
		}
	})

	// Two goroutines share the one composite manager and the one checkout
	// manager, one user each: each declares a composite attribute, attaches
	// and walks its own parts, and checks its own designs out and in.
	t.Run("SharedConcurrently", func(t *testing.T) {
		db := layerWorld(t)
		cm, err := db.Composites()
		if err != nil {
			t.Fatal(err)
		}
		co, err := db.Checkouts()
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i, user := range []string{"alice", "bob"} {
			class := "Design" + user
			if _, err := db.DefineClass(class, nil,
				oodb.Attr{Name: "rev", Domain: "Integer"},
				oodb.Attr{Name: "parts", Domain: "Part", SetValued: true}); err != nil {
				t.Fatal(err)
			}
			cl, _ := db.ClassByName(class)
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = shareLayers(db, cm, co, user, class, cl.ID)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
			}
		}
	})
}

// shareLayers is one user's share of SharedConcurrently.
func shareLayers(db *oodb.DB, cm *composite.Manager, co *checkout.Manager, user, class string, cl oodb.ClassID) error {
	if err := cm.DeclareComposite(cl, "parts", true); err != nil {
		return err
	}
	for i := 0; i < 20; i++ {
		var d, p oodb.OID
		if err := db.Do(func(tx *oodb.Tx) error {
			var err error
			if d, err = tx.Insert(class, oodb.Attrs{"rev": oodb.Int(1)}); err != nil {
				return err
			}
			p, err = tx.Insert("Part", nil)
			return err
		}); err != nil {
			return err
		}
		if err := db.Do(func(tx *oodb.Tx) error { return cm.Attach(tx, d, "parts", p) }); err != nil {
			return err
		}
		if comps, err := cm.Components(d); err != nil || len(comps) != 1 || comps[0] != p {
			return fmt.Errorf("components of %s = %v, %v; want [%s]", d, comps, err, p)
		}
		desc, err := co.Checkout(user, d)
		if err != nil {
			return err
		}
		if err := desc.Set("rev", oodb.Int(int64(i+2))); err != nil {
			return err
		}
		if err := co.Checkin(user, d); err != nil {
			return err
		}
		obj, err := db.Fetch(d)
		if err != nil {
			return err
		}
		if v, _ := db.Get(obj, "rev"); v.String() != fmt.Sprint(i+2) {
			return fmt.Errorf("%s: rev = %v after checkin, want %d", d, v, i+2)
		}
	}
	return nil
}
