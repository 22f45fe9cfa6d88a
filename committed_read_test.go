package oodb

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"oodb/internal/core"
	"oodb/internal/model"
)

// openItemOwner opens a database with an Item whose owner is an Owner of
// w = 1, and a second Owner of w = 2.
func openItemOwner(t *testing.T) (db *DB, owner, other OID) {
	t.Helper()
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.DefineClass("Owner", nil, Attr{Name: "w", Domain: "Integer"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineClass("Item", nil, Attr{Name: "owner", Domain: "Owner"}); err != nil {
		t.Fatal(err)
	}
	err = db.Do(func(tx *Tx) (err error) {
		if owner, err = tx.Insert("Owner", Attrs{"w": Int(1)}); err != nil {
			return err
		}
		if other, err = tx.Insert("Owner", Attrs{"w": Int(2)}); err != nil {
			return err
		}
		_, err = tx.Insert("Item", Attrs{"owner": Ref(owner)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, owner, other
}

// wantW fails unless read finds oid with w = want, or with want < 0 does
// not find it.
func wantW(t *testing.T, db *DB, read func(OID) (*Object, error), oid OID, want int64, when string) {
	t.Helper()
	obj, err := read(oid)
	if want < 0 {
		if !errors.Is(err, core.ErrNoObject) {
			t.Fatalf("%s: %s read as %v (%v), want ErrNoObject", when, oid, obj, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %s: %v", when, oid, err)
	}
	if v, _ := db.Get(obj, "w"); !model.Equal(v, Int(want)) {
		t.Fatalf("%s: %s has w = %v, want %d", when, oid, v, want)
	}
}

// DB.Fetch reads the newest committed state beside a transaction that has
// updated one object, inserted one and deleted one, and again after that
// transaction aborts; the writer's own Tx.Read sees its writes.
func TestFetchBesideUncommittedUpdate(t *testing.T) {
	db, owner, other := openItemOwner(t)
	w := db.Begin()
	if err := w.Update(owner, Attrs{"w": Int(9)}); err != nil {
		t.Fatal(err)
	}
	fresh, err := w.Insert("Owner", Attrs{"w": Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Delete(other); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		oid  OID
		want int64
	}{{owner, 1}, {fresh, -1}, {other, 2}} {
		wantW(t, db, db.Fetch, c.oid, c.want, "DB.Fetch beside the open writer")
	}
	for _, c := range []struct {
		oid  OID
		want int64
	}{{owner, 9}, {fresh, 3}, {other, -1}} {
		wantW(t, db, w.Read, c.oid, c.want, "the writer's own Tx.Read")
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		oid  OID
		want int64
	}{{owner, 1}, {fresh, -1}, {other, 2}} {
		wantW(t, db, db.Fetch, c.oid, c.want, "DB.Fetch after the abort")
	}
}

// A locked query S-locks only its scope, so a path that leaves the scope
// reads objects no lock of the query covers: the Owner behind Item.owner
// is read committed, not as another transaction's open update. The
// writer's own query sees its update.
func TestLockedQueryPathBesideUncommittedUpdate(t *testing.T) {
	db, owner, _ := openItemOwner(t)
	const q = `SELECT owner.w FROM Item WHERE owner.w > 5`
	w := db.Begin()
	if err := w.Update(owner, Attrs{"w": Int(9)}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("locked query beside an open update returned %v, want no rows", res.Rows)
	}
	own, err := db.QueryTx(w, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(own.Rows) != 1 || !model.Equal(own.Rows[0].Values[0], Int(9)) {
		t.Fatalf("the writer's own query returned %v, want one row of 9", own.Rows)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	if res, err = db.Query(q); err != nil || len(res.Rows) != 0 {
		t.Fatalf("locked query after the abort returned %v (%v), want no rows", res.Rows, err)
	}
}

// The rule engine's facts over a class are its committed instances: beside
// a transaction that has updated one Owner, inserted one and deleted one,
// and again after that transaction aborts.
func TestRuleFactsBesideUncommittedWrites(t *testing.T) {
	db, owner, other := openItemOwner(t)
	eng, edb := db.RuleEngine()
	if err := edb.MapClass("owner", "Owner"); err != nil {
		t.Fatal(err)
	}
	if err := edb.MapAttr("weight", "Owner", "w"); err != nil {
		t.Fatal(err)
	}
	w := db.Begin()
	defer w.Abort()
	if err := w.Update(owner, Attrs{"w": Int(9)}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Insert("Owner", Attrs{"w": Int(3)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Delete(other); err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"owner":  {fmt.Sprint([]Value{Ref(owner)}), fmt.Sprint([]Value{Ref(other)})},
		"weight": {fmt.Sprint([]Value{Ref(owner), Int(1)}), fmt.Sprint([]Value{Ref(other), Int(2)})},
	}
	for _, facts := range want {
		slices.Sort(facts)
	}
	check := func(when string) {
		t.Helper()
		for pred, want := range want {
			facts, err := eng.Infer(pred)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, f := range facts {
				got = append(got, fmt.Sprint(f))
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: %s facts %v, want %v", when, pred, got, want)
			}
		}
	}
	check("beside the open writer")
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	check("after the abort")
}
