package workspace

import (
	"testing"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/schema"
)

// partsDB builds a small parts graph: each part has a "next" reference,
// forming a chain, plus a set-valued "connections".
type partsDB struct {
	db   *core.DB
	part *schema.Class
	oids []model.OID
}

func newPartsDB(t *testing.T, n int) *partsDB {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	part, err := db.DefineClass("Part", nil,
		schema.AttrSpec{Name: "x", Domain: schema.ClassInteger})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddAttribute(part.ID, schema.AttrSpec{Name: "next", Domain: part.ID}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddAttribute(part.ID, schema.AttrSpec{Name: "connections", Domain: part.ID, SetValued: true}); err != nil {
		t.Fatal(err)
	}
	p := &partsDB{db: db, part: part}
	err = db.Do(func(tx *core.Tx) error {
		for i := 0; i < n; i++ {
			oid, err := tx.InsertClass(part.ID, map[string]model.Value{"x": model.Int(int64(i))})
			if err != nil {
				return err
			}
			p.oids = append(p.oids, oid)
		}
		// Chain them and add some cross connections.
		for i := 0; i < n; i++ {
			attrs := map[string]model.Value{
				"next": model.Ref(p.oids[(i+1)%n]),
			}
			attrs["connections"] = model.Set(
				model.Ref(p.oids[(i+2)%n]),
				model.Ref(p.oids[(i+3)%n]),
			)
			if err := tx.Update(p.oids[i], attrs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFetchCachesDescriptors(t *testing.T) {
	p := newPartsDB(t, 5)
	ws := New(p.db)
	d1, err := ws.Fetch(p.oids[0])
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ws.Fetch(p.oids[0])
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatal("second fetch returned a different descriptor")
	}
	if ws.Fetches != 1 || ws.Hits != 1 {
		t.Errorf("Fetches=%d Hits=%d", ws.Fetches, ws.Hits)
	}
}

func TestDerefSwizzlesOnce(t *testing.T) {
	p := newPartsDB(t, 5)
	ws := New(p.db)
	d, _ := ws.Fetch(p.oids[0])
	n1, err := d.Deref("next")
	if err != nil {
		t.Fatal(err)
	}
	if n1.OID() != p.oids[1] {
		t.Fatalf("next = %v", n1.OID())
	}
	fetchesAfterFirst := ws.Fetches
	// Second deref must be a pure pointer hop: no new fetches.
	n2, _ := d.Deref("next")
	if n2 != n1 {
		t.Fatal("swizzled pointer changed")
	}
	if ws.Fetches != fetchesAfterFirst {
		t.Fatal("second deref hit the database")
	}
}

func TestChainTraversal(t *testing.T) {
	p := newPartsDB(t, 10)
	ws := New(p.db)
	d, _ := ws.Fetch(p.oids[0])
	// Walk the ring twice; the second lap must be fetch-free.
	for lap := 0; lap < 2; lap++ {
		cur := d
		for i := 0; i < 10; i++ {
			next, err := cur.Deref("next")
			if err != nil {
				t.Fatal(err)
			}
			cur = next
		}
		if cur != d {
			t.Fatal("ring did not close")
		}
		if lap == 0 && ws.Fetches != 10 {
			t.Fatalf("first lap fetched %d, want 10", ws.Fetches)
		}
		if lap == 1 && ws.Fetches != 10 {
			t.Fatalf("second lap fetched %d more", ws.Fetches-10)
		}
	}
}

func TestDerefSet(t *testing.T) {
	p := newPartsDB(t, 6)
	ws := New(p.db)
	d, _ := ws.Fetch(p.oids[0])
	conns, err := d.DerefSet("connections")
	if err != nil {
		t.Fatal(err)
	}
	if len(conns) != 2 {
		t.Fatalf("connections = %d", len(conns))
	}
}

func TestSetMarksDirtyAndSaves(t *testing.T) {
	p := newPartsDB(t, 3)
	ws := New(p.db)
	d, _ := ws.Fetch(p.oids[0])
	if err := d.Set("x", model.Int(999)); err != nil {
		t.Fatal(err)
	}
	if !d.Dirty() {
		t.Fatal("Set did not mark dirty")
	}
	if err := ws.Save(); err != nil {
		t.Fatal(err)
	}
	if d.Dirty() {
		t.Fatal("Save left descriptor dirty")
	}
	// Visible through a fresh database read.
	obj, _ := p.db.Fetch(p.oids[0])
	v, _ := p.db.AttrValue(obj, "x")
	if n, _ := v.AsInt(); n != 999 {
		t.Fatalf("saved value = %v", v)
	}
}

func TestSetDomainChecked(t *testing.T) {
	p := newPartsDB(t, 3)
	ws := New(p.db)
	d, _ := ws.Fetch(p.oids[0])
	if err := d.Set("x", model.String("nope")); err == nil {
		t.Fatal("domain violation accepted")
	}
}

func TestSetReferenceReswizzles(t *testing.T) {
	p := newPartsDB(t, 4)
	ws := New(p.db)
	d, _ := ws.Fetch(p.oids[0])
	first, _ := d.Deref("next")
	if first.OID() != p.oids[1] {
		t.Fatal("initial next wrong")
	}
	if err := d.Set("next", model.Ref(p.oids[3])); err != nil {
		t.Fatal(err)
	}
	second, err := d.Deref("next")
	if err != nil {
		t.Fatal(err)
	}
	if second.OID() != p.oids[3] {
		t.Fatalf("stale swizzled pointer survived Set: %v", second.OID())
	}
}

func TestEvictRefusesDirtyAndUnswizzles(t *testing.T) {
	p := newPartsDB(t, 3)
	ws := New(p.db)
	d0, _ := ws.Fetch(p.oids[0])
	d1, _ := d0.Deref("next")
	d1.Set("x", model.Int(5))
	if ws.Evict(d1.OID()) {
		t.Fatal("evicted a dirty descriptor")
	}
	ws.Save()
	if !ws.Evict(d1.OID()) {
		t.Fatal("clean descriptor not evicted")
	}
	// d0's swizzled pointer must be gone; deref re-fetches a fresh
	// descriptor.
	fresh, err := d0.Deref("next")
	if err != nil {
		t.Fatal(err)
	}
	if fresh == d1 {
		t.Fatal("stale pointer to evicted descriptor survived")
	}
}

func TestDiscardDropsChanges(t *testing.T) {
	p := newPartsDB(t, 3)
	ws := New(p.db)
	d, _ := ws.Fetch(p.oids[0])
	d.Set("x", model.Int(555))
	ws.Discard()
	if ws.Len() != 0 {
		t.Fatal("Discard left residents")
	}
	obj, _ := p.db.Fetch(p.oids[0])
	v, _ := p.db.AttrValue(obj, "x")
	if n, _ := v.AsInt(); n == 555 {
		t.Fatal("discarded change reached the database")
	}
}

func TestSendOnDescriptor(t *testing.T) {
	p := newPartsDB(t, 3)
	if err := p.db.AddMethod(p.part.ID, "double", func(eng schema.MethodEngine, recv *model.Object, _ []model.Value) (model.Value, error) {
		v, err := p.db.AttrValue(recv, "x")
		if err != nil {
			return model.Null, err
		}
		n, _ := v.AsInt()
		return model.Int(2 * n), nil
	}); err != nil {
		t.Fatal(err)
	}
	ws := New(p.db)
	d, _ := ws.Fetch(p.oids[2])
	got, err := d.Send("double")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := got.AsInt(); n != 4 {
		t.Fatalf("double = %v", got)
	}
}

func TestNullDeref(t *testing.T) {
	p := newPartsDB(t, 3)
	ws := New(p.db)
	// A part with no next.
	var lone model.OID
	p.db.Do(func(tx *core.Tx) error {
		var err error
		lone, err = tx.InsertClass(p.part.ID, map[string]model.Value{"x": model.Int(0)})
		return err
	})
	d, _ := ws.Fetch(lone)
	got, err := d.Deref("next")
	if err != nil || got != nil {
		t.Fatalf("null deref = %v, %v", got, err)
	}
}

func TestSaveFailureKeepsStateConsistent(t *testing.T) {
	// A Save whose transaction fails (write conflict simulated by closing
	// the database) must report the error and keep descriptors dirty so
	// nothing is silently lost.
	p := newPartsDB(t, 2)
	ws := New(p.db)
	d, _ := ws.Fetch(p.oids[0])
	d.Set("x", model.Int(42))
	// Sabotage: delete the object underneath the workspace.
	p.db.Do(func(tx *core.Tx) error { return tx.Delete(p.oids[0]) })
	if err := ws.Save(); err == nil {
		t.Fatal("save of a vanished object succeeded")
	}
	if !d.Dirty() {
		t.Fatal("failed save cleared the dirty flag")
	}
}

func TestTwoWorkspacesAreIndependent(t *testing.T) {
	p := newPartsDB(t, 2)
	ws1 := New(p.db)
	ws2 := New(p.db)
	d1, _ := ws1.Fetch(p.oids[0])
	d2, _ := ws2.Fetch(p.oids[0])
	if d1 == d2 {
		t.Fatal("workspaces share descriptors")
	}
	d1.Set("x", model.Int(77))
	if v, _ := d2.Get("x"); func() int64 { n, _ := v.AsInt(); return n }() == 77 {
		t.Fatal("edit leaked across workspaces before save")
	}
	if err := ws1.Save(); err != nil {
		t.Fatal(err)
	}
	// ws2 still holds its stale copy (no coherence protocol — private
	// databases per §3.3); a fresh fetch after eviction sees the change.
	ws2.Evict(p.oids[0])
	d2b, _ := ws2.Fetch(p.oids[0])
	v, _ := d2b.Get("x")
	if n, _ := v.AsInt(); n != 77 {
		t.Fatalf("refetched value = %v", v)
	}
}
