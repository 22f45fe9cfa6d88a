package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"oodb/internal/model"
	"oodb/internal/schema"
	"oodb/internal/storage"
)

// openParts opens a database holding n parts of the OO1 benchmark's shape
// (internal/bench): four scalars, an empty pad string and a set of three
// references to other parts.
func openParts(tb testing.TB, n int) (*DB, []model.OID) {
	tb.Helper()
	db, err := Open(tb.TempDir(), Options{NoSync: true})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	part, err := db.DefineClass("Part", nil,
		schema.AttrSpec{Name: "pid", Domain: schema.ClassInteger},
		schema.AttrSpec{Name: "x", Domain: schema.ClassInteger},
		schema.AttrSpec{Name: "y", Domain: schema.ClassInteger},
		schema.AttrSpec{Name: "ptype", Domain: schema.ClassString},
		schema.AttrSpec{Name: "pad", Domain: schema.ClassString})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := db.AddAttribute(part.ID, schema.AttrSpec{Name: "to", Domain: part.ID, SetValued: true}); err != nil {
		tb.Fatal(err)
	}
	oids := make([]model.OID, n)
	err = db.Do(func(tx *Tx) error {
		for i := range oids {
			var err error
			oids[i], err = tx.Insert("Part", map[string]model.Value{
				"pid": model.Int(int64(i)), "x": model.Int(int64(i * 7 % 100000)), "y": model.Int(int64(i * 13 % 100000)),
				"ptype": model.String(fmt.Sprintf("type%d", i%10)), "pad": model.String(""),
			})
			if err != nil {
				return err
			}
		}
		for i, oid := range oids {
			to := model.Set(model.Ref(oids[(i+1)%n]), model.Ref(oids[(i+2)%n]), model.Ref(oids[(i+3)%n]))
			if err := tx.Update(oid, map[string]model.Value{"to": to}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return db, oids
}

var fetchSink *model.Object

// TestValueSize pins the layout model.Value's doc comment gives: every
// attribute of every fetched object, query row and wire value is one.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(model.Value{}); got != 24 {
		t.Fatalf("model.Value is %d bytes, want 24", got)
	}
}

// TestFetchAllocations holds a point read of an OO1 part, raw or through
// a snapshot, to the object, its attribute slice, its one non-empty string
// and its set's members.
func TestFetchAllocations(t *testing.T) {
	db, oids := openParts(t, 8)
	obj, err := db.FetchObject(oids[0])
	if err != nil {
		t.Fatal(err)
	}
	if obj.NumAttrs() != 6 {
		t.Fatalf("part has %d stored attributes, want 6", obj.NumAttrs())
	}
	snap := db.BeginSnapshot()
	defer snap.Commit()
	for name, fetch := range map[string]func(model.OID) (*model.Object, error){"raw": db.FetchObject, "snapshot": snap.Fetch} {
		allocs := testing.AllocsPerRun(200, func() { fetchSink, _ = fetch(oids[0]) })
		if allocs > 4 {
			t.Errorf("a %s part fetch makes %.1f allocations, want at most 4", name, allocs)
		}
	}
}

// BenchmarkFetch is the per-object cost of an OO1 traversal with every
// page in the pool: parallel raw fetches of 1000 parts.
func BenchmarkFetch(b *testing.B) {
	db, oids := openParts(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var obj *model.Object
		for i := 0; pb.Next(); i++ {
			var err error
			if obj, err = db.FetchObject(oids[i%len(oids)]); err != nil {
				b.Error(err)
				return
			}
		}
		fetchSink = obj
	})
}

// doc is the state of one Doc object in the alias tests.
type doc struct {
	name string
	tags [3]string
	pad  string
}

func (d doc) attrs() map[string]model.Value {
	return map[string]model.Value{
		"name": model.String(d.name),
		"tags": model.Set(model.String(d.tags[0]), model.String(d.tags[1]), model.String(d.tags[2])),
		"pad":  model.String(d.pad),
	}
}

// docOf returns a doc whose every string is made of c: two docs of one
// pad length encode to records of one length.
func docOf(c byte, pad int) doc {
	s := strings.Repeat(string(c), 4)
	return doc{name: s, tags: [3]string{s + "1", s + "2", s + "3"}, pad: strings.Repeat(string(c), pad)}
}

// TestFetchedObjectOutlivesItsPage holds every object read to the
// owned-payload rule of model.Value: an object fetched from a page keeps
// its values after the page's bytes are rewritten. Each of the three reads
// (raw, locked, snapshot) fetches an inline and an overflow record, the
// page is reused — the object updated in place to a same-length image, the
// object deleted and others inserted into its slot and over its bytes, or
// the page evicted
// from a 16-page pool by a stream of other records — and the object must
// still equal what was stored and re-encode to the bytes it had when read.
func TestFetchedObjectOutlivesItsPage(t *testing.T) {
	reads := []struct {
		name  string
		fetch func(*DB, model.OID) (*model.Object, error)
	}{
		{"raw", (*DB).FetchObject},
		{"locked", func(db *DB, oid model.OID) (*model.Object, error) {
			tx := db.Begin()
			defer tx.Commit()
			return tx.Fetch(oid)
		}},
		{"snapshot", func(db *DB, oid model.OID) (*model.Object, error) {
			tx := db.BeginSnapshot()
			defer tx.Commit()
			return tx.Fetch(oid)
		}},
	}
	reuses := []struct {
		name  string
		reuse func(tx *Tx, oid model.OID, pad int) error
	}{
		{"update in place", func(tx *Tx, oid model.OID, pad int) error {
			return tx.Update(oid, docOf('b', pad).attrs())
		}},
		{"delete and insert", func(tx *Tx, oid model.OID, pad int) error {
			if err := tx.Delete(oid); err != nil {
				return err
			}
			// The first insert takes the freed slot; the page compacts over
			// the freed bytes once the others have filled it.
			for i := 0; i < 100; i++ {
				if _, err := tx.Insert("Doc", docOf('c', pad).attrs()); err != nil {
					return err
				}
			}
			return nil
		}},
		{"evict", func(tx *Tx, _ model.OID, _ int) error {
			for i := 0; i < 256; i++ {
				oid, err := tx.Insert("Filler", map[string]model.Value{"pad": model.String(strings.Repeat("f", 1000))})
				if err != nil {
					return err
				}
				if _, err := tx.Fetch(oid); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, size := range []struct {
		name string
		pad  int
	}{{"inline", 16}, {"overflow", 3 * storage.PageSize}} {
		for _, rd := range reads {
			for _, ru := range reuses {
				t.Run(size.name+"/"+rd.name+"/"+ru.name, func(t *testing.T) {
					db, err := Open(t.TempDir(), Options{PoolPages: 16, NoSync: true})
					if err != nil {
						t.Fatal(err)
					}
					defer db.Close()
					if _, err := db.DefineClass("Doc", nil,
						schema.AttrSpec{Name: "name", Domain: schema.ClassString},
						schema.AttrSpec{Name: "tags", Domain: schema.ClassString, SetValued: true},
						schema.AttrSpec{Name: "pad", Domain: schema.ClassString}); err != nil {
						t.Fatal(err)
					}
					if _, err := db.DefineClass("Filler", nil, schema.AttrSpec{Name: "pad", Domain: schema.ClassString}); err != nil {
						t.Fatal(err)
					}
					stored := docOf('a', size.pad)
					var oid model.OID
					if err := db.Do(func(tx *Tx) (err error) {
						oid, err = tx.Insert("Doc", stored.attrs())
						return err
					}); err != nil {
						t.Fatal(err)
					}
					obj, err := rd.fetch(db, oid)
					if err != nil {
						t.Fatal(err)
					}
					image := model.EncodeObject(obj)
					if err := db.Do(func(tx *Tx) error { return ru.reuse(tx, oid, size.pad) }); err != nil {
						t.Fatal(err)
					}
					for name, want := range stored.attrs() {
						if got, err := db.AttrValue(obj, name); err != nil || !model.Equal(got, want) {
							t.Errorf("%s = %v (%v) after the page was reused, want %v", name, got, err, want)
						}
					}
					if got := model.EncodeObject(obj); !bytes.Equal(got, image) {
						t.Errorf("the object re-encodes to %d different bytes after the page was reused", len(got))
					}
				})
			}
		}
	}
}
