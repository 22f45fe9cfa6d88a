package oodb_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"oodb"
	"oodb/internal/model"
	"oodb/internal/storage"
)

// One damaged record, every consumer: a record whose bytes no longer
// decode — its page checksum resealed, so the page is valid and only the
// record is wrong — is model.ErrCorrupt for every reader of its class,
// never a row left out of an index, a statistic, a view list or a fact set.

// corruptFixture is a closed database: ten Parts (w = 0..9), two
// Assemblies, a view, a composite declaration with asm-b owning part-5,
// one checkout, one schema snapshot and a versioned Design whose two
// versions are design-1 and design-2.
type corruptFixture struct {
	dir    string
	oids   map[string]oodb.OID // by name attribute: part-0.., asm-a, asm-b
	images map[string][]byte   // by class: the victim's stored image
}

// newCorruptFixture builds the fixture. The victims are Part w = 5, Asm
// asm-a, Design design-2 and the one instance of each system class.
func newCorruptFixture(t *testing.T, withIndex bool) corruptFixture {
	t.Helper()
	dir := t.TempDir()
	db, err := oodb.Open(dir, oodb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err = db.DefineClass("Part", nil, oodb.Attr{Name: "name", Domain: "String"}, oodb.Attr{Name: "w", Domain: "Integer"})
	must(err)
	_, err = db.DefineClass("Asm", nil, oodb.Attr{Name: "name", Domain: "String"}, oodb.Attr{Name: "part", Domain: "Part"})
	must(err)
	f := corruptFixture{dir: dir, oids: map[string]oodb.OID{}, images: map[string][]byte{}}
	must(db.Do(func(tx *oodb.Tx) error {
		for i := 0; i < 10; i++ {
			name := fmt.Sprintf("part-%d", i)
			oid, err := tx.Insert("Part", oodb.Attrs{"name": oodb.String(name), "w": oodb.Int(int64(i))})
			if err != nil {
				return err
			}
			f.oids[name] = oid
		}
		for _, name := range []string{"asm-a", "asm-b"} {
			oid, err := tx.Insert("Asm", oodb.Attrs{"name": oodb.String(name)})
			if err != nil {
				return err
			}
			f.oids[name] = oid
		}
		return nil
	}))
	if withIndex {
		must(db.CreateIndex("pw", "Part", []string{"w"}, false))
	}
	vm, err := db.Views()
	must(err)
	must(vm.Define("Heavy", "SELECT name FROM Part WHERE w > 5"))
	cm, err := db.Composites()
	must(err)
	asm, err := db.ClassByName("Asm")
	must(err)
	must(cm.DeclareComposite(asm.ID, "part", true))
	must(db.Do(func(tx *oodb.Tx) error {
		return cm.Attach(tx, f.oids["asm-b"], "part", f.oids["part-5"])
	}))
	co, err := db.Checkouts()
	must(err)
	_, err = co.Checkout("ann", f.oids["part-0"])
	must(err)
	_, err = db.SnapshotSchema("v1")
	must(err)
	design, err := db.DefineClass("Design", nil, oodb.Attr{Name: "name", Domain: "String"})
	must(err)
	versions, err := db.Versions()
	must(err)
	must(versions.EnableVersioning(design.ID))
	must(db.Do(func(tx *oodb.Tx) error {
		g, v1, err := versions.CreateVersioned(tx, design.ID, oodb.Attrs{"name": oodb.String("design")})
		if err != nil {
			return err
		}
		v2, err := versions.Derive(tx, v1)
		f.oids["design"], f.oids["design-1"], f.oids["design-2"] = g, v1, v2
		return err
	}))

	victims := map[string]oodb.OID{"Part": f.oids["part-5"], "Asm": f.oids["asm-a"], "Design": f.oids["design-2"]}
	for _, name := range []string{"ViewDef", "CompositeDecl", "CheckoutRecord", "SchemaVersion"} {
		cl, err := db.ClassByName(name)
		must(err)
		tx := db.BeginSnapshot()
		must(tx.Scan(cl.ID, func(obj *model.Object) bool {
			victims[name] = obj.OID
			return false
		}))
		tx.Commit()
	}
	for name, oid := range victims {
		obj, err := db.Fetch(oid)
		must(err)
		f.images[name] = model.EncodeObject(obj)
	}
	must(db.Close())
	return f
}

// damageRecord rewrites the one stored copy of image in dir's data file
// with mutate and reseals the checksum of the page that holds it.
func damageRecord(t *testing.T, dir string, image []byte, mutate func(rec []byte)) {
	t.Helper()
	path := filepath.Join(dir, "data.kdb")
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for off := 0; off+storage.PageSize <= len(file); off += storage.PageSize {
		page := file[off : off+storage.PageSize]
		if i := bytes.Index(page, image); i >= 0 {
			found++
			mutate(page[i : i+len(image)])
			binary.BigEndian.PutUint32(page, crc32.Checksum(page[4:], crc32.MakeTable(crc32.Castagnoli)))
		}
	}
	if found != 1 {
		t.Fatalf("the record's image is stored %d times in the data file, want once", found)
	}
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
}

// flipKind gives the record's first attribute value an unknown kind byte.
func flipKind(rec []byte) {
	_, n := binary.Uvarint(rec) // OID
	_, m := binary.Uvarint(rec[n:])
	_, k := binary.Uvarint(rec[n+m:]) // first attribute id
	rec[n+m+k] = 238
}

func TestDamagedRecordIsCorruptForEveryConsumer(t *testing.T) {
	part := func(db *oodb.DB) model.ClassID {
		if cl, err := db.ClassByName("Part"); err == nil {
			return cl.ID
		}
		return 0 // not a class: the call fails, and not with ErrCorrupt
	}
	cases := []struct {
		name   string
		victim string
		run    func(db *oodb.DB, f corruptFixture) error
	}{
		{"ScanQuery", "Part", func(db *oodb.DB, _ corruptFixture) error {
			_, err := db.Query("SELECT name FROM Part WHERE w = 5")
			return err
		}},
		// A streamed aggregate keeps no rows: it must fail, not return a
		// count that left the record out. Part alone is scanned serially.
		{"ScanAggregate", "Part", func(db *oodb.DB, _ corruptFixture) error {
			_, err := db.Query("SELECT COUNT(*), SUM(w) FROM Part")
			return err
		}},
		// With a subclass the scope is a hierarchy, scanned one class per
		// goroutine.
		{"ScanAggregateFanOut", "Part", func(db *oodb.DB, _ corruptFixture) error {
			if _, err := db.DefineClass("Bolt", []string{"Part"}); err != nil {
				return err
			}
			err := db.Do(func(tx *oodb.Tx) error {
				_, err := tx.Insert("Bolt", oodb.Attrs{"name": oodb.String("bolt"), "w": oodb.Int(1)})
				return err
			})
			if err != nil {
				return err
			}
			_, err = db.Query("SELECT COUNT(*), SUM(w) FROM Part")
			return err
		}},
		// The failed build leaves no half-built index for the query to probe.
		{"CreateIndex", "Part", func(db *oodb.DB, _ corruptFixture) error {
			if err := db.CreateIndex("pw", "Part", []string{"w"}, false); !errors.Is(err, model.ErrCorrupt) {
				return err
			}
			_, err := db.Query("SELECT name FROM Part WHERE w = 5")
			return err
		}},
		{"AnalyzeClass", "Part", func(db *oodb.DB, _ corruptFixture) error {
			_, err := db.Engine().AnalyzeClass(part(db))
			return err
		}},
		{"CompactClass", "Part", func(db *oodb.DB, _ corruptFixture) error {
			_, err := db.Engine().CompactClass(part(db))
			return err
		}},
		{"DropClass", "Part", func(db *oodb.DB, _ corruptFixture) error {
			return db.DropClass("Part")
		}},
		{"Infer", "Part", func(db *oodb.DB, _ corruptFixture) error {
			eng, edb := db.RuleEngine()
			if err := edb.MapClass("part", "Part"); err != nil {
				return err
			}
			_, err := eng.Infer("part")
			return err
		}},
		{"Views", "ViewDef", func(db *oodb.DB, _ corruptFixture) error {
			_, err := db.Views()
			return err
		}},
		{"Composites", "CompositeDecl", func(db *oodb.DB, _ corruptFixture) error {
			_, err := db.Composites()
			return err
		}},
		// The exclusivity check scans the declaring class for an owner.
		{"CompositeAttach", "Asm", func(db *oodb.DB, f corruptFixture) error {
			cm, err := db.Composites()
			if err != nil {
				return err
			}
			return db.Do(func(tx *oodb.Tx) error {
				return cm.Attach(tx, f.oids["asm-b"], "part", f.oids["part-1"])
			})
		}},
		// The walk reads asm-b's component part-5.
		{"Components", "Part", func(db *oodb.DB, f corruptFixture) error {
			cm, err := db.Composites()
			if err != nil {
				return err
			}
			_, err = cm.Components(f.oids["asm-b"])
			return err
		}},
		// Delete propagates to asm-b's exclusive component part-5.
		{"DeleteComposite", "Part", func(db *oodb.DB, f corruptFixture) error {
			cm, err := db.Composites()
			if err != nil {
				return err
			}
			return db.Do(func(tx *oodb.Tx) error { return cm.DeleteComposite(tx, f.oids["asm-b"]) })
		}},
		// With no default, dynamic binding reads every version's number.
		{"Resolve", "Design", func(db *oodb.DB, f corruptFixture) error {
			vm, err := db.Versions()
			if err != nil {
				return err
			}
			_, err = vm.Resolve(f.oids["design"])
			return err
		}},
		{"CheckedOutBy", "CheckoutRecord", func(db *oodb.DB, _ corruptFixture) error {
			co, err := db.Checkouts()
			if err != nil {
				return err
			}
			_, err = co.CheckedOutBy("ann")
			return err
		}},
		{"SchemaVersions", "SchemaVersion", func(db *oodb.DB, _ corruptFixture) error {
			_, err := db.SchemaVersions()
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := newCorruptFixture(t, false)
			damageRecord(t, f.dir, f.images[c.victim], flipKind)
			db, err := oodb.Open(f.dir, oodb.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := c.run(db, f); !errors.Is(err, model.ErrCorrupt) {
				t.Fatalf("%s over a damaged %s record: %v, want ErrCorrupt", c.name, c.victim, err)
			}
		})
	}

	// Open rebuilds a defined index from a scan of its class.
	t.Run("ReopenWithIndex", func(t *testing.T) {
		f := newCorruptFixture(t, true)
		damageRecord(t, f.dir, f.images["Part"], flipKind)
		if db, err := oodb.Open(f.dir, oodb.Options{}); !errors.Is(err, model.ErrCorrupt) {
			if err == nil {
				db.Close()
			}
			t.Fatalf("reopen with an index over a damaged record: %v, want ErrCorrupt", err)
		}
	})

	// A Part record whose OID prefix names an Asm: the directory rebuild at
	// open meets it first.
	t.Run("ForeignOID", func(t *testing.T) {
		f := newCorruptFixture(t, false)
		damageRecord(t, f.dir, f.images["Part"], func(rec []byte) {
			raw, n := binary.Uvarint(rec)
			oid := model.OID(raw)
			foreign := binary.AppendUvarint(nil, uint64(model.MakeOID(oid.Class()+1, oid.Seq())))
			if len(foreign) != n {
				t.Fatalf("foreign OID encodes in %d bytes, the record's in %d", len(foreign), n)
			}
			copy(rec, foreign)
		})
		if db, err := oodb.Open(f.dir, oodb.Options{}); !errors.Is(err, model.ErrCorrupt) {
			if err == nil {
				db.Close()
			}
			t.Fatalf("reopen over a record of another class: %v, want ErrCorrupt", err)
		}
	})
}
