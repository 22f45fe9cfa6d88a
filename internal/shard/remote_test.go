package shard

import (
	"bytes"
	"testing"
	"time"

	"oodb"
	"oodb/internal/federation"
	"oodb/internal/model"
	"oodb/internal/server"
	"oodb/internal/server/client"
)

// scanOnly hides RunQuery, forcing the federation through the Scan path.
type scanOnly struct{ federation.Source }

// TestRemoteSourceFederationParity pins the tentpole's first piece: a
// remote kimsrv joins a federation exactly like an in-process database.
// The same queries run against (a) the embedded OOSource, (b) the
// RemoteSource pushdown path, and (c) the RemoteSource Scan fallback —
// all three must agree byte-for-byte on values.
func TestRemoteSourceFederationParity(t *testing.T) {
	db, err := oodb.Open(t.TempDir(), oodb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.DefineClass("Dept", nil,
		oodb.Attr{Name: "city", Domain: "String"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineClass("Emp", nil,
		oodb.Attr{Name: "name", Domain: "String"},
		oodb.Attr{Name: "salary", Domain: "Integer"},
		oodb.Attr{Name: "dept", Domain: "Dept"},
		oodb.Attr{Name: "tags", Domain: "String", SetValued: true},
		oodb.Attr{Name: "depts", Domain: "Dept", SetValued: true}); err != nil {
		t.Fatal(err)
	}
	err = db.Do(func(tx *oodb.Tx) error {
		d1, err := tx.Insert("Dept", map[string]model.Value{"city": model.String("Austin")})
		if err != nil {
			return err
		}
		d2, err := tx.Insert("Dept", map[string]model.Value{"city": model.String("Detroit")})
		if err != nil {
			return err
		}
		for _, spec := range []struct {
			name        string
			salary      int64
			dept        model.Value
			tags, depts model.Value
		}{
			{"alice", 120, model.Ref(d1), model.Set(model.String("x"), model.String("y")), model.Set(model.Ref(d1), model.Ref(d2))},
			{"bob", 90, model.Ref(d2), model.Set(model.String("z")), model.Set(model.Ref(d2))},
			{"carol", 130, model.Ref(d1), model.Null, model.Null},
			{"dave", 70, model.Null, model.Set(model.String("y")), model.Set(model.Ref(d1))}, // no dept: null mid-path
		} {
			attrs := map[string]model.Value{
				"name": model.String(spec.name), "salary": model.Int(spec.salary)}
			for name, v := range map[string]model.Value{"dept": spec.dept, "tags": spec.tags, "depts": spec.depts} {
				if !v.IsNull() {
					attrs[name] = v
				}
			}
			if _, err := tx.Insert("Emp", attrs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	s := server.New(db, server.Options{})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Drain(2 * time.Second) })

	remote := NewRemoteSource(s.Addr().String(), client.Options{Role: "app"})
	defer remote.Close()

	embedded := federation.New()
	embedded.Register("m", federation.NewOOSource(db.Engine()))
	pushed := federation.New()
	pushed.Register("m", remote)
	scanned := federation.New()
	scanned.Register("m", scanOnly{remote})

	queries := []string{
		`SELECT name, salary FROM Emp WHERE salary > 80 ORDER BY salary DESC`,
		`SELECT name, dept.city FROM Emp WHERE dept.city = 'Austin' ORDER BY name`,
		`SELECT dept.city FROM Emp ORDER BY name`, // null mid-path projects as null
		`SELECT name FROM Emp ORDER BY name LIMIT 2`,
		// Set-valued attribute and reference: existential comparison and IN,
		// fan-out through every member, a singleton projected as its member.
		`SELECT name FROM Emp WHERE tags = 'y' ORDER BY name`,
		`SELECT name FROM Emp WHERE tags IN ('x', 'z') ORDER BY name`,
		`SELECT name FROM Emp WHERE depts.city = 'Detroit' ORDER BY name`,
		`SELECT name, tags, depts.city FROM Emp ORDER BY name`,
	}
	for _, qsrc := range queries {
		var encoded [][]byte
		for _, f := range []*federation.Federation{embedded, pushed, scanned} {
			res, err := f.Query("m", qsrc)
			if err != nil {
				t.Fatalf("%q: %v", qsrc, err)
			}
			var b []byte
			for _, row := range res.Rows {
				for _, v := range row.Values {
					b = model.AppendValue(b, v)
				}
				b = append(b, '\n')
			}
			encoded = append(encoded, b)
			if len(res.Rows) == 0 {
				t.Fatalf("%q: empty result proves nothing", qsrc)
			}
		}
		if !bytes.Equal(encoded[0], encoded[1]) {
			t.Fatalf("%q: remote pushdown differs from embedded source", qsrc)
		}
		if !bytes.Equal(encoded[0], encoded[2]) {
			t.Fatalf("%q: remote scan path differs from embedded source", qsrc)
		}
	}

	// Classes surface over the wire like any member's.
	names := remote.Classes()
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
	}
	if !found["Emp"] || !found["Dept"] {
		t.Fatalf("remote classes = %v", names)
	}

	// Entity access through the remote scan path: nested deref over the
	// wire, unknown attribute is (Null, false) like ooEntity.
	var ent federation.Entity
	if err := remote.Scan("Emp", func(e federation.Entity) bool { ent = e; return false }); err != nil {
		t.Fatal(err)
	}
	if v, ok := ent.Get([]string{"name"}); !ok || v.IsNull() {
		t.Fatalf("entity name = %v, %v", v, ok)
	}
	if _, ok := ent.Get([]string{"mystery"}); ok {
		t.Fatal("unknown attribute resolved")
	}
}
