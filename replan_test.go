package oodb

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"oodb/internal/authz"
	"oodb/internal/txn"
)

// TestIndexChurnUnderQueries drops and re-creates the index a statement
// plans with while readers run it through DB.Query, Session.Query and
// DB.QuerySnapshot. The data never changes, so every answer must be the one
// the statement has on the quiet database: a plan made before a drop or a
// create is planned again, and no statement reads an index still being
// populated — CreateIndex locks only the index's class, so a statement
// over a subclass, or a snapshot, runs while it does. `make replan` runs it
// ten times under the race detector.
func TestIndexChurnUnderQueries(t *testing.T) {
	db, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.DefineClass("H", nil, Attr{Name: "val", Domain: "Integer"}, Attr{Name: "tag", Domain: "String"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineClass("H2", []string{"H"}); err != nil {
		t.Fatal(err)
	}
	err = db.Do(func(tx *Tx) error {
		for i := range 200 {
			class := []string{"H", "H2"}[i%2]
			if _, err := tx.Insert(class, Attrs{"val": Int(int64(i % 10)), "tag": String(fmt.Sprint("t", i))}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("h_val", "H", []string{"val"}, true); err != nil {
		t.Fatal(err)
	}
	cl, _ := db.ClassByName("H")
	az := db.Authorizer()
	az.AddRole("reader")
	az.Grant(authz.Grant{Role: "reader", Type: authz.Read, Object: authz.Database()})
	az.Grant(authz.Grant{Role: "reader", Type: authz.Read, Object: authz.ClassDeep(cl.ID)})

	answers := map[string]string{ // index-agg, index-eq, index-only, index-range
		"SELECT COUNT(*), SUM(val) FROM H WHERE val = 3":               "[[20 60]]",
		"SELECT COUNT(*) FROM H WHERE val >= 8":                        "[[40]]",
		"SELECT val FROM H WHERE val >= 8 ORDER BY val LIMIT 3":        "[[8] [8] [8]]",
		"SELECT tag FROM H WHERE val = 7 AND tag = 't197'":             `[["t197"]]`,
		"SELECT val FROM H WHERE val >= 9 AND tag != 'x' ORDER BY val": "[" + strings.TrimSpace(strings.Repeat("[9] ", 20)) + "]",
		"SELECT COUNT(*) FROM H2 WHERE val >= 5":                       "[[60]]",
		"SELECT val FROM H2 WHERE val >= 9 ORDER BY val LIMIT 3":       "[[9] [9] [9]]",
	}
	// rows renders a result's rows, sorted, for comparison.
	rows := func(vals [][]Value, err error) (string, error) {
		out := make([][]string, len(vals))
		for i, v := range vals {
			for _, x := range v {
				out[i] = append(out[i], x.String())
			}
		}
		slices.SortFunc(out, slices.Compare)
		return fmt.Sprint(out), err
	}
	values := func(res *Result, err error) ([][]Value, error) {
		var vals [][]Value
		for i := 0; err == nil && i < len(res.Rows); i++ {
			vals = append(vals, res.Rows[i].Values)
		}
		return vals, err
	}
	doors := map[string]func(string) (string, error){
		"DB.Query":         func(src string) (string, error) { return rows(values(db.Query(src))) },
		"DB.QuerySnapshot": func(src string) (string, error) { return rows(values(db.QuerySnapshot(src))) },
		"Session.Query": func(src string) (string, error) {
			res, err := db.Session(az, "reader").Query(src)
			var vals [][]Value
			for i := 0; err == nil && i < len(res.Rows); i++ {
				vals = append(vals, res.Rows[i].Values)
			}
			return rows(vals, err)
		},
	}
	for door, query := range doors {
		for src, want := range answers {
			if got, err := query(src); err != nil || got != want {
				t.Fatalf("%s %s on the quiet database: %s, %v; want %s", door, src, got, err, want)
			}
		}
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	for door, query := range doors {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for src, want := range answers {
					if got, err := query(src); err != nil || got != want {
						t.Errorf("%s %s during index churn: %s, %v; want %s", door, src, got, err, want)
						return
					}
				}
			}
		}()
	}
	for range 10 {
		if err := db.DropIndex("h_val"); err != nil {
			t.Error(err)
			break
		}
		if err := db.CreateIndex("h_val", "H", []string{"val"}, true); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	readers.Wait()
	t.Logf("query_replans_total = %d", db.Metrics().Counters["query_replans_total"])
}

// TestSchemaChurnUnderSnapshots takes C, whose objects match, out from
// under B and puts it back while readers count over B's hierarchy through
// DB.Query and DB.QuerySnapshot. Each answer must be B's own count or B's
// and C's: AddSuperclass repopulates B's hierarchy index under X locks
// that a snapshot does not take, so no statement may read the index until
// it holds C's instances, and a snapshot statement the change lands in
// the middle of runs again. A locked reader may instead lose a deadlock to
// the DDL, whose X locks it meets in another order: a typed error. `make
// replan` runs it ten times under the race detector.
func TestSchemaChurnUnderSnapshots(t *testing.T) {
	db, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, def := range []struct {
		name   string
		supers []string
		attrs  []Attr
	}{{"B", nil, []Attr{{Name: "val", Domain: "Integer"}}}, {"D", nil, nil}, {"C", []string{"B", "D"}, nil}} {
		if _, err := db.DefineClass(def.name, def.supers, def.attrs...); err != nil {
			t.Fatal(err)
		}
	}
	err = db.Do(func(tx *Tx) error {
		for i := range 800 {
			for _, class := range []string{"B", "C"} {
				if _, err := tx.Insert(class, Attrs{"val": Int(int64(i % 160))}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("b_val", "B", []string{"val"}, true); err != nil {
		t.Fatal(err)
	}
	answers := map[string][2]string{ // without C, with C
		"SELECT COUNT(*) FROM B WHERE val = 3":    {"5", "10"},
		"SELECT COUNT(*) FROM B WHERE val >= 158": {"10", "20"},
	}
	doors := map[string]func(string) (*Result, error){"DB.Query": db.Query, "DB.QuerySnapshot": db.QuerySnapshot}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for door, query := range doors {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for src, want := range answers {
					res, err := query(src)
					if errors.Is(err, txn.ErrDeadlock) {
						continue
					}
					if err != nil {
						t.Errorf("%s %s during schema churn: %v", door, src, err)
						return
					}
					if got := res.Rows[0].Values[0].String(); got != want[0] && got != want[1] {
						t.Errorf("%s %s during schema churn: %s; want %s or %s", door, src, got, want[0], want[1])
						return
					}
				}
			}
		}()
	}
	b, _ := db.ClassByName("B")
	c, _ := db.ClassByName("C")
	for range 10 {
		if err := db.Engine().DropSuperclass(c.ID, b.ID); err != nil {
			t.Error(err)
			break
		}
		if err := db.Engine().AddSuperclass(c.ID, b.ID); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	readers.Wait()
}
