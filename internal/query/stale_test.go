package query

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/schema"
)

// staleWorld is a database for planning a statement, changing the schema
// or the indexes under the plan, and executing it: A (50 objects, x = i%5,
// a hierarchy index a_x), B (5 objects with s = 'k') and C (5 more),
// under B and the empty D when under is set.
type staleWorld struct {
	db   *core.DB
	eng  *Engine
	b, c model.ClassID
}

func newStaleWorld(t *testing.T, under bool) *staleWorld {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	w := &staleWorld{db: db, eng: NewEngine(db)}
	a, err := db.DefineClass("A", nil,
		schema.AttrSpec{Name: "x", Domain: schema.ClassInteger},
		schema.AttrSpec{Name: "s", Domain: schema.ClassString})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := db.DefineClass("B", nil, schema.AttrSpec{Name: "s", Domain: schema.ClassString})
	var c *schema.Class
	if under {
		d, _ := db.DefineClass("D", nil)
		c, err = db.DefineClass("C", []model.ClassID{b.ID, d.ID})
	} else {
		c, err = db.DefineClass("C", nil, schema.AttrSpec{Name: "s", Domain: schema.ClassString})
	}
	if err != nil {
		t.Fatal(err)
	}
	w.b, w.c = b.ID, c.ID
	err = db.Do(func(tx *core.Tx) error {
		for i := range 50 {
			if _, err := tx.Insert("A", map[string]model.Value{"x": model.Int(int64(i % 5)), "s": model.String(fmt.Sprint(i))}); err != nil {
				return err
			}
		}
		for range 5 {
			for _, class := range []string{"B", "C"} {
				if _, err := tx.Insert(class, map[string]model.Value{"s": model.String("k")}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("a_x", a.ID, []string{"x"}, true); err != nil {
		t.Fatal(err)
	}
	return w
}

// answer runs src through Run, and through a ForceScan engine as the
// reference, and fails unless both answer alike.
func (w *staleWorld) answer(t *testing.T, src string) {
	t.Helper()
	scan := NewEngine(w.db)
	scan.ForceScan = true
	tx := w.db.Begin()
	defer tx.Commit()
	got, want := rowSet(mustRun(t, w.eng, tx, src)), rowSet(mustRun(t, scan, tx, src))
	if !slices.Equal(got, want) {
		t.Fatalf("%s: Run answers %v, ForceScan %v", src, got, want)
	}
}

// TestStalePlanRefused plans a statement, runs DDL and writes under the
// plan, and executes it: Execute must refuse the plan with ErrStalePlan —
// the dropped index is no longer maintained, the scope no longer the
// hierarchy's — and Run must plan again and answer as ForceScan does.
func TestStalePlanRefused(t *testing.T) {
	for _, tc := range []struct {
		name  string
		under bool
		stmts []string
		ddl   func(w *staleWorld) error
	}{
		{"DropIndex", false, []string{
			"SELECT COUNT(*) FROM A WHERE x = 3",
			"SELECT s FROM A WHERE x = 3",
			"SELECT x FROM A WHERE x >= 3 ORDER BY x",
		}, func(w *staleWorld) error {
			if err := w.db.DropIndex("a_x"); err != nil {
				return err
			}
			return w.db.Do(func(tx *core.Tx) error {
				_, err := tx.Insert("A", map[string]model.Value{"x": model.Int(3), "s": model.String("new")})
				return err
			})
		}},
		{"AddSuperclass", false, []string{
			"SELECT COUNT(*) FROM B WHERE s = 'k'",
			"SELECT s FROM B",
		}, func(w *staleWorld) error { return w.db.AddSuperclass(w.c, w.b) }},
		{"DropSuperclass", true, []string{
			"SELECT COUNT(*) FROM B WHERE s = 'k'",
			"SELECT s FROM B",
		}, func(w *staleWorld) error { return w.db.DropSuperclass(w.c, w.b) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, src := range tc.stmts {
				w := newStaleWorld(t, tc.under)
				q, err := Parse(src)
				if err != nil {
					t.Fatal(err)
				}
				plan, err := w.eng.PlanQuery(q)
				if err != nil {
					t.Fatal(err)
				}
				if err := tc.ddl(w); err != nil {
					t.Fatal(err)
				}
				tx := w.db.Begin()
				res, err := w.eng.Execute(tx, plan)
				tx.Commit()
				if !errors.Is(err, ErrStalePlan) {
					t.Fatalf("%s: Execute of the stale plan (%s) = %v, %v; want ErrStalePlan", src, plan, res, err)
				}
				w.answer(t, src)
			}
		})
	}
}

// TestStalePlanVettedAgain makes a plan stale from inside the vet step: the
// first vet adds C, whose own s the vet refuses, under B. The statement
// must be planned again, the new plan vetted again and refused.
func TestStalePlanVettedAgain(t *testing.T) {
	w := newStaleWorld(t, false)
	denied := errors.New("C.s may not be read")
	var vets int
	vet := func(p *Plan) error {
		if vets++; vets == 1 {
			return w.db.AddSuperclass(w.c, w.b)
		}
		for _, r := range p.Reads {
			if r == (schema.AttrRead{Class: w.c, Name: "s"}) {
				return denied
			}
		}
		return nil
	}
	q, err := Parse("SELECT COUNT(*) FROM B WHERE s = 'k'")
	if err != nil {
		t.Fatal(err)
	}
	tx := w.db.Begin()
	defer tx.Commit()
	res, err := w.eng.RunQuery(tx, q, vet)
	if !errors.Is(err, denied) || vets != 2 {
		t.Fatalf("RunQuery = %v, %v after %d vets; want the second vet's refusal", res, err, vets)
	}
}

// TestNoReplanWithoutDDL runs compaction, statistics and a checkpoint
// between planning and executing: none of them moves the schema epoch, so
// the plan executes as made and query_replans_total stays.
func TestNoReplanWithoutDDL(t *testing.T) {
	w := newStaleWorld(t, false)
	a := mustClassID(t, w.db, "A")
	for _, src := range []string{
		"SELECT COUNT(*) FROM A WHERE x = 3",
		"SELECT s FROM A WHERE x = 3",
		"SELECT COUNT(*) FROM B WHERE s = 'k'",
	} {
		q, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		replans, vets := mReplans.Value(), 0
		maintain := func(*Plan) error {
			vets++
			if _, err := w.db.CompactClass(a); err != nil {
				return err
			}
			if _, err := w.db.AnalyzeClass(a); err != nil {
				return err
			}
			return w.db.Checkpoint()
		}
		tx := w.db.Begin()
		_, err = w.eng.RunQuery(tx, q, maintain)
		tx.Commit()
		if err != nil || vets != 1 || mReplans.Value() != replans {
			t.Fatalf("%s: %v after %d vets and %d re-plans; want one plan", src, err, vets, mReplans.Value()-replans)
		}
		w.answer(t, src)
	}
}

// rowSet is a result's rows as sorted strings.
func rowSet(res *Result) []string {
	var out []string
	for _, row := range flatten(res) {
		out = append(out, fmt.Sprint(row))
	}
	slices.Sort(out)
	return out
}

func mustClassID(t *testing.T, db *core.DB, name string) model.ClassID {
	t.Helper()
	cl, err := db.Catalog.ClassByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return cl.ID
}
