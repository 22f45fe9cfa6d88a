package query

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/schema"
)

// foldWorld is a hierarchy A ⊃ B ⊃ C, A ⊃ D whose Integer attribute val
// (null default) has a class-hierarchy index, and a hierarchy Dflt whose
// val defaults to 7, indexed the same way.
type foldWorld struct {
	db      *core.DB
	fold    *Engine // plans and folds as shipped
	scan    *Engine // ForceScan: the heap scan every answer is held to
	a, b, c model.ClassID
	d, dflt model.ClassID
	objs    []model.OID // the A-hierarchy instances, in insertion order
	r       *rand.Rand
}

func newFoldWorld(t *testing.T) *foldWorld {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	w := &foldWorld{db: db, fold: NewEngine(db), scan: NewEngine(db), r: rand.New(rand.NewSource(35))}
	w.scan.ForceScan = true
	define := func(name string, supers []model.ClassID, attrs ...schema.AttrSpec) model.ClassID {
		cl, err := db.DefineClass(name, supers, attrs...)
		if err != nil {
			t.Fatal(err)
		}
		return cl.ID
	}
	w.a = define("A", nil,
		schema.AttrSpec{Name: "val", Domain: schema.ClassInteger},
		schema.AttrSpec{Name: "tag", Domain: schema.ClassString})
	w.b = define("B", []model.ClassID{w.a})
	w.c = define("C", []model.ClassID{w.b})
	w.d = define("D", []model.ClassID{w.a})
	w.dflt = define("Dflt", nil, schema.AttrSpec{Name: "val", Domain: schema.ClassInteger, Default: model.Int(7)})
	err = db.Do(func(tx *core.Tx) error {
		for _, class := range []model.ClassID{w.a, w.b, w.c, w.d} {
			for i := 0; i < 40; i++ {
				oid, err := tx.InsertClass(class, w.attrs())
				if err != nil {
					return err
				}
				w.objs = append(w.objs, oid)
			}
		}
		for i := 0; i < 30; i++ {
			attrs := w.attrs()
			delete(attrs, "tag")
			if _, err := tx.InsertClass(w.dflt, attrs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("a_val", w.a, []string{"val"}, true); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("dflt_val", w.dflt, []string{"val"}, true); err != nil {
		t.Fatal(err)
	}
	return w
}

// attrs draws an instance's attributes: val in [-6,6], absent one time in
// five, or stored as an explicit null one time in ten.
func (w *foldWorld) attrs() map[string]model.Value {
	m := map[string]model.Value{"tag": model.String("t")}
	switch n := w.r.Intn(10); {
	case n < 2:
	case n < 3:
		m["val"] = model.Null
	default:
		m["val"] = model.Int(int64(w.r.Intn(13) - 6))
	}
	return m
}

// churn updates, nulls, deletes and inserts A-hierarchy instances inside tx.
func (w *foldWorld) churn(tx *core.Tx, n int) error {
	for i := 0; i < n; i++ {
		oid := w.objs[w.r.Intn(len(w.objs))]
		var err error
		switch w.r.Intn(4) {
		case 0:
			err = tx.Update(oid, map[string]model.Value{"val": model.Int(int64(w.r.Intn(13) - 6))})
		case 1:
			err = tx.Update(oid, map[string]model.Value{"val": model.Null})
		case 2:
			err = tx.Delete(oid)
		default:
			classes := []model.ClassID{w.a, w.b, w.c, w.d}
			oid, err = tx.InsertClass(classes[w.r.Intn(len(classes))], w.attrs())
			w.objs = append(w.objs, oid)
		}
		if err != nil && !strings.Contains(err.Error(), "no such object") {
			return err
		}
	}
	return nil
}

// foldStatements is the grid over one scope: every predicate shape under
// every aggregate, one slot read throughout.
func foldStatements(from string) []string {
	preds := []string{"", "val != 3", "val = 3", "val = null", "val != null", "val > 2",
		"val >= -2 AND val < 4", "val <= 0", "NOT (val > 2)", "val IN (1, 2, 99)",
		"val IN (null, 5)", "val < -3 OR val > 3", "NOT (val = null) AND val != 0", "val > 100"}
	aggs := []string{"COUNT(*), COUNT(val), SUM(val), AVG(val), MIN(val), MAX(val)", "COUNT(*)", "SUM(val)"}
	var out []string
	for _, p := range preds {
		for _, a := range aggs {
			switch {
			case p == "" && a == "COUNT(*)":
				// Reads no attribute: nothing to fold from.
			case p == "":
				out = append(out, fmt.Sprintf("SELECT %s FROM %s", a, from))
			default:
				out = append(out, fmt.Sprintf("SELECT %s FROM %s WHERE %s", a, from, p))
			}
		}
	}
	return out
}

// same runs each statement through the fold engine and the heap scan in
// tx and holds the answers to each other, kind and value. It returns how
// many statements the index folded and how many folds gave up.
func (w *foldWorld) same(t *testing.T, tx *core.Tx, stmts []string) (folded, gaveUp uint64) {
	t.Helper()
	f0, g0 := mFolds.Value(), mFoldFallbacks.Value()
	for _, src := range stmts {
		got, err := w.fold.Run(tx, src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		f1 := mFolds.Value()
		want, err := w.scan.Run(tx, src)
		if err != nil {
			t.Fatalf("%s (scan): %v", src, err)
		}
		if mFolds.Value() != f1 {
			t.Fatalf("%s: the ForceScan engine folded", src)
		}
		for i, v := range want.Rows[0].Values {
			g := got.Rows[0].Values[i]
			if g.Kind() != v.Kind() || model.Compare(g, v) != 0 {
				t.Errorf("%s: %s = %s (%s) from the index, %s (%s) from the scan",
					src, want.Cols[i], g, g.Kind(), v, v.Kind())
			}
		}
	}
	return mFolds.Value() - f0, mFoldFallbacks.Value() - g0
}

func (w *foldWorld) commit(t *testing.T, fn func(tx *core.Tx) error) {
	t.Helper()
	if err := w.db.Do(fn); err != nil {
		t.Fatal(err)
	}
}

// TestIndexAggregateDifferential holds the index fold to the heap scan:
// the same answer, kind and value, over hierarchy and ONLY scopes, every
// predicate shape and aggregate, absent and stored-null values with
// updates and deletes made after the index was built, a locked transaction
// reading its own uncommitted writes, and the cases where the fold must
// give up or not start.
func TestIndexAggregateDifferential(t *testing.T) {
	w := newFoldWorld(t)
	w.commit(t, func(tx *core.Tx) error { return w.churn(tx, 60) })
	var stmts []string
	for _, from := range []string{"A", "ONLY A", "B", "ONLY B", "C", "D"} {
		stmts = append(stmts, foldStatements(from)...)
	}

	t.Run("committed", func(t *testing.T) {
		tx := w.db.Begin()
		defer tx.Commit()
		if folded, gaveUp := w.same(t, tx, stmts); folded != uint64(len(stmts)) || gaveUp != 0 {
			t.Fatalf("%d of %d statements folded, %d gave up", folded, len(stmts), gaveUp)
		}
	})

	t.Run("own uncommitted writes", func(t *testing.T) {
		tx := w.db.Begin()
		defer tx.Abort()
		if err := w.churn(tx, 40); err != nil {
			t.Fatal(err)
		}
		if folded, gaveUp := w.same(t, tx, stmts); folded != uint64(len(stmts)) || gaveUp != 0 {
			t.Fatalf("%d of %d statements folded, %d gave up", folded, len(stmts), gaveUp)
		}
	})

	t.Run("quiesced snapshot", func(t *testing.T) {
		snap := w.db.BeginSnapshot()
		defer snap.Commit()
		if folded, gaveUp := w.same(t, snap, stmts); folded != uint64(len(stmts)) || gaveUp != 0 {
			t.Fatalf("%d of %d statements folded, %d gave up", folded, len(stmts), gaveUp)
		}
	})

	t.Run("snapshot with a live overlay", func(t *testing.T) {
		snap := w.db.BeginSnapshot()
		defer snap.Commit()
		grid := foldStatements("A")
		before := make([]*Result, len(grid))
		for i, src := range grid {
			before[i] = runIn(t, snap, w.scan, src)
		}
		w.commit(t, func(tx *core.Tx) error { return w.churn(tx, 10) })
		if folded, gaveUp := w.same(t, snap, grid); folded != 0 || gaveUp != uint64(len(grid)) {
			t.Fatalf("%d of %d statements folded, %d gave up; want every one to give up", folded, len(grid), gaveUp)
		}
		for i, src := range grid {
			if got := runIn(t, snap, w.fold, src); valsOf(got) != valsOf(before[i]) {
				t.Errorf("%s under the snapshot: %s, before the commit %s", src, valsOf(got), valsOf(before[i]))
			}
		}
	})

	t.Run("inexact key", func(t *testing.T) {
		var big model.OID
		w.commit(t, func(tx *core.Tx) (err error) {
			big, err = tx.InsertClass(w.c, map[string]model.Value{"val": model.Int(1<<53 + 1)})
			return err
		})
		defer w.commit(t, func(tx *core.Tx) error { return tx.Delete(big) })
		grid := foldStatements("A")
		tx := w.db.Begin()
		defer tx.Commit()
		folded, gaveUp := w.same(t, tx, grid)
		// A statement whose interval stops short of 2^53 never meets the key.
		if folded+gaveUp != uint64(len(grid)) || gaveUp < uint64(len(grid))/2 {
			t.Fatalf("%d of %d statements folded, %d gave up", folded, len(grid), gaveUp)
		}
	})

	t.Run("non-null default", func(t *testing.T) {
		tx := w.db.Begin()
		defer tx.Commit()
		grid := foldStatements("Dflt")
		if folded, gaveUp := w.same(t, tx, grid); folded != 0 || gaveUp != 0 {
			t.Fatalf("%d statements folded and %d gave up over a defaulted attribute; want none started", folded, gaveUp)
		}
	})
}

// TestIndexAggregateSumPastInt64: 1100 instances just under 2^53 sum past
// int64, which a heap scan meets in heap order and reports as a Float. The
// fold cannot reproduce that order, so it gives up.
func TestIndexAggregateSumPastInt64(t *testing.T) {
	w := newFoldWorld(t)
	w.commit(t, func(tx *core.Tx) error {
		for i := 0; i < 1100; i++ {
			if _, err := tx.InsertClass(w.d, map[string]model.Value{"val": model.Int(1<<53 - 1)}); err != nil {
				return err
			}
		}
		return nil
	})
	grid := []string{"SELECT SUM(val) FROM D", "SELECT COUNT(*), AVG(val) FROM D WHERE val > 0"}
	tx := w.db.Begin()
	defer tx.Commit()
	if folded, gaveUp := w.same(t, tx, grid); folded != 0 || gaveUp != uint64(len(grid)) {
		t.Fatalf("%d statements folded, %d gave up; want every one to give up", folded, gaveUp)
	}
	if got := runIn(t, tx, w.fold, grid[0]).Rows[0].Values[0]; got.Kind() != model.KindFloat {
		t.Fatalf("SUM past int64 = %s (%s), want a Float", got, got.Kind())
	}
}

// TestIndexAggregateExplain pins what EXPLAIN and EXPLAIN ANALYZE show of a
// fold, and that a statement outside the preconditions keeps its path.
func TestIndexAggregateExplain(t *testing.T) {
	w := newFoldWorld(t)
	for src, want := range map[string]string{
		"SELECT COUNT(*), SUM(val) FROM B WHERE val != 3":        "access=index-agg(a_val)(-inf,+inf)",
		"SELECT COUNT(*) FROM ONLY A WHERE val >= 1 AND val < 4": "access=index-agg(a_val)[1,4)",
		"SELECT SUM(val) FROM A":                                 "access=index-agg(a_val)(-inf,+inf)",
		"SELECT SUM(val) FROM A WHERE tag = 't'":                 "access=heap-scan",
		"SELECT SUM(val) FROM A ORDER BY val LIMIT 3":            "access=heap-scan",
		"SELECT val FROM A WHERE val = 3":                        "access=index-eq(a_val)[3,3]",
		"SELECT COUNT(*) FROM Dflt WHERE val = 7":                "access=heap-scan", // absent values read 7 and have no key
		"SELECT COUNT(*) FROM Dflt WHERE val = 3":                "access=index-eq(dflt_val)[3,3]",
	} {
		if plan, err := w.fold.Explain(src); err != nil || !strings.Contains(plan, want) {
			t.Errorf("EXPLAIN %s = %q, %v; want %q", src, plan, err, want)
		}
	}
	tx := w.db.Begin()
	defer tx.Commit()
	out, err := w.fold.ExplainAnalyze(tx, "SELECT COUNT(*) FROM A WHERE val != 3")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"index-agg a_val", "keys_walked=", "postings_folded=", "unkeyed_folded=", "aggregate rows_in="} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "scan A") {
		t.Errorf("a folded statement scanned the heap:\n%s", out)
	}
}
