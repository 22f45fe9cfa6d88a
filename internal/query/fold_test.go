package query

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
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
		"val IN (null, 5)", "val < -3 OR val > 3", "NOT (val = null) AND val != 0", "val > 100",
		// Shapes of the literal cut: a fraction, another kind, literals past
		// 2^53, no literal, a repeated one, and nested connectives.
		"val > 2.5", "val != 'x'", "val < 9007199254740993", "val > 9007199254740992", "val = val", "val IN (3, 3, -1)",
		"(val > 0 OR val < -4) AND NOT (val = 2)"}
	aggs := []string{"COUNT(*), COUNT(val), SUM(val), AVG(val), MIN(val), MAX(val)", "COUNT(*)", "SUM(val)"}
	var out []string
	for _, p := range preds {
		for _, a := range aggs {
			if p == "" {
				out = append(out, fmt.Sprintf("SELECT %s FROM %s", a, from))
			} else {
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

// rowStatements is the grid of covered row statements over one scope:
// SELECT val ... ORDER BY val, with and without LIMIT, over predicates that
// reject null, a != residual among them.
func rowStatements(from string) []string {
	var out []string
	for _, where := range []string{"val > -5 AND val != 3", "val >= -2 AND val < 4 AND val != 0", "val > 2.5",
		"val IN (1, -4, 6)", "NOT (val = null) AND val != -1", "(val > 0 OR val < -4) AND NOT (val = 2)"} {
		for _, limit := range []string{"", " LIMIT 7"} {
			out = append(out, fmt.Sprintf("SELECT val FROM %s WHERE %s ORDER BY val%s", from, where, limit))
		}
	}
	return out
}

// byValueThenOID orders rows by their first value, ties by OID: the order
// a covered row statement walks the index in.
func byValueThenOID(rows []Row) {
	sort.SliceStable(rows, func(i, j int) bool {
		if c := model.Compare(rows[i].Values[0], rows[j].Values[0]); c != 0 {
			return c < 0
		}
		return rows[i].OID < rows[j].OID
	})
}

// sameRows runs each row statement through the fold engine and holds its
// rows to the heap scan's in tx: the same values in the same order, and the
// same OIDs. Ties are broken by OID in the index and by heap order in the
// scan, so the rows below the last value must be those of the scan's
// unlimited answer ordered by (value, OID), and a row at the last value one
// of that answer's; a statement answered index-only must also come in
// (value, OID) order itself. It returns how many statements were answered
// index-only and how many covered statements gave up.
func (w *foldWorld) sameRows(t *testing.T, tx *core.Tx, stmts []string) (indexOnly, gaveUp uint64) {
	t.Helper()
	i0, g0 := mIndexOnly.Value(), mFoldFallbacks.Value()
	for _, src := range stmts {
		i1 := mIndexOnly.Value()
		got := runIn(t, tx, w.fold, src)
		i2 := mIndexOnly.Value()
		limited := runIn(t, tx, w.scan, src)
		full := runIn(t, tx, w.scan, strings.TrimSuffix(src, " LIMIT 7"))
		covered := i2 != i1
		if mIndexOnly.Value() != i2 {
			t.Fatalf("%s: the ForceScan engine answered index-only", src)
		}
		if len(got.Rows) != len(limited.Rows) || valsOf(got) != valsOf(limited) {
			t.Fatalf("%s: %d rows %s from the index, %d rows %s from the scan",
				src, len(got.Rows), valsOf(got), len(limited.Rows), valsOf(limited))
		}
		if len(got.Rows) == 0 {
			continue
		}
		byValueThenOID(full.Rows)
		inFull := map[model.OID]bool{}
		for _, r := range full.Rows {
			inFull[r.OID] = true
		}
		sorted := slices.Clone(got.Rows)
		byValueThenOID(sorted)
		lastVal := sorted[len(sorted)-1].Values[0]
		for i, r := range sorted {
			below := model.Compare(r.Values[0], lastVal) < 0
			if covered && r.OID != got.Rows[i].OID {
				t.Fatalf("%s: row %d is %s, not in (value, OID) order", src, i, got.Rows[i].OID)
			}
			if (below && r.OID != full.Rows[i].OID) || !inFull[r.OID] {
				t.Fatalf("%s: row %d is %s %s, the scan's %s %s",
					src, i, r.OID, r.Values[0], full.Rows[i].OID, full.Rows[i].Values[0])
			}
		}
	}
	return mIndexOnly.Value() - i0, mFoldFallbacks.Value() - g0
}

// TestIndexOnlyRowsDifferential holds covered row statements to the heap
// scan over hierarchy and ONLY scopes: committed, beside the transaction's
// own uncommitted writes and under a quiesced snapshot, where every one is
// answered from the index; and under a snapshot with a live overlay, where
// every one must give up and still answer as of the snapshot.
func TestIndexOnlyRowsDifferential(t *testing.T) {
	w := newFoldWorld(t)
	w.commit(t, func(tx *core.Tx) error { return w.churn(tx, 60) })
	var stmts []string
	for _, from := range []string{"A", "ONLY A", "B", "ONLY B", "C", "D"} {
		stmts = append(stmts, rowStatements(from)...)
	}
	all := func(t *testing.T, tx *core.Tx) {
		if indexOnly, gaveUp := w.sameRows(t, tx, stmts); indexOnly != uint64(len(stmts)) || gaveUp != 0 {
			t.Fatalf("%d of %d statements answered index-only, %d gave up", indexOnly, len(stmts), gaveUp)
		}
	}

	t.Run("committed", func(t *testing.T) {
		tx := w.db.Begin()
		defer tx.Commit()
		all(t, tx)
	})

	t.Run("own uncommitted writes", func(t *testing.T) {
		tx := w.db.Begin()
		defer tx.Abort()
		if err := w.churn(tx, 40); err != nil {
			t.Fatal(err)
		}
		all(t, tx)
	})

	t.Run("quiesced snapshot", func(t *testing.T) {
		snap := w.db.BeginSnapshot()
		defer snap.Commit()
		all(t, snap)
	})

	t.Run("snapshot with a live overlay", func(t *testing.T) {
		snap := w.db.BeginSnapshot()
		defer snap.Commit()
		grid := rowStatements("A")
		before := make([]*Result, len(grid))
		for i, src := range grid {
			before[i] = runIn(t, snap, w.scan, src)
		}
		w.commit(t, func(tx *core.Tx) error { return w.churn(tx, 10) })
		if indexOnly, gaveUp := w.sameRows(t, snap, grid); indexOnly != 0 || gaveUp != uint64(len(grid)) {
			t.Fatalf("%d of %d statements answered index-only, %d gave up; want every one to give up", indexOnly, len(grid), gaveUp)
		}
		for i, src := range grid {
			if got := runIn(t, snap, w.fold, src); valsOf(got) != valsOf(before[i]) {
				t.Errorf("%s under the snapshot: %s, before the commit %s", src, valsOf(got), valsOf(before[i]))
			}
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
		// COUNT(*) with no WHERE counts from the root summary.
		"SELECT COUNT(*) FROM A":    "access=index-agg(a_val)(-inf,+inf)",
		"SELECT COUNT(*) FROM Dflt": "access=heap-scan",
		// Covered rows: the slot alone, ordered by it, null rejected.
		"SELECT val FROM A WHERE val >= 1 AND val < 4 ORDER BY val LIMIT 3":       "access=index-only(a_val)[1,4) order=index limit=3",
		"SELECT val FROM ONLY B WHERE NOT (val = null) AND val != 3 ORDER BY val": "access=index-only(a_val)(-inf,+inf) order=index",
		"SELECT val FROM A WHERE val > 1 ORDER BY val DESC":                       "access=index-range(a_val)(1,+inf) order=sort",
		"SELECT val FROM A WHERE val != 3 ORDER BY val":                           "access=heap-scan", // null != 3 holds
		"SELECT val FROM A WHERE val > 1":                                         "access=index-range(a_val)(1,+inf) residual",
		"SELECT val, tag FROM A WHERE val > 1 ORDER BY val":                       "access=index-range(a_val)(1,+inf) order=index",
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
	for _, want := range []string{"index-agg a_val", "keys_walked=", "postings_folded=", "unkeyed_folded=", "aggregate rows_in=",
		"pieces=3", "subtrees_counted="} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "scan A") {
		t.Errorf("a folded statement scanned the heap:\n%s", out)
	}
	before := mIndexOnly.Value()
	out, err = w.fold.ExplainAnalyze(tx, "SELECT val FROM A WHERE val >= -2 AND val < 4 ORDER BY val LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"access=index-only(a_val)[-2,4)", "index-only a_val", "keys_walked=", "rows_matched=5", "limit_early_exit=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "probe a_val") || strings.Contains(out, "scan A") {
		t.Errorf("an index-only statement read records:\n%s", out)
	}
	if mIndexOnly.Value() != before+1 {
		t.Errorf("query_index_only_statements_total moved by %d, want 1", mIndexOnly.Value()-before)
	}
}
