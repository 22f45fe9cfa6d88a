package query

import (
	"strings"
	"testing"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/schema"
)

// selDB builds one class P{n Integer} with a hierarchy index on n, holding
// total rows whose n values cycle 0..distinct-1.
func selDB(t *testing.T, total, distinct int) (*core.DB, *Engine, *schema.Class) {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	cl, err := db.DefineClass("P", nil, schema.AttrSpec{Name: "n", Domain: schema.ClassInteger})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("p_n", cl.ID, []string{"n"}, true); err != nil {
		t.Fatal(err)
	}
	if err := db.Do(func(tx *core.Tx) error {
		for i := 0; i < total; i++ {
			if _, err := tx.InsertClass(cl.ID, map[string]model.Value{
				"n": model.Int(int64(i % distinct))}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return db, NewEngine(db), cl
}

// analyze collects statistics for every class in the scope.
func analyze(t *testing.T, db *core.DB, classes ...model.ClassID) {
	t.Helper()
	for _, c := range classes {
		if _, err := db.AnalyzeClass(c); err != nil {
			t.Fatal(err)
		}
	}
}

func mustPlan(t *testing.T, e *Engine, src string) *Plan {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.PlanQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSelectivitySelectivePredicateProbesIndex: with statistics, a
// predicate matching ~1 of 1000 rows keeps the index and carries a
// cardinality estimate on the plan.
func TestSelectivitySelectivePredicateProbesIndex(t *testing.T) {
	_, eng, _ := selDB(t, 1000, 1000)
	src := `SELECT * FROM P WHERE n = 5`

	before := mustPlan(t, eng, src)
	if !before.IndexUsed() || before.HasEst {
		t.Fatalf("pre-stats plan = %s (want heuristic index, no estimate)", before)
	}

	analyze(t, eng.db, before.Scope...)
	after := mustPlan(t, eng, src)
	if !after.IndexUsed() {
		t.Fatalf("selective predicate lost the index: %s", after)
	}
	if !after.HasEst || after.EstRows < 0.5 || after.EstRows > 2 {
		t.Fatalf("est rows = %.2f (HasEst=%v), want ~1", after.EstRows, after.HasEst)
	}
	if !strings.Contains(after.String(), "est_rows=") {
		t.Fatalf("plan string missing estimate: %s", after)
	}
}

// TestSelectivityUnselectivePredicateKeepsScan: the same query shape over
// a 2-distinct-value attribute estimates half the class per probe; the
// cost model must reject the index the heuristic would have taken.
func TestSelectivityUnselectivePredicateKeepsScan(t *testing.T) {
	_, eng, _ := selDB(t, 1000, 2)
	src := `SELECT * FROM P WHERE n = 1`

	before := mustPlan(t, eng, src)
	if !before.IndexUsed() {
		t.Fatalf("heuristic plan should probe the index: %s", before)
	}

	analyze(t, eng.db, before.Scope...)
	after := mustPlan(t, eng, src)
	if after.IndexUsed() {
		t.Fatalf("cost model kept the index for a half-the-class predicate: %s", after)
	}
	if !after.HasEst || after.EstRows < 400 || after.EstRows > 600 {
		t.Fatalf("est rows = %.2f, want ~500", after.EstRows)
	}
	// The plans agree on the result either way — stats steer cost only.
	tx := eng.db.Begin()
	defer tx.Commit()
	res, err := eng.Run(tx, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 500 {
		t.Fatalf("scan plan returned %d rows, want 500", len(res.Rows))
	}
}

// TestSelectivityRangeInterpolation: a range predicate interpolates
// against the observed min/max instead of using the flat default.
func TestSelectivityRangeInterpolation(t *testing.T) {
	_, eng, _ := selDB(t, 1000, 1000)
	analyze(t, eng.db, mustPlan(t, eng, `SELECT * FROM P`).Scope...)

	p := mustPlan(t, eng, `SELECT * FROM P WHERE n >= 900`)
	if !p.HasEst || p.EstRows < 80 || p.EstRows > 120 {
		t.Fatalf("est rows for n >= 900 over 0..999 = %.1f, want ~100", p.EstRows)
	}
	if !p.IndexUsed() {
		t.Fatalf("selective range predicate should use the index: %s", p)
	}
	wide := mustPlan(t, eng, `SELECT * FROM P WHERE n >= 100`)
	if wide.IndexUsed() {
		t.Fatalf("90%%-of-class range predicate should scan: %s", wide)
	}
	if wide.EstRows < 800 || wide.EstRows > 1000 {
		t.Fatalf("est rows for n >= 100 = %.1f, want ~900", wide.EstRows)
	}
}

// TestSelectivityCountsDefaultReaders: instances that store no value read
// the attribute's default, so a sarg the default satisfies matches them
// too. C{x Integer, default 7} holds 100 instances, 50 of which store
// x = 1..50.
func TestSelectivityCountsDefaultReaders(t *testing.T) {
	db, err := core.Open(t.TempDir(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	cl, err := db.DefineClass("C", nil, schema.AttrSpec{Name: "x", Domain: schema.ClassInteger, Default: model.Int(7)})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Do(func(tx *core.Tx) error {
		for i := 1; i <= 100; i++ {
			attrs := map[string]model.Value{}
			if i <= 50 {
				attrs["x"] = model.Int(int64(i))
			}
			if _, err := tx.InsertClass(cl.ID, attrs); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	analyze(t, db, cl.ID)
	eng := NewEngine(db)
	for _, tc := range []struct {
		where string
		rows  int
	}{
		{"x = 7", 51},
		{"x > 5", 95},
		{"x > 7", 43},
		{"x >= 5 AND x <= 10", 56},
		{"x > 60", 0},
	} {
		src := `SELECT * FROM C WHERE ` + tc.where
		p := mustPlan(t, eng, src)
		tx := db.Begin()
		res, err := eng.Run(tx, src)
		tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != tc.rows {
			t.Fatalf("%s: %d rows, want %d", tc.where, len(res.Rows), tc.rows)
		}
		if want := float64(tc.rows); !p.HasEst || p.EstRows < 0.8*want || p.EstRows > 1.2*want {
			t.Errorf("%s: est_rows=%.1f (HasEst=%v), want %d ± 20%%", tc.where, p.EstRows, p.HasEst, tc.rows)
		}
	}
}

// TestSelectivityExplainAnalyzeShowsEstimate: EXPLAIN ANALYZE renders the
// estimate next to the actual row count — the at-a-glance staleness check.
func TestSelectivityExplainAnalyzeShowsEstimate(t *testing.T) {
	_, eng, _ := selDB(t, 1000, 1000)
	analyze(t, eng.db, mustPlan(t, eng, `SELECT * FROM P`).Scope...)

	tx := eng.db.Begin()
	defer tx.Commit()
	out, err := eng.ExplainAnalyze(tx, `SELECT * FROM P WHERE n = 5`)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"access=index-eq(p_n)", "est_rows=1.0", "rows=1 est=1.0"} {
		if !strings.Contains(out, w) {
			t.Fatalf("ExplainAnalyze output missing %q:\n%s", w, out)
		}
	}
}

// TestSelectivityScopeReorderUnderLimit: a hierarchy scan with LIMIT and
// no ORDER BY visits the classes expected to match most first.
func TestSelectivityScopeReorderUnderLimit(t *testing.T) {
	db, err := core.Open(t.TempDir(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	base, err := db.DefineClass("Base", nil, schema.AttrSpec{Name: "n", Domain: schema.ClassInteger})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := db.DefineClass("Sub", []model.ClassID{base.ID})
	if err != nil {
		t.Fatal(err)
	}
	// The subclass holds every match; the base class holds none.
	if err := db.Do(func(tx *core.Tx) error {
		for i := 0; i < 50; i++ {
			if _, err := tx.InsertClass(base.ID, map[string]model.Value{"n": model.Int(-1)}); err != nil {
				return err
			}
			if _, err := tx.InsertClass(sub.ID, map[string]model.Value{"n": model.Int(int64(i))}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(db)
	analyze(t, db, base.ID, sub.ID)

	p := mustPlan(t, eng, `SELECT * FROM Base WHERE n >= 0 LIMIT 5`)
	if p.kind != accessScan {
		t.Fatalf("expected a heap scan, got %s", p)
	}
	if p.Scope[0] != sub.ID {
		t.Fatalf("scope order %v, want the all-matching subclass %d first", p.Scope, sub.ID)
	}
	// Without LIMIT the declared order is preserved.
	p2 := mustPlan(t, eng, `SELECT * FROM Base WHERE n >= 0`)
	if p2.Scope[0] != base.ID {
		t.Fatalf("scope reordered without LIMIT: %v", p2.Scope)
	}
}

// TestSelectivityAdvisoryOnly: partial statistics coverage disables the
// estimator entirely — plans are identical to the no-stats baseline.
func TestSelectivityAdvisoryOnly(t *testing.T) {
	db, err := core.Open(t.TempDir(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	base, _ := db.DefineClass("Base", nil, schema.AttrSpec{Name: "n", Domain: schema.ClassInteger})
	sub, _ := db.DefineClass("Sub", []model.ClassID{base.ID})
	if err := db.Do(func(tx *core.Tx) error {
		for i := 0; i < 20; i++ {
			if _, err := tx.InsertClass(sub.ID, map[string]model.Value{"n": model.Int(int64(i))}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(db)
	baseline := mustPlan(t, eng, `SELECT * FROM Base WHERE n = 3`).String()

	analyze(t, db, sub.ID) // Base left unanalyzed: partial coverage
	partial := mustPlan(t, eng, `SELECT * FROM Base WHERE n = 3`)
	if partial.HasEst {
		t.Fatal("estimator active with partial scope coverage")
	}
	if got := partial.String(); got != baseline {
		t.Fatalf("partial statistics changed the plan:\n  before: %s\n  after:  %s", baseline, got)
	}
}
