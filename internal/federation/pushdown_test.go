package federation

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/schema"
)

// scanOnly hides the QueryableSource extension of a source, forcing the
// federation through the per-entity Scan + evaluator path.
type scanOnly struct{ Source }

// encodeRows renders a federated result into the engine's canonical value
// encoding, row by row, so two results can be compared byte-identically.
func encodeRows(res *Result) []byte {
	var buf []byte
	for _, row := range res.Rows {
		for _, v := range row.Values {
			buf = model.AppendValue(buf, v)
		}
		buf = append(buf, '\n')
	}
	return buf
}

// TestPushdownDifferential pins the QueryableSource contract: for every
// eligible query shape, the pushed-down result is byte-identical to the
// Scan+evaluator path over the same data.
func TestPushdownDifferential(t *testing.T) {
	odb, err := core.Open(t.TempDir(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer odb.Close()
	dept, _ := odb.DefineClass("Dept", nil,
		schema.AttrSpec{Name: "city", Domain: schema.ClassString})
	emp, _ := odb.DefineClass("Emp", nil,
		schema.AttrSpec{Name: "name", Domain: schema.ClassString},
		schema.AttrSpec{Name: "salary", Domain: schema.ClassInteger},
		schema.AttrSpec{Name: "dept", Domain: dept.ID},
		schema.AttrSpec{Name: "grade", Domain: schema.ClassString, Default: model.String("junior")},
		schema.AttrSpec{Name: "tags", Domain: schema.ClassString, SetValued: true},
		schema.AttrSpec{Name: "depts", Domain: dept.ID, SetValued: true})
	odb.DefineClass("Manager", []model.ClassID{emp.ID},
		schema.AttrSpec{Name: "reports", Domain: schema.ClassInteger})
	// A method is a path step like any attribute.
	err = odb.AddMethod(emp.ID, "bonus", func(_ schema.MethodEngine, recv *model.Object, _ []model.Value) (model.Value, error) {
		v, _ := odb.AttrValue(recv, "salary")
		n, _ := v.AsInt()
		return model.Int(n / 10), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	tx := odb.Begin()
	cities := []string{"Austin", "Detroit", "Paris"}
	var depts []model.OID
	for _, c := range cities {
		d, err := tx.InsertClass(dept.ID, map[string]model.Value{"city": model.String(c)})
		if err != nil {
			t.Fatal(err)
		}
		depts = append(depts, d)
	}
	for i := 0; i < 40; i++ {
		attrs := map[string]model.Value{
			"name":   model.String(fmt.Sprintf("e%02d", i)),
			"salary": model.Int(int64(50 + i*7%100)),
		}
		if i%5 != 0 { // a few employees have no dept (null mid-path)
			attrs["dept"] = model.Ref(depts[i%len(depts)])
		}
		if i%3 == 0 {
			attrs["grade"] = model.String("senior")
		}
		switch i % 3 { // two members, a singleton, no tags at all
		case 0:
			attrs["tags"] = model.Set(model.String("x"), model.String("y"))
		case 1:
			attrs["tags"] = model.Set(model.String("z"))
		}
		if i%2 == 0 {
			attrs["depts"] = model.Set(model.Ref(depts[i%len(depts)]), model.Ref(depts[(i+1)%len(depts)]))
		}
		class := "Emp"
		if i%4 == 0 {
			class = "Manager"
			attrs["reports"] = model.Int(int64(i))
		}
		if _, err := tx.Insert(class, attrs); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	src := NewOOSource(odb)
	pushed := New()
	pushed.Register("oo", src)
	scanned := New()
	scanned.Register("oo", scanOnly{src})

	queries := []string{
		// Plain projection + predicate.
		`SELECT name, salary FROM Emp WHERE salary > 80 ORDER BY name`,
		// Nested path through a reference, null mid-path included.
		`SELECT name, dept.city FROM Emp WHERE dept.city = 'Austin' ORDER BY name`,
		// Default values visible through both paths.
		`SELECT name FROM Emp WHERE grade = 'junior' ORDER BY name`,
		// Hierarchy scope: Managers appear under Emp on both paths.
		`SELECT name FROM Emp WHERE salary >= 50 ORDER BY name DESC`,
		// LIMIT after ORDER BY.
		`SELECT name, salary FROM Emp ORDER BY name LIMIT 7`,
		// Compound predicate.
		`SELECT name FROM Emp WHERE salary > 60 AND grade = 'senior' ORDER BY name`,
		// Set-valued attribute: comparison and IN are existential, and a
		// projected singleton is its member.
		`SELECT name FROM Emp WHERE tags = 'x' ORDER BY name`,
		`SELECT name FROM Emp WHERE tags IN ('x', 'z') ORDER BY name`,
		`SELECT name, tags FROM Emp WHERE salary < 70 ORDER BY name`,
		// Set-valued reference: the path fans out through every member.
		`SELECT name FROM Emp WHERE depts.city = 'Paris' ORDER BY name`,
		`SELECT name, depts.city FROM Emp WHERE salary > 120 ORDER BY name`,
		// A method as a path step, in the predicate and the projection.
		`SELECT name, bonus FROM Emp WHERE bonus >= 12 ORDER BY name`,
		// IN compares numerically across integer and float literals.
		`SELECT name FROM Emp WHERE salary IN (57, 64.0, 71.5) ORDER BY name`,
		// Ties on the ORDER BY key with a LIMIT that cuts inside the tie:
		// the stable sort keeps scan order on both paths.
		`SELECT name, grade FROM Emp ORDER BY grade LIMIT 5`,
		`SELECT name, grade FROM Emp ORDER BY grade DESC LIMIT 20`,
	}
	for _, qsrc := range queries {
		rp, err := pushed.Query("oo", qsrc)
		if err != nil {
			t.Fatalf("pushdown %q: %v", qsrc, err)
		}
		rs, err := scanned.Query("oo", qsrc)
		if err != nil {
			t.Fatalf("scan %q: %v", qsrc, err)
		}
		if len(rp.Cols) != len(rs.Cols) {
			t.Fatalf("%q: cols %v vs %v", qsrc, rp.Cols, rs.Cols)
		}
		for i := range rp.Cols {
			if rp.Cols[i] != rs.Cols[i] {
				t.Fatalf("%q: cols %v vs %v", qsrc, rp.Cols, rs.Cols)
			}
		}
		bp, bs := encodeRows(rp), encodeRows(rs)
		if !bytes.Equal(bp, bs) {
			t.Errorf("%q: pushdown result differs from evaluator path\npushdown: %d rows\nscan:     %d rows",
				qsrc, len(rp.Rows), len(rs.Rows))
			continue
		}
		if len(rp.Rows) == 0 {
			t.Fatalf("%q: empty result proves nothing", qsrc)
		}
	}
}

// TestPushdownDecline pins the fallback: queries the engine would reject
// (unknown attribute) still succeed through the lenient evaluator path,
// so the pushdown is never a semantic fork.
func TestPushdownDecline(t *testing.T) {
	odb, err := core.Open(t.TempDir(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer odb.Close()
	cl, _ := odb.DefineClass("Thing", nil,
		schema.AttrSpec{Name: "n", Domain: schema.ClassInteger})
	tx := odb.Begin()
	if _, err := tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	f := New()
	f.Register("oo", NewOOSource(odb))
	// The engine errors on the unknown attribute; the federation must
	// fall back to the lenient path (0 rows, no error).
	res, err := f.Query("oo", `SELECT n FROM Thing WHERE mystery = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Entity-shaped results (no projection) never push down.
	res, err = f.Query("oo", `SELECT * FROM Thing`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 1 || res.Cols[0] != "entity" || len(res.Rows) != 1 || res.Rows[0].Entity == nil {
		t.Fatalf("entity result = %+v", res)
	}

	// Only the unknown attribute declines. Any other engine failure is the
	// query's failure — the fallback must not answer as if nothing happened.
	errBoom := errors.New("boom")
	err = odb.AddMethod(cl.ID, "boom", func(schema.MethodEngine, *model.Object, []model.Value) (model.Value, error) {
		return model.Null, errBoom
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Query("oo", `SELECT n FROM Thing WHERE boom = 1`); !errors.Is(err, errBoom) {
		t.Fatalf("failing method: err = %v, want %v", err, errBoom)
	}
}

// TestPushdownIndexOnlyEntity: a pushed-down statement the engine answers
// from an index alone returns rows with no object behind them; each row's
// entity must still read the object's other attributes, in the state the
// query read, not one committed after it.
func TestPushdownIndexOnlyEntity(t *testing.T) {
	odb, err := core.Open(t.TempDir(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer odb.Close()
	cl, _ := odb.DefineClass("Thing", nil,
		schema.AttrSpec{Name: "n", Domain: schema.ClassInteger},
		schema.AttrSpec{Name: "name", Domain: schema.ClassString})
	tx := odb.Begin()
	var oids []model.OID
	for i := 0; i < 5; i++ {
		attrs := map[string]model.Value{"n": model.Int(int64(i)), "name": model.String(fmt.Sprintf("t%d", i))}
		oid, err := tx.InsertClass(cl.ID, attrs)
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := odb.CreateIndex("thing_n", cl.ID, []string{"n"}, true); err != nil {
		t.Fatal(err)
	}
	const src = `SELECT n FROM Thing WHERE n > 1 ORDER BY n`
	src0 := NewOOSource(odb)
	if plan, err := src0.eng.Explain(src); err != nil || !strings.Contains(plan, "access=index-only(thing_n)") {
		t.Fatalf("plan = %q, %v; want an index-only plan", plan, err)
	}
	f := New()
	f.Register("oo", src0)
	res, err := f.Query("oo", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	// After the query, delete the first row's object and rename the others.
	tx = odb.Begin()
	if err := tx.Delete(oids[2]); err != nil {
		t.Fatal(err)
	}
	for _, oid := range oids[3:] {
		if err := tx.Update(oid, map[string]model.Value{"name": model.String("renamed")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for i, row := range res.Rows {
		if row.Entity == nil {
			t.Fatalf("row %d has no entity", i)
		}
		v, _ := row.Entity.Get([]string{"name"})
		if name, _ := v.AsString(); name != fmt.Sprintf("t%d", i+2) {
			t.Errorf("row %d: name = %s, want t%d", i, v, i+2)
		}
	}
}

// TestFallbackScanIsTransactional pins the Scan path's read transaction: an
// uncommitted in-place update is never visible to it, and a record that does
// not decode fails the query instead of silently shortening the answer.
func TestFallbackScanIsTransactional(t *testing.T) {
	odb, err := core.Open(t.TempDir(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer odb.Close()
	cl, _ := odb.DefineClass("Thing", nil,
		schema.AttrSpec{Name: "n", Domain: schema.ClassInteger})
	var oids []model.OID
	tx := odb.Begin()
	for i := 1; i <= 2; i++ {
		oid, err := tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	f := New()
	f.Register("oo", scanOnly{NewOOSource(odb)})

	// A writer holds an uncommitted update while the scan runs: the scan
	// waits for the class lock and reads the value the abort restored.
	writer := odb.Begin()
	if err := writer.Update(oids[0], map[string]model.Value{"n": model.Int(99)}); err != nil {
		t.Fatal(err)
	}
	type answer struct {
		res *Result
		err error
	}
	done := make(chan answer, 1)
	go func() {
		res, err := f.Query("oo", `SELECT n FROM Thing ORDER BY n`)
		done <- answer{res, err}
	}()
	var got answer
	select {
	case got = <-done: // an unlocked scan finishes at once, dirty value in hand
	case <-time.After(50 * time.Millisecond):
	}
	if err := writer.Abort(); err != nil {
		t.Fatal(err)
	}
	if got.res == nil && got.err == nil {
		got = <-done
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	if n, _ := got.res.Rows[0].Values[0].AsInt(); len(got.res.Rows) != 2 || n != 1 {
		t.Fatalf("scan saw an uncommitted update: %+v", got.res.Rows)
	}

	// A damaged record is a typed error on both paths, not a shorter answer.
	obj, err := odb.Fetch(oids[1])
	if err != nil {
		t.Fatal(err)
	}
	img := model.EncodeObject(obj)
	if err := odb.Store.Put(oids[1], img[:len(img)-1]); err != nil { // cut mid-value
		t.Fatal(err)
	}
	for name, src := range map[string]Source{"scan": scanOnly{NewOOSource(odb)}, "pushdown": NewOOSource(odb)} {
		f := New()
		f.Register("oo", src)
		if _, err := f.Query("oo", `SELECT n FROM Thing`); !errors.Is(err, model.ErrCorrupt) {
			t.Fatalf("%s over a damaged record: err = %v, want ErrCorrupt", name, err)
		}
	}
}
