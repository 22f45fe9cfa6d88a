package query

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/schema"
)

// shapeWorld is a schema in which a name denotes different attributes in
// different classes of one hierarchy (Kim §3.1, model 5), with an index on
// one of them:
//
//   - A (x Integer, tag) has the class-hierarchy index a_x. Under it, B
//     inherits x; E redefines it as another Integer (with its own SC index
//     e_x), S as a String, Dd as an Integer defaulting to 3; and F, whose
//     supers are (G, A), takes G's x String by conflict resolution.
//   - U (x Integer, tag) and its subclasses UE (x Integer) and UD (x
//     Integer, default 3) each have an SC index on their own x.
//   - V (m Co, tag) has the class-hierarchy index v_m_loc on m.loc, and
//     SubCo redefines Co's loc.
type shapeWorld struct {
	db    *core.DB
	eng   *Engine // plans as shipped
	scan  *Engine // ForceScan: the heap scan every answer is held to
	r     *rand.Rand
	x     map[model.ClassID]func() model.Value // draws a value of the class's x
	objs  []model.OID                          // the A and U instances
	cos   []model.OID                          // the Co and SubCo instances
	vs    []model.OID
	v, co model.ClassID
}

func newShapeWorld(t *testing.T) *shapeWorld {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	w := &shapeWorld{db: db, eng: NewEngine(db), scan: NewEngine(db), r: rand.New(rand.NewSource(46)),
		x: map[model.ClassID]func() model.Value{}}
	w.scan.ForceScan = true
	define := func(name string, supers []model.ClassID, attrs ...schema.AttrSpec) model.ClassID {
		cl, err := db.DefineClass(name, supers, attrs...)
		if err != nil {
			t.Fatal(err)
		}
		return cl.ID
	}
	integer := func(name string) schema.AttrSpec { return schema.AttrSpec{Name: name, Domain: schema.ClassInteger} }
	str := func(name string) schema.AttrSpec { return schema.AttrSpec{Name: name, Domain: schema.ClassString} }
	three := schema.AttrSpec{Name: "x", Domain: schema.ClassInteger, Default: model.Int(3)}
	ints := func() model.Value { return model.Int(int64(w.r.Intn(10) - 3)) }
	strs := func() model.Value { return model.String([]string{"a", "c", "s"}[w.r.Intn(3)]) }

	a := define("A", nil, integer("x"), str("tag"))
	b := define("B", []model.ClassID{a})
	e := define("E", []model.ClassID{a}, integer("x"))
	s := define("S", []model.ClassID{a}, str("x"))
	dd := define("Dd", []model.ClassID{a}, three)
	g := define("G", nil, str("x"))
	f := define("F", []model.ClassID{g, a})
	u := define("U", nil, integer("x"), str("tag"))
	ue := define("UE", []model.ClassID{u}, integer("x"))
	ud := define("UD", []model.ClassID{u}, three)
	classes := []model.ClassID{a, b, e, s, dd, f, u, ue, ud}
	for _, class := range classes {
		w.x[class] = ints
	}
	w.x[s], w.x[f] = strs, strs
	w.co = define("Co", nil, str("loc"))
	subCo := define("SubCo", []model.ClassID{w.co}, str("loc"))
	w.v = define("V", nil, schema.AttrSpec{Name: "m", Domain: w.co}, str("tag"))

	w.commit(t, func(tx *core.Tx) error {
		for _, class := range classes {
			for i := 0; i < 20; i++ {
				oid, err := tx.InsertClass(class, w.attrs(class))
				if err != nil {
					return err
				}
				w.objs = append(w.objs, oid)
			}
		}
		for _, class := range []model.ClassID{w.co, subCo} {
			for i := 0; i < 4; i++ {
				oid, err := tx.InsertClass(class, map[string]model.Value{"loc": w.loc()})
				if err != nil {
					return err
				}
				w.cos = append(w.cos, oid)
			}
		}
		for i := 0; i < 30; i++ {
			oid, err := tx.InsertClass(w.v, w.vAttrs())
			if err != nil {
				return err
			}
			w.vs = append(w.vs, oid)
		}
		return nil
	})
	for _, ix := range []struct {
		name      string
		class     model.ClassID
		path      []string
		hierarchy bool
	}{
		{"a_x", a, []string{"x"}, true}, {"e_x", e, []string{"x"}, false},
		{"u_x", u, []string{"x"}, false}, {"ue_x", ue, []string{"x"}, false}, {"ud_x", ud, []string{"x"}, false},
		{"v_m_loc", w.v, []string{"m", "loc"}, true},
	} {
		if err := db.CreateIndex(ix.name, ix.class, ix.path, ix.hierarchy); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func (w *shapeWorld) loc() model.Value { return model.String(string(rune('A' + w.r.Intn(5)))) }

// attrs draws an instance of class: x absent one time in five, else a
// value of the class's own x; tag is always "t".
func (w *shapeWorld) attrs(class model.ClassID) map[string]model.Value {
	m := map[string]model.Value{"tag": model.String("t")}
	if w.r.Intn(5) > 0 {
		m["x"] = w.x[class]()
	}
	return m
}

func (w *shapeWorld) vAttrs() map[string]model.Value {
	return map[string]model.Value{"tag": model.String("t"), "m": model.Ref(w.cos[w.r.Intn(len(w.cos))])}
}

// churn updates, deletes and inserts instances inside tx, re-pointing V's
// references and rewriting the locations they lead to.
func (w *shapeWorld) churn(tx *core.Tx, n int) error {
	for i := 0; i < n; i++ {
		oid := w.objs[w.r.Intn(len(w.objs))]
		var err error
		switch w.r.Intn(6) {
		case 0:
			err = tx.Update(oid, map[string]model.Value{"x": w.x[oid.Class()]()})
		case 1:
			err = tx.Delete(oid)
		case 2:
			oid, err = tx.InsertClass(oid.Class(), w.attrs(oid.Class()))
			w.objs = append(w.objs, oid)
		case 3:
			err = tx.Update(w.vs[w.r.Intn(len(w.vs))], w.vAttrs())
		case 4:
			err = tx.Update(w.cos[w.r.Intn(len(w.cos))], map[string]model.Value{"loc": w.loc()})
		default:
			oid, err = tx.InsertClass(w.v, w.vAttrs())
			w.vs = append(w.vs, oid)
		}
		if err != nil && !strings.Contains(err.Error(), "no such object") {
			return err
		}
	}
	return nil
}

func (w *shapeWorld) commit(t *testing.T, fn func(tx *core.Tx) error) {
	t.Helper()
	if err := w.db.Do(fn); err != nil {
		t.Fatal(err)
	}
}

// shapeStatements takes every access path over every scope: equality and
// range probes, an ordered probe with LIMIT, folded aggregates and
// index-only rows, over the hierarchies with a redefinition and below
// them; then the nested path whose interior class is redefined.
func shapeStatements() []string {
	var out []string
	for _, from := range []string{"A", "ONLY A", "B", "E", "S", "Dd", "F", "U", "ONLY U", "UE", "UD"} {
		for _, stmt := range []string{
			"SELECT x FROM %s WHERE x = 3",
			"SELECT x, tag FROM %s WHERE x = 4",
			"SELECT x, tag FROM %s WHERE x >= 1 AND x < 4",
			"SELECT x, tag FROM %s WHERE x > 0 ORDER BY x LIMIT 5",
			"SELECT COUNT(*), COUNT(x), MIN(x), MAX(x) FROM %s WHERE x >= 0",
			"SELECT COUNT(*), SUM(x) FROM %s WHERE x = 3",
			"SELECT COUNT(*) FROM %s",
			"SELECT COUNT(*) FROM %s WHERE x = 's'",
			"SELECT x FROM %s WHERE x >= 1 AND x != 2 ORDER BY x",
			"SELECT x FROM %s WHERE x > -2 ORDER BY x LIMIT 4",
		} {
			out = append(out, fmt.Sprintf(stmt, from))
		}
	}
	return append(out,
		"SELECT COUNT(*) FROM V WHERE m.loc = 'D'",
		"SELECT m.loc, tag FROM V WHERE m.loc >= 'C'",
		"SELECT tag FROM V WHERE m.loc = 'B' AND tag = 't'")
}

// shapeRows renders a result's rows with each value's kind. Without order
// they are sorted and carry the OID; in order (ORDER BY with LIMIT, whose
// ties may fall either way) they carry only the values.
func shapeRows(res *Result, inOrder bool) string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		var sb strings.Builder
		if !inOrder {
			sb.WriteString(r.OID.String())
		}
		for _, v := range r.Values {
			fmt.Fprintf(&sb, " %s:%s", v.Kind(), v)
		}
		out[i] = sb.String()
	}
	if !inOrder {
		sort.Strings(out)
	}
	return strings.Join(out, "; ")
}

// same runs each statement through the shipped engine and the heap scan in
// tx and requires the same answer: the same rows, and for ORDER BY the same
// values in the same order.
func (w *shapeWorld) same(t *testing.T, tx *core.Tx, stmts []string) {
	t.Helper()
	for _, src := range stmts {
		got, gerr := w.eng.Run(tx, src)
		want, werr := w.scan.Run(tx, src)
		if gerr != nil || werr != nil {
			if (gerr == nil) != (werr == nil) {
				t.Errorf("%s: %v, heap scan %v", src, gerr, werr)
			}
			continue
		}
		ordered := strings.Contains(src, "ORDER BY")
		limited := strings.Contains(src, "LIMIT")
		if g, s := shapeRows(got, ordered), shapeRows(want, ordered); g != s {
			t.Errorf("%s:\n  %d rows %s\n  heap scan %d rows %s", src, len(got.Rows), g, len(want.Rows), s)
		} else if ordered && !limited && shapeRows(got, false) != shapeRows(want, false) {
			t.Errorf("%s: the rows differ from the heap scan's", src)
		}
	}
}

// TestSchemaShapesDifferential holds every access path to the heap scan
// over a schema where one name denotes different attributes in one
// hierarchy, in four transaction modes: locked, beside the transaction's
// own uncommitted writes, in a quiet snapshot and in a snapshot with an
// overlay. An index on one attribute answers only a scope whose every class
// reads that attribute; a union of SC indexes answers when each class has
// one on its own attribute.
func TestSchemaShapesDifferential(t *testing.T) {
	w := newShapeWorld(t)
	w.commit(t, func(tx *core.Tx) error { return w.churn(tx, 60) })
	stmts := shapeStatements()

	t.Run("plans", func(t *testing.T) {
		for src, want := range map[string]string{
			// a_x keys A's x: a scope with E, S, Dd or F in it reads others.
			"SELECT COUNT(*) FROM A WHERE x = 3":             "access=heap-scan",
			"SELECT x FROM A WHERE x >= 3 ORDER BY x":        "access=heap-scan",
			"SELECT COUNT(*) FROM F WHERE x = 's'":           "access=heap-scan",
			"SELECT x, tag FROM ONLY A WHERE x = 3":          "access=index-eq(a_x)[3,3]",
			"SELECT COUNT(*) FROM ONLY A WHERE x >= 0":       "access=index-agg(a_x)[0,+inf)",
			"SELECT x FROM ONLY A WHERE x > 0 ORDER BY x":    "access=index-only(a_x)(0,+inf) order=index",
			"SELECT x, tag FROM B WHERE x >= 1 AND x < 4":    "access=index-range(a_x)[1,4)",
			"SELECT x, tag FROM E WHERE x = 3":               "access=index-eq(e_x)[3,3]",
			"SELECT x, tag FROM U WHERE x = 4":               "access=index-union-eq(3 indexes)[4,4]",
			"SELECT x, tag FROM U WHERE x = 3":               "access=heap-scan", // UD's absent x reads 3
			"SELECT x, tag FROM U WHERE x > 4 ORDER BY x":    "access=index-union-range(3 indexes)(4,+inf) order=sort",
			"SELECT COUNT(*) FROM U WHERE x = 4":             "access=index-union-eq(3 indexes)[4,4]",
			"SELECT x, tag FROM UE WHERE x = 3":              "access=index-eq(ue_x)[3,3]",
			"SELECT COUNT(*) FROM V WHERE m.loc = 'D'":       "access=heap-scan", // SubCo's loc is another attribute
			"SELECT x, tag FROM ONLY A WHERE x >= 1 LIMIT 2": "access=index-range(a_x)[1,+inf) limit=2",
		} {
			if plan, err := w.eng.Explain(src); err != nil || !strings.Contains(plan, want) {
				t.Errorf("EXPLAIN %s = %q, %v; want %q", src, plan, err, want)
			}
		}
	})

	t.Run("locked", func(t *testing.T) {
		tx := w.db.Begin()
		defer tx.Commit()
		w.same(t, tx, stmts)
	})

	t.Run("own uncommitted writes", func(t *testing.T) {
		tx := w.db.Begin()
		defer tx.Abort()
		if err := w.churn(tx, 40); err != nil {
			t.Fatal(err)
		}
		w.same(t, tx, stmts)
	})

	t.Run("quiet snapshot", func(t *testing.T) {
		snap := w.db.BeginSnapshot()
		defer snap.Commit()
		w.same(t, snap, stmts)
	})

	t.Run("snapshot with an overlay", func(t *testing.T) {
		snap := w.db.BeginSnapshot()
		defer snap.Commit()
		w.commit(t, func(tx *core.Tx) error { return w.churn(tx, 40) })
		w.same(t, snap, stmts)
	})
}
