package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/schema"
)

// qcWorld is shaped for the compiler's differential check: a Base class
// with two subclasses whose objects leave attributes out (class defaults,
// among them one added after they were written), carry set-valued
// attributes, and reference Targets directly and through sets, some of
// them deleted (dangling); a method `boom` fails on every third object and
// `dbl` never does. Integers and floats straddle 2^53, where an int64 and
// its float64 image part ways.
type qcWorld struct {
	db   *core.DB
	lits []model.Value
}

const big = int64(1) << 53

func newQCWorld(t *testing.T) *qcWorld {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	target, err := db.DefineClass("Target", nil,
		schema.AttrSpec{Name: "w", Domain: schema.ClassInteger},
		schema.AttrSpec{Name: "name", Domain: schema.ClassString})
	if err != nil {
		t.Fatal(err)
	}
	base, err := db.DefineClass("Base", nil,
		schema.AttrSpec{Name: "i", Domain: schema.ClassInteger},
		schema.AttrSpec{Name: "f", Domain: schema.ClassFloat},
		schema.AttrSpec{Name: "s", Domain: schema.ClassString},
		schema.AttrSpec{Name: "b", Domain: schema.ClassBoolean},
		schema.AttrSpec{Name: "tags", Domain: schema.ClassString, SetValued: true},
		schema.AttrSpec{Name: "nums", Domain: schema.ClassInteger, SetValued: true},
		schema.AttrSpec{Name: "ref", Domain: target.ID},
		schema.AttrSpec{Name: "refs", Domain: target.ID, SetValued: true})
	if err != nil {
		t.Fatal(err)
	}
	classes := []model.ClassID{base.ID}
	for _, name := range []string{"Sub1", "Sub2"} {
		sub, err := db.DefineClass(name, []model.ClassID{base.ID})
		if err != nil {
			t.Fatal(err)
		}
		classes = append(classes, sub.ID)
	}
	if err := db.AddMethod(base.ID, "boom", func(_ schema.MethodEngine, recv *model.Object, _ []model.Value) (model.Value, error) {
		v, _ := db.AttrValue(recv, "i")
		if n, _ := v.AsInt(); n%3 == 0 {
			return model.Null, fmt.Errorf("boom on %s", recv.OID)
		}
		return v, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddMethod(base.ID, "dbl", func(_ schema.MethodEngine, recv *model.Object, _ []model.Value) (model.Value, error) {
		v, _ := db.AttrValue(recv, "i")
		n, _ := v.AsInt()
		return model.Int(2 * n), nil
	}); err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(31))
	ints := []int64{0, 1, 2, 3, 4, -3, 100, big, big + 1, -big - 1}
	floats := []float64{0, 2.5, -0.5, float64(big), float64(big) + 2}
	strs := []string{"", "a", "b", "red", "blue"}
	var live, dead []model.OID
	var objs []model.OID
	err = db.Do(func(tx *core.Tx) error {
		for i := 0; i < 6; i++ {
			oid, err := tx.InsertClass(target.ID, map[string]model.Value{
				"w": model.Int(int64(i)), "name": model.String(strs[i%len(strs)])})
			if err != nil {
				return err
			}
			if i%3 == 2 {
				dead = append(dead, oid)
			} else {
				live = append(live, oid)
			}
		}
		targets := append(append([]model.OID(nil), live...), dead...)
		for _, c := range classes {
			for n := 0; n < 14; n++ {
				attrs := map[string]model.Value{}
				maybe := func(name string, v model.Value) {
					if r.Intn(4) > 0 { // a quarter of the attributes are left out
						attrs[name] = v
					}
				}
				maybe("i", model.Int(ints[r.Intn(len(ints))]))
				maybe("f", model.Float(floats[r.Intn(len(floats))]))
				maybe("s", model.String(strs[r.Intn(len(strs))]))
				maybe("b", model.Bool(r.Intn(2) == 0))
				maybe("tags", model.Set(model.String(strs[r.Intn(len(strs))]), model.String(strs[r.Intn(len(strs))])))
				maybe("nums", model.Set(model.Int(ints[r.Intn(len(ints))]), model.Int(ints[r.Intn(len(ints))])))
				maybe("ref", model.Ref(targets[r.Intn(len(targets))]))
				maybe("refs", model.Set(model.Ref(targets[r.Intn(len(targets))]), model.Ref(targets[r.Intn(len(targets))])))
				oid, err := tx.InsertClass(c, attrs)
				if err != nil {
					return err
				}
				objs = append(objs, oid)
			}
		}
		for _, oid := range dead {
			if err := tx.Delete(oid); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddAttribute(base.ID, schema.AttrSpec{Name: "extra", Domain: schema.ClassInteger, Default: model.Int(7)}); err != nil {
		t.Fatal(err)
	}
	err = db.Do(func(tx *core.Tx) error {
		for i := 0; i < len(objs); i += 3 {
			if err := tx.Update(objs[i], map[string]model.Value{"extra": model.Int(int64(i % 9))}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	w := &qcWorld{db: db, lits: []model.Value{model.Null, model.Bool(true), model.Bool(false),
		model.Ref(live[0]), model.Ref(dead[0]), model.Bytes([]byte("a")),
		model.Set(model.String("red"), model.String("blue")), model.Set()}}
	for _, i := range ints { // twice: most comparisons meet an integer
		w.lits = append(w.lits, model.Int(i), model.Int(i))
	}
	for _, f := range floats {
		w.lits = append(w.lits, model.Float(f))
	}
	for _, s := range strs[1:] {
		w.lits = append(w.lits, model.String(s))
	}
	return w
}

// qcPaths are the paths a generated predicate reads: stored attributes,
// sets, a class default, methods (one that fails), references direct and
// through sets, and a step no class has.
var qcPaths = []string{"i", "f", "s", "b", "tags", "nums", "ref", "refs", "extra",
	"boom", "dbl", "ref.w", "ref.name", "refs.w", "refs.name", "nosuch", "ref.nosuch"}

type exprGen struct {
	r    *rand.Rand
	lits []model.Value
}

func (g *exprGen) path() Expr {
	return &PathExpr{Path: Path{Steps: strings.Split(qcPaths[g.r.Intn(len(qcPaths))], ".")}}
}

func (g *exprGen) lit() model.Value { return g.lits[g.r.Intn(len(g.lits))] }

func (g *exprGen) operand() Expr {
	if g.r.Intn(10) < 7 {
		return g.path()
	}
	return &Lit{V: g.lit()}
}

func (g *exprGen) expr(depth int) Expr {
	if depth > 0 {
		switch g.r.Intn(6) {
		case 0:
			return &Binary{Op: OpAnd, L: g.expr(depth - 1), R: g.expr(depth - 1)}
		case 1:
			return &Binary{Op: OpOr, L: g.expr(depth - 1), R: g.expr(depth - 1)}
		case 2:
			return &Not{E: g.expr(depth - 1)}
		}
	}
	switch g.r.Intn(9) {
	case 0:
		list := &List{}
		for n := 1 + g.r.Intn(3); n > 0; n-- {
			list.Items = append(list.Items, g.lit())
		}
		return &Binary{Op: OpIn, L: g.operand(), R: list}
	case 1:
		return &Binary{Op: OpContains, L: g.operand(), R: g.operand()}
	case 2:
		return g.operand()
	default:
		// Mostly the shape the planner sees most, path op literal.
		ops := []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
		l, r := g.operand(), Expr(&Lit{V: g.lit()})
		if g.r.Intn(4) == 0 {
			r = g.operand()
		}
		return &Binary{Op: ops[g.r.Intn(len(ops))], L: l, R: r}
	}
}

// TestProgramMatchesTreeWalker is the compiler's differential check:
// seeded WHERE trees — AND, OR, NOT, the six comparisons, IN, CONTAINS,
// bare paths and literals of every kind — run as a plain scan, a streamed
// aggregate and an aggregate over a failing method, and the executor's
// answer and error must equal the tree walker's (oracleRun), under a
// locked and a snapshot transaction, fanned out and one class at a time.
func TestProgramMatchesTreeWalker(t *testing.T) {
	w := newQCWorld(t)
	fanout, serial := NewEngine(w.db), NewEngine(w.db)
	serial.serialScan = true
	g := &exprGen{r: rand.New(rand.NewSource(53)), lits: w.lits}
	path := func(s string) *Path { return &Path{Steps: strings.Split(s, ".")} }
	shapes := []func(Expr) *Query{
		func(e Expr) *Query { return &Query{From: "Base", Where: e} },
		func(e Expr) *Query {
			return &Query{From: "Base", Where: e, Aggregates: []AggItem{{Func: AggCount},
				{Func: AggSum, Path: path("i")}, {Func: AggMin, Path: path("s")},
				{Func: AggMax, Path: path("refs.w")}, {Func: AggSum, Path: path("nums")}}}
		},
		func(e Expr) *Query {
			return &Query{From: "Base", Where: e, Aggregates: []AggItem{{Func: AggCount}, {Func: AggMax, Path: path("boom")}}}
		},
	}
	var errs, matched int
	for n := 0; n < 600; n++ {
		where := g.expr(3)
		for _, mode := range []string{"locked", "snapshot"} {
			tx := w.db.Begin()
			if mode == "snapshot" {
				tx.Commit()
				tx = w.db.BeginSnapshot()
			}
			for _, shape := range shapes {
				q := shape(where)
				want, werr := oracleRun(fanout, tx, q)
				if werr != nil {
					errs++
				} else if len(q.Aggregates) == 0 {
					matched += len(want)
				}
				for name, eng := range map[string]*Engine{"fan-out": fanout, "serial": serial} {
					var got [][]string
					plan, err := eng.PlanQuery(q)
					if err == nil {
						var res *Result
						if res, err = eng.Execute(tx, plan); err == nil {
							got = flatten(res)
						}
					}
					if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s: %s\ncompiled:    %v %v\ntree walker: %v %v", mode, name, q, got, err, want, werr)
					}
				}
			}
			tx.Commit()
		}
	}
	// The generator must reach both outcomes often, or the check is idle.
	if errs < 100 || matched < 1000 {
		t.Fatalf("weak generator: %d errors, %d matched rows", errs, matched)
	}
	t.Logf("%d statement runs failed alike, %d rows matched alike", errs, matched)
}
