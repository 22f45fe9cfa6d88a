package rules

import (
	"errors"
	"testing"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/schema"
)

func s(v string) model.Value { return model.String(v) }

func TestEDBPassThrough(t *testing.T) {
	edb := MapEDB{
		"parent": {{s("a"), s("b")}, {s("b"), s("c")}},
	}
	e := NewEngine(edb)
	facts, err := e.Infer("parent")
	if err != nil {
		t.Fatal(err)
	}
	if len(facts) != 2 {
		t.Fatalf("facts = %v", facts)
	}
	if _, err := e.Infer("nope"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("expected ErrUnknown, got %v", err)
	}
}

func TestSimpleDerivation(t *testing.T) {
	edb := MapEDB{
		"parent": {{s("a"), s("b")}, {s("b"), s("c")}, {s("x"), s("y")}},
	}
	e := NewEngine(edb)
	// grandparent(X,Z) :- parent(X,Y), parent(Y,Z).
	if err := e.AddRule(Rule{
		Head: A("grandparent", V("X"), V("Z")),
		Body: []Atom{A("parent", V("X"), V("Y")), A("parent", V("Y"), V("Z"))},
	}); err != nil {
		t.Fatal(err)
	}
	facts, err := e.Infer("grandparent")
	if err != nil {
		t.Fatal(err)
	}
	if len(facts) != 1 {
		t.Fatalf("facts = %v", facts)
	}
	if a, _ := facts[0][0].AsString(); a != "a" {
		t.Errorf("grandparent = %v", facts[0])
	}
}

func TestRecursionTransitiveClosure(t *testing.T) {
	// A chain a->b->c->d->e; ancestor must contain all 10 pairs.
	edb := MapEDB{"parent": {
		{s("a"), s("b")}, {s("b"), s("c")}, {s("c"), s("d")}, {s("d"), s("e")},
	}}
	e := NewEngine(edb)
	e.AddRule(Rule{
		Head: A("ancestor", V("X"), V("Y")),
		Body: []Atom{A("parent", V("X"), V("Y"))},
	})
	e.AddRule(Rule{
		Head: A("ancestor", V("X"), V("Z")),
		Body: []Atom{A("ancestor", V("X"), V("Y")), A("parent", V("Y"), V("Z"))},
	})
	facts, err := e.Infer("ancestor")
	if err != nil {
		t.Fatal(err)
	}
	if len(facts) != 10 {
		t.Fatalf("ancestor has %d facts, want 10", len(facts))
	}
}

func TestRecursionWithCycleTerminates(t *testing.T) {
	edb := MapEDB{"edge": {
		{s("a"), s("b")}, {s("b"), s("c")}, {s("c"), s("a")},
	}}
	e := NewEngine(edb)
	e.AddRule(Rule{Head: A("reach", V("X"), V("Y")), Body: []Atom{A("edge", V("X"), V("Y"))}})
	e.AddRule(Rule{
		Head: A("reach", V("X"), V("Z")),
		Body: []Atom{A("reach", V("X"), V("Y")), A("edge", V("Y"), V("Z"))},
	})
	facts, err := e.Infer("reach")
	if err != nil {
		t.Fatal(err)
	}
	// 3 nodes fully connected through the cycle: 9 pairs.
	if len(facts) != 9 {
		t.Fatalf("reach has %d facts, want 9", len(facts))
	}
}

func TestQueryWithConstants(t *testing.T) {
	edb := MapEDB{"parent": {
		{s("a"), s("b")}, {s("b"), s("c")}, {s("a"), s("d")},
	}}
	e := NewEngine(edb)
	e.AddRule(Rule{Head: A("anc", V("X"), V("Y")), Body: []Atom{A("parent", V("X"), V("Y"))}})
	e.AddRule(Rule{
		Head: A("anc", V("X"), V("Z")),
		Body: []Atom{A("anc", V("X"), V("Y")), A("parent", V("Y"), V("Z"))},
	})
	// Who are a's descendants?
	sols, err := e.Query(A("anc", C(s("a")), V("D")))
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 3 { // b, c, d
		t.Fatalf("solutions = %v", sols)
	}
	// Is (a, c) derivable? Ground query: one empty-binding solution.
	sols, _ = e.Query(A("anc", C(s("a")), C(s("c"))))
	if len(sols) != 1 {
		t.Fatalf("ground query = %v", sols)
	}
	sols, _ = e.Query(A("anc", C(s("c")), C(s("a"))))
	if len(sols) != 0 {
		t.Fatalf("false ground query = %v", sols)
	}
}

func TestUnsafeRuleRejected(t *testing.T) {
	e := NewEngine(MapEDB{})
	err := e.AddRule(Rule{
		Head: A("p", V("X"), V("Y")),
		Body: []Atom{A("q", V("X"))},
	})
	if !errors.Is(err, ErrUnsafeRule) {
		t.Fatalf("expected ErrUnsafeRule, got %v", err)
	}
}

func TestConstantsInRuleBody(t *testing.T) {
	edb := MapEDB{"weight": {
		{s("t1"), model.Int(9000)}, {s("t2"), model.Int(100)},
	}}
	e := NewEngine(edb)
	// heavy(X) :- weight(X, 9000).
	e.AddRule(Rule{
		Head: A("heavy", V("X")),
		Body: []Atom{A("weight", V("X"), C(model.Int(9000)))},
	})
	facts, err := e.Infer("heavy")
	if err != nil {
		t.Fatal(err)
	}
	if len(facts) != 1 {
		t.Fatalf("heavy = %v", facts)
	}
	if id, _ := facts[0][0].AsString(); id != "t1" {
		t.Errorf("heavy = %v", facts[0])
	}
}

func TestUnknownBodyPredicate(t *testing.T) {
	e := NewEngine(MapEDB{})
	e.AddRule(Rule{Head: A("p", V("X")), Body: []Atom{A("mystery", V("X"))}})
	if _, err := e.Infer("p"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("expected ErrUnknown, got %v", err)
	}
}

// failingEDB knows every predicate and fails after one fact.
type failingEDB struct{ err error }

func (f failingEDB) Facts(_ string, fn func(args []model.Value)) (bool, error) {
	fn([]model.Value{s("a"), s("b")})
	return true, f.err
}

// TestEDBErrorIsReturned: an EDB that cannot read all of a predicate's
// facts fails Infer and Query, whether the predicate is the goal or a body
// atom — the facts it did deliver are not an answer.
func TestEDBErrorIsReturned(t *testing.T) {
	boom := errors.New("edb: read failed")
	e := NewEngine(failingEDB{boom})
	e.AddRule(Rule{Head: A("anc", V("X"), V("Y")), Body: []Atom{A("parent", V("X"), V("Y"))}})
	for _, goal := range []string{"parent", "anc"} {
		if _, err := e.Infer(goal); !errors.Is(err, boom) {
			t.Errorf("Infer(%s) = %v, want the EDB's error", goal, err)
		}
		if _, err := e.Query(A(goal, V("X"), V("Y"))); !errors.Is(err, boom) {
			t.Errorf("Query(%s) = %v, want the EDB's error", goal, err)
		}
	}
}

// TestObjectEDB runs the deductive layer over a real database: the
// "deductive object-oriented database" of §5.4.
func TestObjectEDB(t *testing.T) {
	db, err := core.Open(t.TempDir(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	emp, _ := db.DefineClass("Employee", nil,
		schema.AttrSpec{Name: "name", Domain: schema.ClassString})
	db.AddAttribute(emp.ID, schema.AttrSpec{Name: "boss", Domain: emp.ID})
	mgr, _ := db.DefineClass("Manager", []model.ClassID{emp.ID})

	var alice, bob, carol model.OID
	db.Do(func(tx *core.Tx) error {
		alice, _ = tx.InsertClass(mgr.ID, map[string]model.Value{"name": s("alice")})
		bob, _ = tx.InsertClass(emp.ID, map[string]model.Value{
			"name": s("bob"), "boss": model.Ref(alice)})
		carol, _ = tx.InsertClass(emp.ID, map[string]model.Value{
			"name": s("carol"), "boss": model.Ref(bob)})
		return nil
	})

	edb := NewObjectEDB(db)
	if err := edb.MapClass("employee", "Employee"); err != nil {
		t.Fatal(err)
	}
	if err := edb.MapAttr("boss", "Employee", "boss"); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(edb)
	// Class extents have hierarchy semantics: the Manager instance is an
	// employee too.
	facts, err := e.Infer("employee")
	if err != nil {
		t.Fatal(err)
	}
	if len(facts) != 3 {
		t.Fatalf("employee extent = %d, want 3", len(facts))
	}
	// chain(X,Y): X reports (transitively) to Y.
	e.AddRule(Rule{Head: A("chain", V("X"), V("Y")), Body: []Atom{A("boss", V("X"), V("Y"))}})
	e.AddRule(Rule{
		Head: A("chain", V("X"), V("Z")),
		Body: []Atom{A("chain", V("X"), V("Y")), A("boss", V("Y"), V("Z"))},
	})
	sols, err := e.Query(A("chain", C(model.Ref(carol)), V("Up")))
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 2 { // bob and alice
		t.Fatalf("carol's chain = %v", sols)
	}
	ups := map[model.OID]bool{}
	for _, env := range sols {
		oid, _ := env["Up"].AsRef()
		ups[oid] = true
	}
	if !ups[bob] || !ups[alice] {
		t.Fatalf("chain misses bob or alice: %v", ups)
	}
}

func TestObjectEDBSetValued(t *testing.T) {
	db, _ := core.Open(t.TempDir(), core.Options{})
	defer db.Close()
	doc, _ := db.DefineClass("Doc", nil,
		schema.AttrSpec{Name: "tags", Domain: schema.ClassString, SetValued: true})
	var oid model.OID
	db.Do(func(tx *core.Tx) error {
		var err error
		oid, err = tx.InsertClass(doc.ID, map[string]model.Value{
			"tags": model.Set(s("db"), s("oo"))})
		return err
	})
	_ = oid
	edb := NewObjectEDB(db)
	edb.MapAttr("tag", "Doc", "tags")
	e := NewEngine(edb)
	facts, err := e.Infer("tag")
	if err != nil {
		t.Fatal(err)
	}
	if len(facts) != 2 {
		t.Fatalf("set-valued attr produced %d facts, want 2", len(facts))
	}
}
