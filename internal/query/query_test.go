package query

import (
	"strings"
	"testing"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/schema"
)

// figure1 builds the paper's Figure 1 database: the Vehicle and Company
// hierarchies with manufacturers in several cities.
type figure1 struct {
	db                       *core.DB
	eng                      *Engine
	gm, toyota, freightliner model.OID
}

func newFigure1(t *testing.T) *figure1 {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })

	company, _ := db.DefineClass("Company", nil,
		schema.AttrSpec{Name: "name", Domain: schema.ClassString},
		schema.AttrSpec{Name: "location", Domain: schema.ClassString})
	autoCo, _ := db.DefineClass("AutoCompany", []model.ClassID{company.ID})
	db.DefineClass("TruckCompany", []model.ClassID{company.ID})
	db.DefineClass("JapaneseAutoCompany", []model.ClassID{autoCo.ID})

	vehicle, _ := db.DefineClass("Vehicle", nil,
		schema.AttrSpec{Name: "id", Domain: schema.ClassString},
		schema.AttrSpec{Name: "weight", Domain: schema.ClassInteger},
		schema.AttrSpec{Name: "manufacturer", Domain: company.ID})
	auto, _ := db.DefineClass("Automobile", []model.ClassID{vehicle.ID},
		schema.AttrSpec{Name: "drivetrain", Domain: schema.ClassString})
	db.DefineClass("Truck", []model.ClassID{vehicle.ID},
		schema.AttrSpec{Name: "payload", Domain: schema.ClassInteger})
	db.DefineClass("DomesticAutomobile", []model.ClassID{auto.ID})

	f := &figure1{db: db, eng: NewEngine(db)}
	err = db.Do(func(tx *core.Tx) error {
		var err error
		f.gm, err = tx.Insert("AutoCompany", map[string]model.Value{
			"name": model.String("GM"), "location": model.String("Detroit")})
		if err != nil {
			return err
		}
		f.toyota, _ = tx.Insert("JapaneseAutoCompany", map[string]model.Value{
			"name": model.String("Toyota"), "location": model.String("Toyota City")})
		f.freightliner, _ = tx.Insert("TruckCompany", map[string]model.Value{
			"name": model.String("Freightliner"), "location": model.String("Detroit")})

		type veh struct {
			class  string
			id     string
			weight int64
			maker  model.OID
		}
		for _, v := range []veh{
			{"Vehicle", "v1", 5000, f.gm},
			{"Automobile", "a1", 3000, f.gm},
			{"Automobile", "a2", 8000, f.toyota},
			{"DomesticAutomobile", "d1", 7600, f.gm},
			{"Truck", "t1", 9000, f.freightliner},
			{"Truck", "t2", 7000, f.freightliner},
		} {
			if _, err := tx.Insert(v.class, map[string]model.Value{
				"id": model.String(v.id), "weight": model.Int(v.weight),
				"manufacturer": model.Ref(v.maker),
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// run executes a query in its own transaction and returns the ids of the
// matched vehicles.
func (f *figure1) run(t *testing.T, src string) []string {
	t.Helper()
	tx := f.db.Begin()
	defer tx.Commit()
	res, err := f.eng.Run(tx, src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	var ids []string
	for _, row := range res.Rows {
		v, err := f.db.AttrValue(row.Object, "id")
		if err != nil {
			// Non-vehicle result (e.g. Company); use name.
			v, _ = f.db.AttrValue(row.Object, "name")
		}
		s, _ := v.AsString()
		ids = append(ids, s)
	}
	return ids
}

func wantSet(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	set := map[string]bool{}
	for _, g := range got {
		set[g] = true
	}
	for _, w := range want {
		if !set[w] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestPaperExampleQuery(t *testing.T) {
	// "Find all vehicles that weigh more than 7500 lbs, and that are
	// manufactured by a company located in Detroit." (Kim §3.2)
	f := newFigure1(t)
	got := f.run(t, `SELECT * FROM Vehicle WHERE weight > 7500 AND manufacturer.location = 'Detroit'`)
	// d1 is 7600 & GM(Detroit); t1 is 9000 & Freightliner(Detroit).
	// a2 is 8000 but Toyota City. t2 is 7000.
	wantSet(t, got, "d1", "t1")
}

func TestHierarchyScopeDefault(t *testing.T) {
	f := newFigure1(t)
	// All six vehicles, across the whole hierarchy.
	got := f.run(t, `SELECT * FROM Vehicle`)
	wantSet(t, got, "v1", "a1", "a2", "d1", "t1", "t2")
}

func TestOnlyRestrictsScope(t *testing.T) {
	f := newFigure1(t)
	got := f.run(t, `SELECT * FROM ONLY Vehicle`)
	wantSet(t, got, "v1")
	got = f.run(t, `SELECT * FROM ONLY Automobile`)
	wantSet(t, got, "a1", "a2")
	// Automobile hierarchy includes DomesticAutomobile.
	got = f.run(t, `SELECT * FROM Automobile`)
	wantSet(t, got, "a1", "a2", "d1")
}

func TestNestedPredicateThroughSubclassMaker(t *testing.T) {
	f := newFigure1(t)
	// Toyota is a JapaneseAutoCompany — two levels below Company — yet the
	// nested predicate through the Company-typed attribute reaches it.
	got := f.run(t, `SELECT * FROM Vehicle WHERE manufacturer.name = 'Toyota'`)
	wantSet(t, got, "a2")
}

func TestComparisonOperators(t *testing.T) {
	f := newFigure1(t)
	wantSet(t, f.run(t, `SELECT * FROM Vehicle WHERE weight = 7000`), "t2")
	wantSet(t, f.run(t, `SELECT * FROM Vehicle WHERE weight != 7000`), "v1", "a1", "a2", "d1", "t1")
	wantSet(t, f.run(t, `SELECT * FROM Vehicle WHERE weight <= 5000`), "v1", "a1")
	wantSet(t, f.run(t, `SELECT * FROM Vehicle WHERE weight >= 8000`), "a2", "t1")
	wantSet(t, f.run(t, `SELECT * FROM Vehicle WHERE weight < 3001`), "a1")
	wantSet(t, f.run(t, `SELECT * FROM Vehicle WHERE 8000 < weight`), "t1")
}

func TestBooleanConnectives(t *testing.T) {
	f := newFigure1(t)
	wantSet(t, f.run(t, `SELECT * FROM Vehicle WHERE weight > 8500 OR weight < 4000`), "a1", "t1")
	wantSet(t, f.run(t, `SELECT * FROM Vehicle WHERE NOT weight > 5000`), "v1", "a1")
	wantSet(t, f.run(t, `SELECT * FROM Vehicle WHERE (weight > 6000 AND weight < 8000) OR id = 'a1'`), "d1", "t2", "a1")
}

func TestInList(t *testing.T) {
	f := newFigure1(t)
	wantSet(t, f.run(t, `SELECT * FROM Vehicle WHERE id IN ('a1', 't2', 'zzz')`), "a1", "t2")
}

func TestOrderByAndLimit(t *testing.T) {
	f := newFigure1(t)
	got := f.run(t, `SELECT * FROM Vehicle ORDER BY weight DESC LIMIT 3`)
	if len(got) != 3 || got[0] != "t1" || got[1] != "a2" || got[2] != "d1" {
		t.Fatalf("got %v", got)
	}
	got = f.run(t, `SELECT * FROM Vehicle ORDER BY weight LIMIT 2`)
	if len(got) != 2 || got[0] != "a1" || got[1] != "v1" {
		t.Fatalf("got %v", got)
	}
}

func TestProjection(t *testing.T) {
	f := newFigure1(t)
	tx := f.db.Begin()
	defer tx.Commit()
	res, err := f.eng.Run(tx, `SELECT id, weight, manufacturer.location FROM Truck ORDER BY weight`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 3 || res.Cols[2] != "manufacturer.location" {
		t.Fatalf("cols = %v", res.Cols)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if s, _ := res.Rows[0].Values[0].AsString(); s != "t2" {
		t.Errorf("row0 id = %v", res.Rows[0].Values[0])
	}
	if s, _ := res.Rows[0].Values[2].AsString(); s != "Detroit" {
		t.Errorf("row0 location = %v", res.Rows[0].Values[2])
	}
}

func TestMethodAsDerivedAttribute(t *testing.T) {
	f := newFigure1(t)
	vehicle, _ := f.db.Catalog.ClassByName("Vehicle")
	err := f.db.AddMethod(vehicle.ID, "heavy", func(eng schema.MethodEngine, recv *model.Object, _ []model.Value) (model.Value, error) {
		w, err := f.db.AttrValue(recv, "weight")
		if err != nil {
			return model.Null, err
		}
		n, _ := w.AsInt()
		return model.Bool(n > 7500), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := f.run(t, `SELECT * FROM Vehicle WHERE heavy = true`)
	wantSet(t, got, "a2", "d1", "t1")
	// Bare truthy path.
	got = f.run(t, `SELECT * FROM Vehicle WHERE heavy`)
	wantSet(t, got, "a2", "d1", "t1")
}

func TestQueryAgainstCompanyHierarchy(t *testing.T) {
	f := newFigure1(t)
	got := f.run(t, `SELECT * FROM Company WHERE location = 'Detroit'`)
	wantSet(t, got, "GM", "Freightliner")
	got = f.run(t, `SELECT * FROM AutoCompany`)
	wantSet(t, got, "GM", "Toyota")
}

func TestPlannerPicksCHIndex(t *testing.T) {
	f := newFigure1(t)
	vehicle, _ := f.db.Catalog.ClassByName("Vehicle")
	if err := f.db.CreateIndex("vw", vehicle.ID, []string{"weight"}, true); err != nil {
		t.Fatal(err)
	}
	plan, err := f.eng.PlanQuery(mustParse(t, `SELECT * FROM Vehicle WHERE weight = 7000`))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.IndexUsed() || !strings.Contains(plan.String(), "access=index-eq(vw)[7000,7000] residual=") {
		t.Fatalf("plan = %s", plan)
	}
	// Range predicate uses index-range, over the interval both bounds admit.
	plan, _ = f.eng.PlanQuery(mustParse(t, `SELECT * FROM Vehicle WHERE weight > 7500`))
	if !strings.Contains(plan.String(), "access=index-range(vw)(7500,+inf) residual=") {
		t.Fatalf("plan = %s", plan)
	}
	plan, _ = f.eng.PlanQuery(mustParse(t, `SELECT id FROM Vehicle WHERE weight > 4000 AND weight <= 8000 ORDER BY weight LIMIT 2`))
	if !strings.Contains(plan.String(), "access=index-range(vw)(4000,8000] order=index limit=2 residual=") {
		t.Fatalf("plan = %s", plan)
	}
	if got := f.run(t, `SELECT id FROM Vehicle WHERE weight > 4000 AND weight <= 8000 ORDER BY weight LIMIT 2`); len(got) != 2 || got[0] != "v1" || got[1] != "t2" {
		t.Fatalf("ordered range = %v, want [v1 t2]", got)
	}
	// Results identical to scan.
	wantSet(t, f.run(t, `SELECT * FROM Vehicle WHERE weight > 7500 AND manufacturer.location = 'Detroit'`), "d1", "t1")
	// ONLY query can still use the CH index with a class filter.
	plan, _ = f.eng.PlanQuery(mustParse(t, `SELECT * FROM ONLY Truck WHERE weight = 7000`))
	if !plan.IndexUsed() {
		t.Fatalf("ONLY plan should use CH index: %s", plan)
	}
	wantSet(t, f.run(t, `SELECT * FROM ONLY Truck WHERE weight = 7000`), "t2")
}

func TestPlannerPicksNestedIndex(t *testing.T) {
	f := newFigure1(t)
	vehicle, _ := f.db.Catalog.ClassByName("Vehicle")
	if err := f.db.CreateIndex("vloc", vehicle.ID, []string{"manufacturer", "location"}, true); err != nil {
		t.Fatal(err)
	}
	plan, err := f.eng.PlanQuery(mustParse(t, `SELECT * FROM Vehicle WHERE manufacturer.location = 'Detroit'`))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.String(), `access=index-eq(vloc)["Detroit","Detroit"] residual=`) {
		t.Fatalf("plan = %s", plan)
	}
	wantSet(t, f.run(t, `SELECT * FROM Vehicle WHERE manufacturer.location = 'Detroit'`),
		"v1", "a1", "d1", "t1", "t2")
}

func TestPlannerUnionOfSCIndexes(t *testing.T) {
	f := newFigure1(t)
	// One single-class index per class in the Vehicle hierarchy — the
	// baseline organization of experiment E1.
	for _, name := range []string{"Vehicle", "Automobile", "Truck", "DomesticAutomobile"} {
		cl, _ := f.db.Catalog.ClassByName(name)
		if err := f.db.CreateIndex("sc_"+name, cl.ID, []string{"weight"}, false); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := f.eng.PlanQuery(mustParse(t, `SELECT * FROM Vehicle WHERE weight = 7000`))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.String(), "access=index-union-eq(4 indexes)[7000,7000] residual=") {
		t.Fatalf("plan = %s", plan)
	}
	wantSet(t, f.run(t, `SELECT * FROM Vehicle WHERE weight = 7000`), "t2")
}

func TestForceScanAblation(t *testing.T) {
	f := newFigure1(t)
	vehicle, _ := f.db.Catalog.ClassByName("Vehicle")
	f.db.CreateIndex("vw", vehicle.ID, []string{"weight"}, true)
	f.eng.ForceScan = true
	plan, _ := f.eng.PlanQuery(mustParse(t, `SELECT * FROM Vehicle WHERE weight = 7000`))
	if plan.IndexUsed() {
		t.Fatal("ForceScan ignored")
	}
	wantSet(t, f.run(t, `SELECT * FROM Vehicle WHERE weight = 7000`), "t2")
}

func TestQueryErrors(t *testing.T) {
	f := newFigure1(t)
	tx := f.db.Begin()
	defer tx.Commit()
	cases := []string{
		`SELECT * FROM Nowhere`,
		`SELECT * FROM Vehicle WHERE nosuch = 1`,
		`SELECT nosuch FROM Vehicle`,
		`SELECT * FROM Vehicle ORDER BY nosuch`,
		`FROM Vehicle`,
		`SELECT * FROM Vehicle WHERE`,
		`SELECT * FROM Vehicle LIMIT x`,
		`SELECT * FROM Vehicle WHERE weight >`,
		`SELECT * FROM Vehicle trailing`,
	}
	for _, src := range cases {
		if _, err := f.eng.Run(tx, src); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

func TestParserRoundTrip(t *testing.T) {
	cases := []string{
		"SELECT * FROM Vehicle",
		"SELECT * FROM ONLY Vehicle",
		"SELECT id, weight FROM Vehicle WHERE (weight > 7500 AND manufacturer.location = \"Detroit\") ORDER BY weight DESC LIMIT 10",
		"SELECT * FROM Vehicle WHERE id IN ('a', 'b')",
		"SELECT * FROM Doc WHERE tags CONTAINS 'db'",
		"SELECT * FROM Vehicle WHERE NOT weight < 5",
	}
	for _, src := range cases {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		// Re-parsing the canonical form reproduces it.
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("canonical %q: %v", q.String(), err)
		}
		if q.String() != q2.String() {
			t.Errorf("round trip: %q != %q", q.String(), q2.String())
		}
	}
}

func TestStringEscapes(t *testing.T) {
	q, err := Parse(`SELECT * FROM C WHERE name = 'O''Hare'`)
	if err != nil {
		t.Fatal(err)
	}
	b := q.Where.(*Binary)
	lit := b.R.(*Lit)
	if s, _ := lit.V.AsString(); s != "O'Hare" {
		t.Errorf("escaped string = %q", s)
	}
}

func TestNullComparisons(t *testing.T) {
	f := newFigure1(t)
	// A vehicle with no manufacturer.
	f.db.Do(func(tx *core.Tx) error {
		_, err := tx.Insert("Vehicle", map[string]model.Value{
			"id": model.String("orphan"), "weight": model.Int(1)})
		return err
	})
	// Nested predicate through the null reference is simply false.
	got := f.run(t, `SELECT * FROM Vehicle WHERE manufacturer.location = 'Detroit'`)
	wantSet(t, got, "v1", "a1", "d1", "t1", "t2")
	// Existence test.
	got = f.run(t, `SELECT * FROM Vehicle WHERE manufacturer = null AND weight = 1`)
	wantSet(t, got, "orphan")
	// Ordering comparisons against null are false, not true.
	got = f.run(t, `SELECT * FROM Vehicle WHERE manufacturer.location < 'ZZZ'`)
	wantSet(t, got, "v1", "a1", "a2", "d1", "t1", "t2")
}

func TestContainsOnSetAttribute(t *testing.T) {
	db, err := core.Open(t.TempDir(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc, _ := db.DefineClass("Doc", nil,
		schema.AttrSpec{Name: "title", Domain: schema.ClassString},
		schema.AttrSpec{Name: "tags", Domain: schema.ClassString, SetValued: true})
	_ = doc
	db.Do(func(tx *core.Tx) error {
		tx.Insert("Doc", map[string]model.Value{
			"title": model.String("one"),
			"tags":  model.Set(model.String("db"), model.String("oo"))})
		tx.Insert("Doc", map[string]model.Value{
			"title": model.String("two"),
			"tags":  model.Set(model.String("ai"))})
		return nil
	})
	eng := NewEngine(db)
	tx := db.Begin()
	defer tx.Commit()
	res, err := eng.Run(tx, `SELECT title FROM Doc WHERE tags CONTAINS 'db'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if s, _ := res.Rows[0].Values[0].AsString(); s != "one" {
		t.Errorf("title = %v", res.Rows[0].Values[0])
	}
}

func TestLimitWithoutOrderShortCircuits(t *testing.T) {
	f := newFigure1(t)
	got := f.run(t, `SELECT * FROM Vehicle LIMIT 2`)
	if len(got) != 2 {
		t.Fatalf("got %d rows", len(got))
	}
}

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}
