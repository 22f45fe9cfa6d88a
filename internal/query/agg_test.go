package query

import (
	"testing"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/schema"
)

func aggRow(t *testing.T, f *figure1, src string) []model.Value {
	t.Helper()
	tx := f.db.Begin()
	defer tx.Commit()
	res, err := f.eng.Run(tx, src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("%s: %d rows, want 1", src, len(res.Rows))
	}
	return res.Rows[0].Values
}

func TestCountStar(t *testing.T) {
	f := newFigure1(t)
	vals := aggRow(t, f, `SELECT COUNT(*) FROM Vehicle`)
	if n, _ := vals[0].AsInt(); n != 6 {
		t.Fatalf("COUNT(*) = %v", vals[0])
	}
	vals = aggRow(t, f, `SELECT COUNT(*) FROM ONLY Vehicle`)
	if n, _ := vals[0].AsInt(); n != 1 {
		t.Fatalf("COUNT(*) ONLY = %v", vals[0])
	}
	vals = aggRow(t, f, `SELECT COUNT(*) FROM Vehicle WHERE weight > 7500`)
	if n, _ := vals[0].AsInt(); n != 3 {
		t.Fatalf("filtered COUNT(*) = %v", vals[0])
	}
}

func TestAggregateFunctions(t *testing.T) {
	f := newFigure1(t)
	vals := aggRow(t, f, `SELECT MIN(weight), MAX(weight), SUM(weight), AVG(weight), COUNT(weight) FROM Vehicle`)
	if n, _ := vals[0].AsInt(); n != 3000 {
		t.Errorf("MIN = %v", vals[0])
	}
	if n, _ := vals[1].AsInt(); n != 9000 {
		t.Errorf("MAX = %v", vals[1])
	}
	if n, _ := vals[2].AsInt(); n != 39600 { // 5000+3000+8000+7600+9000+7000
		t.Errorf("SUM = %v", vals[2])
	}
	if a, _ := vals[3].AsFloat(); a != 6600 {
		t.Errorf("AVG = %v", vals[3])
	}
	if n, _ := vals[4].AsInt(); n != 6 {
		t.Errorf("COUNT(weight) = %v", vals[4])
	}
}

func TestAggregateOverNestedPath(t *testing.T) {
	f := newFigure1(t)
	vals := aggRow(t, f, `SELECT MIN(manufacturer.location), MAX(manufacturer.location) FROM Vehicle`)
	if s, _ := vals[0].AsString(); s != "Detroit" {
		t.Errorf("MIN location = %v", vals[0])
	}
	if s, _ := vals[1].AsString(); s != "Toyota City" {
		t.Errorf("MAX location = %v", vals[1])
	}
}

func TestAggregateSkipsNulls(t *testing.T) {
	f := newFigure1(t)
	f.db.Do(func(tx *core.Tx) error {
		_, err := tx.Insert("Vehicle", map[string]model.Value{"id": model.String("noweight")})
		return err
	})
	vals := aggRow(t, f, `SELECT COUNT(*), COUNT(weight) FROM Vehicle`)
	if n, _ := vals[0].AsInt(); n != 7 {
		t.Errorf("COUNT(*) = %v", vals[0])
	}
	if n, _ := vals[1].AsInt(); n != 6 {
		t.Errorf("COUNT(weight) = %v", vals[1])
	}
	// AVG of nothing is null.
	vals = aggRow(t, f, `SELECT AVG(weight) FROM Vehicle WHERE weight > 99999`)
	if !vals[0].IsNull() {
		t.Errorf("AVG over empty = %v", vals[0])
	}
}

func TestAggregateUsesIndexAccessPath(t *testing.T) {
	f := newFigure1(t)
	vehicle, _ := f.db.Catalog.ClassByName("Vehicle")
	f.db.CreateIndex("vw", vehicle.ID, []string{"weight"}, true)
	plan, err := f.eng.PlanQuery(mustParse(t, `SELECT COUNT(*) FROM Vehicle WHERE weight = 7000`))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.IndexUsed() {
		t.Fatalf("aggregate plan = %s", plan)
	}
	vals := aggRow(t, f, `SELECT COUNT(*) FROM Vehicle WHERE weight = 7000`)
	if n, _ := vals[0].AsInt(); n != 1 {
		t.Fatalf("indexed COUNT = %v", vals[0])
	}
}

func TestAggregateErrors(t *testing.T) {
	f := newFigure1(t)
	tx := f.db.Begin()
	defer tx.Commit()
	for _, src := range []string{
		`SELECT SUM(*) FROM Vehicle`,
		`SELECT SUM(id) FROM Vehicle`, // string attr
		`SELECT COUNT(nosuch) FROM Vehicle`,
		`SELECT COUNT( FROM Vehicle`,
	} {
		if _, err := f.eng.Run(tx, src); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

func TestCountAsPlainIdentifierStillWorks(t *testing.T) {
	// An attribute named "count" is not hijacked by the aggregate grammar
	// when not followed by '('.
	db, err := core.Open(t.TempDir(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.DefineClass("Stat", nil, schema.AttrSpec{Name: "count", Domain: schema.ClassInteger})
	db.Do(func(tx *core.Tx) error {
		_, err := tx.Insert("Stat", map[string]model.Value{"count": model.Int(5)})
		return err
	})
	eng := NewEngine(db)
	tx := db.Begin()
	defer tx.Commit()
	res, err := eng.Run(tx, `SELECT count FROM Stat WHERE count = 5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestAggregateCanonicalString(t *testing.T) {
	q := mustParse(t, `SELECT COUNT(*), AVG(weight) FROM Vehicle WHERE weight > 5`)
	q2 := mustParse(t, q.String())
	if q.String() != q2.String() {
		t.Fatalf("round trip: %q != %q", q.String(), q2.String())
	}
}

func TestMethodMidPath(t *testing.T) {
	// A method step in the middle of a path: bestPlant() returns a
	// reference that the next step dereferences.
	f := newFigure1(t)
	company, _ := f.db.Catalog.ClassByName("Company")
	division, _ := f.db.DefineClass("Division", nil,
		schema.AttrSpec{Name: "city", Domain: schema.ClassString})
	var austinPlant model.OID
	f.db.Do(func(tx *core.Tx) error {
		var err error
		austinPlant, err = tx.InsertClass(division.ID, map[string]model.Value{
			"city": model.String("Austin")})
		return err
	})
	err := f.db.AddMethod(company.ID, "bestPlant", func(eng schema.MethodEngine, recv *model.Object, _ []model.Value) (model.Value, error) {
		return model.Ref(austinPlant), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := f.run(t, `SELECT * FROM Vehicle WHERE manufacturer.bestPlant.city = 'Austin'`)
	// Every vehicle with a manufacturer qualifies (the method is constant).
	wantSet(t, got, "v1", "a1", "a2", "d1", "t1", "t2")
}

// TestSumIntegerPrecision: integer sums are exact beyond 2^53, where a
// float64 accumulator silently rounds, whether the values meet in one
// class's scan or in the merge of two classes' partials; a sum that leaves
// int64 carries on in float64 and says so by its kind.
func TestSumIntegerPrecision(t *testing.T) {
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	big, _ := db.DefineClass("Big", nil,
		schema.AttrSpec{Name: "n", Domain: schema.ClassInteger},
		schema.AttrSpec{Name: "tag", Domain: schema.ClassString})
	db.DefineClass("BigSub", []model.ClassID{big.ID})
	const a, b, c = int64(1)<<62 - 1, int64(1)<<62 - 3, int64(1)<<62 - 5
	err = db.Do(func(tx *core.Tx) error {
		for _, o := range []struct {
			class string
			n     int64
			tag   string
		}{{"Big", a, "a"}, {"BigSub", b, "b"}, {"BigSub", c, "c"}} {
			if _, err := tx.Insert(o.class, map[string]model.Value{"n": model.Int(o.n), "tag": model.String(o.tag)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &figure1{db: db, eng: NewEngine(db)}
	for _, tc := range []struct {
		src  string
		want model.Value
	}{
		{`SELECT SUM(n) FROM Big WHERE tag != 'c'`, model.Int(a + b)},                 // across two classes' partials
		{`SELECT SUM(n) FROM ONLY BigSub`, model.Int(b + c)},                          // within one class
		{`SELECT SUM(n) FROM Big`, model.Float(float64(a) + float64(b) + float64(c))}, // past int64
		{`SELECT SUM(n) FROM Big ORDER BY n LIMIT 2`, model.Int(b + c)},               // folded from retained rows
		{`SELECT AVG(n) FROM ONLY BigSub`, model.Float(float64(b+c) / 2)},
	} {
		got := aggRow(t, f, tc.src)[0]
		if got.Kind() != tc.want.Kind() || model.Compare(got, tc.want) != 0 {
			t.Errorf("%s = %v (%s), want %v (%s)", tc.src, got, got.Kind(), tc.want, tc.want.Kind())
		}
	}
}
