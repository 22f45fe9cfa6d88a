package query

import (
	"fmt"
	"reflect"
	"testing"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/schema"
)

// newScanHierarchy builds a three-level hierarchy with interleaved values,
// sized so every class spans several heap pages.
func newScanHierarchy(t *testing.T) *core.DB {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	root, err := db.DefineClass("S0", nil,
		schema.AttrSpec{Name: "val", Domain: schema.ClassInteger},
		schema.AttrSpec{Name: "tag", Domain: schema.ClassString})
	if err != nil {
		t.Fatal(err)
	}
	classes := []model.ClassID{root.ID}
	for m := 0; m < 3; m++ {
		mid, err := db.DefineClass(fmt.Sprintf("S0_%d", m), []model.ClassID{root.ID})
		if err != nil {
			t.Fatal(err)
		}
		classes = append(classes, mid.ID)
		for l := 0; l < 2; l++ {
			leaf, err := db.DefineClass(fmt.Sprintf("S0_%d_%d", m, l), []model.ClassID{mid.ID})
			if err != nil {
				t.Fatal(err)
			}
			classes = append(classes, leaf.ID)
		}
	}
	err = db.Do(func(tx *core.Tx) error {
		for ci, c := range classes {
			for i := 0; i < 60; i++ {
				if _, err := tx.InsertClass(c, map[string]model.Value{
					"val": model.Int(int64((i*7 + ci) % 100)),
					"tag": model.String(fmt.Sprintf("c%d-%d", ci, i)),
				}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestParallelScanMatchesSerial runs a spread of hierarchy-scoped queries
// through the parallel executor and one class at a time (the serialScan hook) and requires
// identical results — rows, ordering and limits included. This is the
// acceptance gate for the parallel fan-out: the concurrency must be
// invisible in the results.
func TestParallelScanMatchesSerial(t *testing.T) {
	db := newScanHierarchy(t)
	queries := []string{
		`SELECT * FROM S0`,
		`SELECT tag FROM S0 WHERE val < 50`,
		`SELECT tag FROM S0 WHERE val >= 30 AND val < 70`,
		`SELECT * FROM S0 LIMIT 7`,
		`SELECT tag FROM S0 WHERE val < 50 LIMIT 25`,
		`SELECT tag FROM S0 WHERE val < 5 LIMIT 1000`,
		`SELECT tag FROM S0 ORDER BY tag`,
		`SELECT tag FROM S0 WHERE val > 20 ORDER BY tag DESC LIMIT 13`,
		`SELECT val FROM S0 ORDER BY val LIMIT 40`,
		`SELECT COUNT(*) FROM S0 WHERE val < 33`,
		`SELECT SUM(val), MIN(val), MAX(val) FROM S0`,
		`SELECT * FROM ONLY S0_1`,
		`SELECT tag FROM S0_2 WHERE val = 44`,
	}
	parallel := NewEngine(db)
	serial := NewEngine(db)
	serial.serialScan = true
	for _, q := range queries {
		got := runResult(t, db, parallel, q)
		want := runResult(t, db, serial, q)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\nparallel: %+v\nserial:   %+v", q, got, want)
		}
	}
}

// runResult executes q and flattens the result into comparable rows
// (OID + projected values).
func runResult(t *testing.T, db *core.DB, eng *Engine, q string) [][]string {
	t.Helper()
	tx := db.Begin()
	defer tx.Commit()
	res, err := eng.Run(tx, q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return flatten(res)
}

// TestParallelScanLimitEarlyExit checks that a limited, unordered
// hierarchy query returns exactly the rows the sequential executor would:
// the first `limit` matches in scope order.
func TestParallelScanLimitEarlyExit(t *testing.T) {
	db := newScanHierarchy(t)
	eng := NewEngine(db)
	for _, limit := range []int{1, 10, 59, 60, 61, 200} {
		q := fmt.Sprintf(`SELECT tag FROM S0 LIMIT %d`, limit)
		serial := NewEngine(db)
		serial.serialScan = true
		got := runResult(t, db, eng, q)
		want := runResult(t, db, serial, q)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("limit %d: parallel %v != serial %v", limit, got, want)
		}
		if len(got) != limit && len(got) != 600 { // 10 classes x 60 objects
			if limit < 600 {
				t.Errorf("limit %d returned %d rows", limit, len(got))
			}
		}
	}
}
