package query

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/schema"
)

// kernelWorld is a small hierarchy shaped to reach every way the scan
// kernel reads a row: Item (val, tag, set-valued tags, owner → Owner) with
// subclasses ItemA and ItemB, a method `double`, and an attribute `extra`
// (default 7) added after the objects were written, which only a few of
// them store.
type kernelWorld struct {
	db    *core.DB
	eng   *Engine
	items []model.OID
}

const kernelPerClass = 9

func newKernelWorld(t testing.TB) *kernelWorld {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	owner, err := db.DefineClass("Owner", nil,
		schema.AttrSpec{Name: "w", Domain: schema.ClassInteger},
		schema.AttrSpec{Name: "name", Domain: schema.ClassString})
	if err != nil {
		t.Fatal(err)
	}
	item, err := db.DefineClass("Item", nil,
		schema.AttrSpec{Name: "val", Domain: schema.ClassInteger},
		schema.AttrSpec{Name: "tag", Domain: schema.ClassString},
		schema.AttrSpec{Name: "tags", Domain: schema.ClassString, SetValued: true},
		schema.AttrSpec{Name: "owner", Domain: owner.ID})
	if err != nil {
		t.Fatal(err)
	}
	classes := []model.ClassID{item.ID}
	for _, name := range []string{"ItemA", "ItemB"} {
		sub, err := db.DefineClass(name, []model.ClassID{item.ID})
		if err != nil {
			t.Fatal(err)
		}
		classes = append(classes, sub.ID)
	}
	err = db.AddMethod(item.ID, "double", func(_ schema.MethodEngine, recv *model.Object, _ []model.Value) (model.Value, error) {
		v, _ := db.AttrValue(recv, "val")
		n, _ := v.AsInt()
		return model.Int(2 * n), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	w := &kernelWorld{db: db, eng: NewEngine(db)}
	colours := []string{"red", "green", "blue", "black"}
	err = db.Do(func(tx *core.Tx) error {
		var owners []model.OID
		for i := 0; i < 4; i++ {
			oid, err := tx.InsertClass(owner.ID, map[string]model.Value{
				"w": model.Int(int64(i)), "name": model.String(fmt.Sprintf("o%d", i))})
			if err != nil {
				return err
			}
			owners = append(owners, oid)
		}
		for ci, c := range classes {
			for i := 0; i < kernelPerClass; i++ {
				n := ci*kernelPerClass + i
				attrs := map[string]model.Value{
					"val": model.Int(int64((n * 7) % 40)),
					"tag": model.String(fmt.Sprintf("t%02d", n)),
				}
				if n%5 != 0 { // every fifth item has no owner
					attrs["owner"] = model.Ref(owners[n%len(owners)])
				}
				switch n % 3 { // no tags, one, two
				case 1:
					attrs["tags"] = model.Set(model.String(colours[n%4]))
				case 2:
					attrs["tags"] = model.Set(model.String(colours[n%4]), model.String(colours[(n+1)%4]))
				}
				oid, err := tx.InsertClass(c, attrs)
				if err != nil {
					return err
				}
				w.items = append(w.items, oid)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddAttribute(item.ID, schema.AttrSpec{Name: "extra", Domain: schema.ClassInteger, Default: model.Int(7)}); err != nil {
		t.Fatal(err)
	}
	err = db.Do(func(tx *core.Tx) error {
		for i := 0; i < len(w.items); i += 4 {
			if err := tx.Update(w.items[i], map[string]model.Value{"extra": model.Int(int64(i))}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// fullDecode answers src the way the executor did before it read stored
// images (oracleRun): every object of every scope class is decoded, every
// path step resolves against the catalog for every row, and the predicate
// is the tree walker. It is the reference the kernel is compared with.
func fullDecode(t *testing.T, eng *Engine, tx *core.Tx, src string) [][]string {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	out, err := oracleRun(eng, tx, q)
	if err != nil {
		t.Fatalf("%s: reference: %v", src, err)
	}
	return out
}

func flatten(res *Result) [][]string {
	out := make([][]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		r := []string{row.OID.String()}
		for _, v := range row.Values {
			r = append(r, v.String())
		}
		out = append(out, r)
	}
	return out
}

// TestKernelMatchesFullDecode runs statements that take every turn in the
// kernel — image reads, class defaults, methods, reference paths,
// set-valued comparisons, streamed and retained aggregates, early exits —
// under a locked and a snapshot transaction, fanned out and one class at a
// time, and requires the full-decode answer each time.
func TestKernelMatchesFullDecode(t *testing.T) {
	w := newKernelWorld(t)
	statements := []string{
		// plain image reads
		`SELECT * FROM Item`,
		`SELECT tag, val FROM Item WHERE val >= 10 AND val < 30`,
		`SELECT tag FROM ONLY ItemA WHERE NOT val = 3`,
		// class default of an attribute added after the objects were written
		`SELECT tag, extra FROM Item WHERE extra = 7`,
		`SELECT tag FROM Item WHERE extra != 7`,
		`SELECT COUNT(*), COUNT(extra), SUM(extra), MIN(extra), MAX(extra) FROM Item`,
		// a method step: the row must be decoded for it, matched or not
		`SELECT tag, double FROM Item WHERE double > 50`,
		`SELECT SUM(double), COUNT(*) FROM Item WHERE val < 30`,
		`SELECT tag FROM Item WHERE double > 20 AND val != 12 ORDER BY double DESC LIMIT 5`,
		// a two-step reference path, some of them dangling into null
		`SELECT tag, owner.name FROM Item WHERE owner.w >= 2`,
		`SELECT COUNT(*), MAX(owner.w), MIN(owner.name) FROM Item WHERE owner.name != 'o2'`,
		`SELECT tag FROM Item WHERE owner.w = null`,
		// existential comparison on a set-valued attribute
		`SELECT tag FROM Item WHERE tags = 'red'`,
		`SELECT tag FROM Item WHERE tags != 'red'`,
		`SELECT tag FROM Item WHERE tags CONTAINS 'blue' OR tags IN ('black')`,
		`SELECT COUNT(tags), MIN(tags), MAX(tags) FROM Item WHERE tags > 'b'`,
		// LIMIT: early exit inside a class, across classes, beyond the data
		`SELECT tag FROM Item LIMIT 4`,
		`SELECT tag FROM Item LIMIT 13`,
		`SELECT tag FROM Item WHERE val > 5 LIMIT 20`,
		`SELECT tag FROM Item LIMIT 500`,
		`SELECT tag FROM Item WHERE val > 10 ORDER BY val DESC LIMIT 4`,
		// aggregates: streamed by the scan, and retained for ORDER BY / LIMIT
		`SELECT COUNT(*), SUM(val) FROM Item WHERE val != 14`,
		`SELECT AVG(val), MIN(tag), MAX(tag) FROM ItemB WHERE val != 3`,
		`SELECT SUM(val), COUNT(*) FROM Item ORDER BY val DESC LIMIT 3`,
		`SELECT SUM(val) FROM Item LIMIT 11`,
		`SELECT AVG(val), SUM(val), COUNT(*), MIN(val) FROM Item WHERE val > 1000`,
	}
	serial := NewEngine(w.db)
	serial.serialScan = true
	for _, mode := range []string{"locked", "snapshot"} {
		tx := w.db.Begin()
		if mode == "snapshot" {
			tx.Commit()
			tx = w.db.BeginSnapshot()
		}
		for _, src := range statements {
			want := fullDecode(t, w.eng, tx, src)
			for name, eng := range map[string]*Engine{"fan-out": w.eng, "serial": serial} {
				res, err := eng.Run(tx, src)
				if err != nil {
					t.Fatalf("%s %s: %s: %v", mode, name, src, err)
				}
				if got := flatten(res); !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s: %s\nkernel:      %v\nfull decode: %v", mode, name, src, got, want)
				}
			}
		}
		tx.Commit()
	}
}

// TestKernelSpans pins what EXPLAIN ANALYZE shows of a streamed aggregate:
// a scan span per class with its counts, and the aggregate span fed by
// every match although no row was retained.
func TestKernelSpans(t *testing.T) {
	w := newKernelWorld(t)
	tx := w.db.Begin()
	defer tx.Commit()
	out, err := w.eng.ExplainAnalyze(tx, `SELECT COUNT(*), SUM(val) FROM Item WHERE val != 14`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"access=heap-scan", "scan Item", "scan ItemA", "scan ItemB",
		fmt.Sprintf("rows_scanned=%d", kernelPerClass), "rows_matched=", "aggregate", "rows_in=26"} {
		if !strings.Contains(out, want) {
			t.Errorf("ExplainAnalyze lacks %q:\n%s", want, out)
		}
	}
}

// TestKernelSnapshotScanUnderRelocation holds the kernel's snapshot path
// to its contract while a writer keeps growing records, which relocates
// them to the heap tail mid-scan: every snapshot sees each object exactly
// once — the count and the sum of an attribute the writer never touches
// do not move. Run with -race.
func TestKernelSnapshotScanUnderRelocation(t *testing.T) {
	w := newKernelWorld(t)
	const src = `SELECT COUNT(*), SUM(val), COUNT(extra) FROM Item WHERE val != -1`
	before := w.db.Begin()
	want := flatten(mustRun(t, w.eng, before, src))
	before.Commit()

	done := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		defer close(done)
		for round := 1; round <= 40; round++ {
			err := w.db.Do(func(tx *core.Tx) error {
				for i, oid := range w.items {
					if (i+round)%3 != 0 {
						continue
					}
					pad := strings.Repeat("x", 20*round+i)
					if err := tx.Update(oid, map[string]model.Value{"tag": model.String(pad)}); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for scans := 0; ; scans++ {
				select {
				case <-done:
					if scans > 0 {
						return
					}
				default:
				}
				tx := w.db.BeginSnapshot()
				res, err := w.eng.Run(tx, src)
				tx.Commit()
				if err != nil {
					t.Errorf("snapshot scan: %v", err)
					return
				}
				if got := flatten(res); !reflect.DeepEqual(got, want) {
					t.Errorf("snapshot scan under relocation: %v, want %v", got, want)
					return
				}
			}
		}()
	}
	writer.Wait()
	readers.Wait()
}

func mustRun(t testing.TB, eng *Engine, tx *core.Tx, src string) *Result {
	t.Helper()
	res, err := eng.Run(tx, src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return res
}

// scanAggWorld is the shape of the benchmark's aggregate statement: three
// classes under H1, 600 two-attribute objects each, no usable index.
func scanAggWorld(t testing.TB) (*core.DB, *Engine) {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	h1, err := db.DefineClass("H1", nil,
		schema.AttrSpec{Name: "val", Domain: schema.ClassInteger},
		schema.AttrSpec{Name: "tag", Domain: schema.ClassString})
	if err != nil {
		t.Fatal(err)
	}
	classes := []model.ClassID{h1.ID}
	for _, name := range []string{"H3", "H4"} {
		sub, err := db.DefineClass(name, []model.ClassID{h1.ID})
		if err != nil {
			t.Fatal(err)
		}
		classes = append(classes, sub.ID)
	}
	err = db.Do(func(tx *core.Tx) error {
		for ci, c := range classes {
			for i := 0; i < 600; i++ {
				if _, err := tx.InsertClass(c, map[string]model.Value{
					"val": model.Int(int64((i*13 + ci) % 1000)), "tag": model.String("H1")}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, NewEngine(db)
}

// TestScanAggregateAllocations guards the kernel's point: a heap-scan
// aggregate allocates per statement and per class, not per row. The budget
// is a tenth of an object per scanned row, parse and plan included.
func TestScanAggregateAllocations(t *testing.T) {
	db, eng := scanAggWorld(t)
	eng.serialScan = true
	const src = `SELECT COUNT(*), SUM(val) FROM H1 WHERE val != 17`
	tx := db.Begin()
	defer tx.Commit()
	res := mustRun(t, eng, tx, src)
	if n, _ := res.Rows[0].Values[0].AsInt(); n < 1790 || n > 1800 {
		t.Fatalf("COUNT(*) = %d, want just under 1800", n)
	}
	allocs := testing.AllocsPerRun(20, func() { mustRun(t, eng, tx, src) })
	if perRow := allocs / 1800; perRow > 0.1 {
		t.Fatalf("%.0f allocations per statement = %.3f per scanned row, want <= 0.1", allocs, perRow)
	}
	t.Logf("%.0f allocations per statement over 1800 rows", allocs)
}

func BenchmarkScanAggregate(b *testing.B) {
	db, eng := scanAggWorld(b)
	tx := db.Begin()
	defer tx.Commit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustRun(b, eng, tx, fmt.Sprintf(`SELECT COUNT(*), SUM(val) FROM H1 WHERE val != %d`, i%1000))
	}
}

// BenchmarkIndexAggregate is BenchmarkScanAggregate's statement over the
// same world with a class-hierarchy index on H1.val: the index fold answers
// it from the keys, where BenchmarkScanAggregate scans the heap.
func BenchmarkIndexAggregate(b *testing.B) {
	db, eng := scanAggWorld(b)
	h1, err := db.Catalog.ClassByName("H1")
	if err != nil {
		b.Fatal(err)
	}
	if err := db.CreateIndex("h1_val", h1.ID, []string{"val"}, true); err != nil {
		b.Fatal(err)
	}
	tx := db.Begin()
	defer tx.Commit()
	folds := mFolds.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustRun(b, eng, tx, fmt.Sprintf(`SELECT COUNT(*), SUM(val) FROM H1 WHERE val != %d`, i%1000))
	}
	b.StopTimer()
	if n := mFolds.Value() - folds; n != uint64(b.N) {
		b.Fatalf("%d of %d statements folded from the index", n, b.N)
	}
}

// BenchmarkIndexOnlyRange is embed.query's range statement over
// BenchmarkIndexAggregate's world: SELECT val ... ORDER BY val LIMIT 10
// over a 40-value interval, answered from the index's (key, posting) pairs
// without reading a record.
func BenchmarkIndexOnlyRange(b *testing.B) {
	db, eng := scanAggWorld(b)
	h1, err := db.Catalog.ClassByName("H1")
	if err != nil {
		b.Fatal(err)
	}
	if err := db.CreateIndex("h1_val", h1.ID, []string{"val"}, true); err != nil {
		b.Fatal(err)
	}
	tx := db.Begin()
	defer tx.Commit()
	covered := mIndexOnly.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := i % 960
		if res := mustRun(b, eng, tx, fmt.Sprintf(`SELECT val FROM H1 WHERE val >= %d AND val < %d ORDER BY val LIMIT 10`, lo, lo+40)); len(res.Rows) != 10 {
			b.Fatalf("%d rows, want 10", len(res.Rows))
		}
	}
	b.StopTimer()
	if n := mIndexOnly.Value() - covered; n != uint64(b.N) {
		b.Fatalf("%d of %d statements answered index-only", n, b.N)
	}
}
