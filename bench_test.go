// Benchmark harness: one testing.B family per experiment in DESIGN.md §7
// and EXPERIMENTS.md, this file for E1–E14 and bench_system_test.go for
// E15–E19. Each runs at one fixed scale. Run with:
//
//	go test -run '^$' -bench . -benchmem .
//
// and narrow it with -bench <regex>; `make benchsmoke` runs every family
// once (-benchtime 1x) so none can rot unnoticed.
package oodb_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"oodb"
	"oodb/internal/bench"
	"oodb/internal/composite"
	"oodb/internal/model"
	"oodb/internal/relational"
)

// openBenchDB opens a throwaway database tuned for benchmarking (NoSync:
// we measure engine paths, not the disk's fsync latency).
func openBenchDB(b *testing.B) *oodb.DB {
	b.Helper()
	dir, err := os.MkdirTemp("", "kimdb-bench")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	db, err := oodb.Open(dir, oodb.Options{NoSync: true, PoolPages: 4096})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

func mustRows(b *testing.B, db *oodb.DB, q string) int {
	b.Helper()
	res, err := db.Query(q)
	if err != nil {
		b.Fatal(err)
	}
	return len(res.Rows)
}

// --- E1: class-hierarchy index vs per-class indexes vs scan ------------

func e1DB(b *testing.B, index string) *oodb.DB {
	db := openBenchDB(b)
	h, err := bench.BuildHierarchy(db, 4, 3, 200, 1000, 1) // 21 classes, 4200 objects
	if err != nil {
		b.Fatal(err)
	}
	switch index {
	case "ch":
		err = h.IndexCH(db)
	case "sc":
		err = h.IndexPerClass(db)
	}
	if err != nil {
		b.Fatal(err)
	}
	return db
}

func benchE1(b *testing.B, index, query string) {
	db := e1DB(b, index)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := mustRows(b, db, fmt.Sprintf(query, i%1000)); n < 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkE1_HierarchyEq_CHIndex(b *testing.B) {
	benchE1(b, "ch", `SELECT * FROM H0 WHERE val = %d`)
}

func BenchmarkE1_HierarchyEq_SCIndexes(b *testing.B) {
	benchE1(b, "sc", `SELECT * FROM H0 WHERE val = %d`)
}

func BenchmarkE1_HierarchyEq_Scan(b *testing.B) {
	benchE1(b, "none", `SELECT * FROM H0 WHERE val = %d`)
}

func BenchmarkE1_SingleClassEq_CHIndex(b *testing.B) {
	benchE1(b, "ch", `SELECT * FROM ONLY H3 WHERE val = %d`)
}

func BenchmarkE1_SingleClassEq_SCIndexes(b *testing.B) {
	benchE1(b, "sc", `SELECT * FROM ONLY H3 WHERE val = %d`)
}

// --- E2: nested-attribute index vs forward traversal -------------------

func e2DB(b *testing.B, indexed bool) *oodb.DB {
	db := openBenchDB(b)
	if _, err := bench.BuildVehicleWorld(db, 200, 4000, 50, 2); err != nil {
		b.Fatal(err)
	}
	if indexed {
		if err := db.CreateIndex("vloc", "Vehicle", []string{"manufacturer", "location"}, true); err != nil {
			b.Fatal(err)
		}
		if err := db.CreateIndex("vdivcity", "Vehicle", []string{"manufacturer", "division", "city"}, true); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

func benchE2(b *testing.B, indexed bool, query string) {
	db := e2DB(b, indexed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustRows(b, db, fmt.Sprintf(query, i%50))
	}
}

func BenchmarkE2_Path2_NestedIndex(b *testing.B) {
	benchE2(b, true, `SELECT * FROM Vehicle WHERE manufacturer.location = 'City%d'`)
}

func BenchmarkE2_Path2_Traversal(b *testing.B) {
	benchE2(b, false, `SELECT * FROM Vehicle WHERE manufacturer.location = 'City%d'`)
}

func BenchmarkE2_Path3_NestedIndex(b *testing.B) {
	benchE2(b, true, `SELECT * FROM Vehicle WHERE manufacturer.division.city = 'City%d'`)
}

func BenchmarkE2_Path3_Traversal(b *testing.B) {
	benchE2(b, false, `SELECT * FROM Vehicle WHERE manufacturer.division.city = 'City%d'`)
}

// --- E3: navigation vs joins -------------------------------------------

const (
	e3Parts = 5000
	e3Conn  = 3
	e3Depth = 5
)

func BenchmarkE3_Traverse_Swizzled(b *testing.B) {
	db := openBenchDB(b)
	p, err := bench.BuildParts(db, e3Parts, e3Conn, 3)
	if err != nil {
		b.Fatal(err)
	}
	ws := db.NewWorkspace()
	// Warm lap materializes and swizzles; measured laps are pointer hops.
	if _, err := bench.Traverse(ws, p.OIDs[0], e3Depth); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Traverse(ws, p.OIDs[i%100], e3Depth); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3_Traverse_FetchPerObject(b *testing.B) {
	db := openBenchDB(b)
	p, err := bench.BuildParts(db, e3Parts, e3Conn, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.TraverseFetch(db, p.OIDs[i%100], e3Depth); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3_Traverse_RelationalJoins(b *testing.B) {
	rp, err := bench.BuildRelParts(e3Parts, e3Conn, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rp.TraverseRel(int64(i%100), e3Depth); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: OO1 lookup / traversal / insert -------------------------------

func e4OODB(b *testing.B) (*oodb.DB, *bench.Parts) {
	db := openBenchDB(b)
	p, err := bench.BuildParts(db, 5000, 3, 4)
	if err != nil {
		b.Fatal(err)
	}
	if err := db.CreateIndex("part_pid", "Part", []string{"pid"}, true); err != nil {
		b.Fatal(err)
	}
	return db, p
}

func BenchmarkE4_Lookup_OODB(b *testing.B) {
	db, _ := e4OODB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := mustRows(b, db, fmt.Sprintf(`SELECT x, y FROM Part WHERE pid = %d`, i%5000)); n != 1 {
			b.Fatalf("lookup found %d", n)
		}
	}
}

func BenchmarkE4_Lookup_OODB_IndexAPI(b *testing.B) {
	// Apples-to-apples with the relational SelectEq row: a bare index
	// probe, no query parse/plan/txn.
	db, _ := e4OODB(b)
	idx, err := db.Engine().Indexes.Get("part_pid")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := idx.Lookup(oodb.Int(int64(i%5000)), nil); len(got) != 1 {
			b.Fatalf("lookup found %d", len(got))
		}
	}
}

func BenchmarkE4_Lookup_Relational(b *testing.B) {
	rp, err := bench.BuildRelParts(5000, 3, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := rp.Part.SelectEq("id", model.Int(int64(i%5000)))
		if err != nil || len(rows) != 1 {
			b.Fatalf("lookup: %v %v", rows, err)
		}
	}
}

func BenchmarkE4_Traversal_OODB(b *testing.B) {
	db, p := e4OODB(b)
	ws := db.NewWorkspace()
	bench.Traverse(ws, p.OIDs[0], 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Traverse(ws, p.OIDs[i%50], 7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4_Traversal_Relational(b *testing.B) {
	rp, err := bench.BuildRelParts(5000, 3, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rp.TraverseRel(int64(i%50), 7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4_Insert_OODB(b *testing.B) {
	db, p := e4OODB(b)
	b.ResetTimer()
	i := 0
	for ; i < b.N; i++ {
		err := db.Do(func(tx *oodb.Tx) error {
			oid, err := tx.Insert("Part", oodb.Attrs{
				"pid": oodb.Int(int64(100000 + i)),
				"x":   oodb.Int(int64(i)), "y": oodb.Int(int64(i)),
				"to": oodb.SetOf(oodb.Ref(p.OIDs[i%5000]), oodb.Ref(p.OIDs[(i+7)%5000])),
			})
			_ = oid
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4_Insert_Relational(b *testing.B) {
	rp, err := bench.BuildRelParts(5000, 3, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rp.Part.Insert(
			model.Int(int64(100000+i)), model.Int(int64(i)), model.Int(int64(i)),
			model.String("t"),
		); err != nil {
			b.Fatal(err)
		}
		rp.Conn.Insert(model.Int(int64(100000+i)), model.Int(int64(i%5000)))
		rp.Conn.Insert(model.Int(int64(100000+i)), model.Int(int64((i+7)%5000)))
	}
}

// --- E5: memory-residence cost ladder -----------------------------------

type nativePart struct {
	x    int64
	next *nativePart
}

func BenchmarkE5_NativePointer(b *testing.B) {
	// The floor: a native Go pointer hop.
	ring := make([]nativePart, 100)
	for i := range ring {
		ring[i].x = int64(i)
		ring[i].next = &ring[(i+1)%len(ring)]
	}
	cur := &ring[0]
	var sum int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum += cur.x
		cur = cur.next
	}
	_ = sum
}

func e5Workspace(b *testing.B) (*oodb.Workspace, oodb.OID) {
	db := openBenchDB(b)
	if _, err := db.DefineClass("Node", nil,
		oodb.Attr{Name: "x", Domain: "Integer"},
		oodb.Attr{Name: "next", Domain: "Node"},
	); err != nil {
		b.Fatal(err)
	}
	var oids []oodb.OID
	err := db.Do(func(tx *oodb.Tx) error {
		for i := 0; i < 100; i++ {
			oid, err := tx.Insert("Node", oodb.Attrs{"x": oodb.Int(int64(i))})
			if err != nil {
				return err
			}
			oids = append(oids, oid)
		}
		for i, oid := range oids {
			if err := tx.Update(oid, oodb.Attrs{"next": oodb.Ref(oids[(i+1)%len(oids)])}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	ws := db.NewWorkspace()
	// Materialize the ring.
	d, _ := ws.Fetch(oids[0])
	for i := 0; i < 100; i++ {
		d, _ = d.Deref("next")
	}
	return ws, oids[0]
}

func BenchmarkE5_WorkspaceDeref(b *testing.B) {
	ws, root := e5Workspace(b)
	d, _ := ws.Fetch(root)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, err := d.Deref("next")
		if err != nil {
			b.Fatal(err)
		}
		d = next
	}
}

func BenchmarkE5_EngineFetch(b *testing.B) {
	db := openBenchDB(b)
	db.DefineClass("Node", nil, oodb.Attr{Name: "x", Domain: "Integer"})
	var oid oodb.OID
	db.Do(func(tx *oodb.Tx) error {
		var err error
		oid, err = tx.Insert("Node", oodb.Attrs{"x": oodb.Int(1)})
		return err
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Fetch(oid); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: schema evolution cost -------------------------------------------

func BenchmarkE6_AddAttributeLazy(b *testing.B) {
	// Adding an attribute high in a populated hierarchy is O(catalog), not
	// O(instances): the lazy default-fill contract.
	db := openBenchDB(b)
	if _, err := bench.BuildHierarchy(db, 4, 3, 100, 100, 6); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("extra%d", i)
		if err := db.AddAttribute("H0", oodb.Attr{
			Name: name, Domain: "Integer", Default: oodb.Int(0)}); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := db.DropAttribute("H0", name); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkE6_ReadLazyDefault(b *testing.B) {
	db := openBenchDB(b)
	if _, err := bench.BuildHierarchy(db, 2, 2, 200, 100, 6); err != nil {
		b.Fatal(err)
	}
	if err := db.AddAttribute("H0", oodb.Attr{
		Name: "extra", Domain: "Integer", Default: oodb.Int(42)}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := mustRows(b, db, `SELECT extra FROM H0 LIMIT 10`); n != 10 {
			b.Fatal("lazy read failed")
		}
	}
}

// --- E7: lock granularity throughput ------------------------------------

func benchE7(b *testing.B, workers int, coarse bool) {
	db := openBenchDB(b)
	db.DefineClass("Counter", nil, oodb.Attr{Name: "n", Domain: "Integer"})
	var oids []oodb.OID
	db.Do(func(tx *oodb.Tx) error {
		for i := 0; i < workers; i++ {
			oid, err := tx.Insert("Counter", oodb.Attrs{"n": oodb.Int(0)})
			if err != nil {
				return err
			}
			oids = append(oids, oid)
		}
		return nil
	})
	cls, err := db.ClassByName("Counter")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N/workers + 1
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				db.Do(func(tx *oodb.Tx) error {
					if coarse {
						// Class-level X lock: every writer serializes.
						if err := db.Engine().Locks.LockClassWrite(tx.ID(), cls.ID); err != nil {
							return err
						}
					}
					return tx.Update(oids[w], oodb.Attrs{"n": oodb.Int(int64(i))})
				})
			}
		}(w)
	}
	wg.Wait()
}

func BenchmarkE7_InstanceLocks_8Writers(b *testing.B) { benchE7(b, 8, false) }
func BenchmarkE7_ClassXLock_8Writers(b *testing.B)    { benchE7(b, 8, true) }

// --- E14: read-path concurrency (sharded pool + parallel scope scans) ----

// e14DB builds a moderately deep hierarchy with no indexes, so every query
// is a multi-class heap scan — the workload that serializes on the storage
// layer's locks. Run with -cpu 1,4,8 to see the scaling curve; -cpu 1 is
// also the serial-executor ablation, because the per-class fan-out runs at
// most GOMAXPROCS scans at once.
func e14DB(b *testing.B) *oodb.DB {
	db := openBenchDB(b)
	if _, err := bench.BuildHierarchy(db, 4, 3, 200, 1000, 1); err != nil { // 21 classes, 4200 objects
		b.Fatal(err)
	}
	// Warm the buffer pool so the benchmark measures lock contention on
	// cached pages, not disk I/O.
	mustRows(b, db, `SELECT * FROM H0 WHERE val < 0`)
	return db
}

func BenchmarkE14_HierarchyScan_Concurrent(b *testing.B) {
	db := e14DB(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			mustRows(b, db, fmt.Sprintf(`SELECT * FROM H0 WHERE val < %d`, i%1000))
			i++
		}
	})
}

func BenchmarkE14_HierarchyScan_SingleClient(b *testing.B) {
	// One client, many cores: per-query latency. The per-class fan-out is
	// the only parallelism available here.
	db := e14DB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustRows(b, db, fmt.Sprintf(`SELECT * FROM H0 WHERE val < %d`, i%1000))
	}
}

// --- E8: optimizer ablation ----------------------------------------------

func BenchmarkE8_Optimized(b *testing.B) {
	db := e1DB(b, "ch")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustRows(b, db, fmt.Sprintf(`SELECT * FROM H0 WHERE val = %d`, i%1000))
	}
}

func BenchmarkE8_ForcedScan(b *testing.B) {
	// Same database and query, optimizer disabled via the engine-level
	// switch (exposed in internal/query; here we simply define no index).
	db := e1DB(b, "none")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustRows(b, db, fmt.Sprintf(`SELECT * FROM H0 WHERE val = %d`, i%1000))
	}
}

// --- E9: recovery time against log length --------------------------------

const e9Classes = 8

// BenchmarkE9_Recovery reopens a crashed database whose log holds txns
// transactions of 100 inserts, round-robin over 8 classes, with no
// checkpoint: one op is one recovery (torn-page restore, replay, directory
// rebuild) of a fresh copy of the crashed directory.
func BenchmarkE9_Recovery(b *testing.B) {
	for _, txns := range []int{10, 50, 200, 800} {
		crashed := e9Crash(b, txns)
		st, err := os.Stat(filepath.Join(crashed, "log.wal"))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("txns=%d", txns), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := copyDir(b, crashed)
				b.StartTimer()
				db, err := oodb.Open(dir, oodb.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				n := 0
				for c := 0; c < e9Classes; c++ {
					n += db.Engine().Store.Count(mustClassID(b, db, fmt.Sprintf("P%d", c)))
				}
				if n != txns*100 {
					b.Fatalf("recovered %d objects, want %d", n, txns*100)
				}
				db.Close()
				os.RemoveAll(dir)
				b.StartTimer()
			}
			b.ReportMetric(float64(st.Size()), "wal_bytes")
		})
	}
}

// e9Crash commits txns transactions with checkpointing off, syncs the log
// and returns a copy of the directory taken then: the state a crash leaves.
func e9Crash(b *testing.B, txns int) string {
	live := b.TempDir()
	db, err := oodb.Open(live, oodb.Options{NoSync: true, CheckpointBytes: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	for c := 0; c < e9Classes; c++ {
		if _, err := db.DefineClass(fmt.Sprintf("P%d", c), nil, oodb.Attr{Name: "n", Domain: "Integer"}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < txns; i++ {
		err := db.Do(func(tx *oodb.Tx) error {
			for j := 0; j < 100; j++ {
				if _, err := tx.Insert(fmt.Sprintf("P%d", i%e9Classes), oodb.Attrs{"n": oodb.Int(int64(j))}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Engine().Log.Sync(); err != nil {
		b.Fatal(err)
	}
	return copyDir(b, live)
}

// copyDir copies a database directory's files into a new directory that
// is removed when b's benchmark ends.
func copyDir(b *testing.B, src string) string {
	b.Helper()
	dst := b.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	return dst
}

// --- E10: Wisconsin-style relational operations --------------------------

func e10Relation(b *testing.B, indexed bool) *relational.Relation {
	rdb := relational.NewDB()
	rel, err := rdb.Create("wisc", "unique1", "unique2", "ten", "hundred", "str")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		rel.Insert(
			model.Int(int64(i)), model.Int(int64((i*7)%10000)),
			model.Int(int64(i%10)), model.Int(int64(i%100)),
			model.String(fmt.Sprintf("w%06d", i)),
		)
	}
	if indexed {
		rel.CreateIndex("unique1")
	}
	return rel
}

func BenchmarkE10_Selection1Pct_Indexed(b *testing.B) {
	rel := e10Relation(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64((i * 97) % 9900)
		rows, err := rel.SelectRange("unique1", model.Int(lo), model.Int(lo+99), true)
		if err != nil || len(rows) != 100 {
			b.Fatalf("selection: %d rows, %v", len(rows), err)
		}
	}
}

func BenchmarkE10_Selection1Pct_Scan(b *testing.B) {
	rel := e10Relation(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64((i * 97) % 9900)
		rows, err := rel.SelectRange("unique1", model.Int(lo), model.Int(lo+99), true)
		if err != nil || len(rows) != 100 {
			b.Fatalf("selection: %d rows, %v", len(rows), err)
		}
	}
}

func BenchmarkE10_HashJoin(b *testing.B) {
	rdb := relational.NewDB()
	l, _ := rdb.Create("l", "k", "pad")
	r, _ := rdb.Create("r", "k", "pad")
	for i := 0; i < 5000; i++ {
		l.Insert(model.Int(int64(i)), model.Int(0))
		r.Insert(model.Int(int64(i%1000)), model.Int(0))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := relational.HashJoin(l, r, "k", "k")
		if err != nil || len(rows) != 5000 {
			b.Fatalf("join: %d rows, %v", len(rows), err)
		}
	}
}

// --- E11: composite clustering -------------------------------------------

// e11Composite declares Asm with a composite "parts" attribute and inserts
// a root with parts components, each followed by noise unattached padded
// objects so that the components scatter over the segment. The composite
// is shared, not exclusive: an exclusive Attach scans the class for an
// owner, which would make the build quadratic and measures nothing E11
// claims.
func e11Composite(b *testing.B, db *oodb.DB, parts, noise int) (*composite.Manager, oodb.OID) {
	if _, err := db.DefineClass("Asm", nil,
		oodb.Attr{Name: "name", Domain: "String"},
		oodb.Attr{Name: "pad", Domain: "String"},
		oodb.Attr{Name: "parts", Domain: "Asm", SetValued: true},
	); err != nil {
		b.Fatal(err)
	}
	cm, err := db.Composites()
	if err != nil {
		b.Fatal(err)
	}
	if err := cm.DeclareComposite(mustClassID(b, db, "Asm"), "parts", false); err != nil {
		b.Fatal(err)
	}
	pad := oodb.String(strings.Repeat("x", 200))
	var root oodb.OID
	err = db.Do(func(tx *oodb.Tx) error {
		var err error
		if root, err = tx.Insert("Asm", oodb.Attrs{"name": oodb.String("root")}); err != nil {
			return err
		}
		for i := 0; i < parts; i++ {
			child, err := tx.Insert("Asm", oodb.Attrs{"name": oodb.String(fmt.Sprintf("c%d", i)), "pad": pad})
			if err != nil {
				return err
			}
			if err := cm.Attach(tx, root, "parts", child); err != nil {
				return err
			}
			for j := 0; j < noise; j++ {
				if _, err := tx.Insert("Asm", oodb.Attrs{"name": oodb.String("noise"), "pad": pad}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return cm, root
}

// BenchmarkE11_ComponentFetch lists the components of a 50-part composite
// through a warm pool: the regression guard beside the cold variant below.
func BenchmarkE11_ComponentFetch(b *testing.B) {
	cm, root := e11Composite(b, openBenchDB(b), 50, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comps, err := cm.Components(root)
		if err != nil || len(comps) != 50 {
			b.Fatalf("components: %d, %v", len(comps), err)
		}
	}
}

// BenchmarkE11_ComponentFetchCold is E11 as the claim states it: one op
// fetches every component of a 2,000-part composite, interleaved 1:4 with
// noise, through a 32-page pool they do not fit in — scattered as
// inserted, and reclustered (depth-first rewrite by Recluster).
func BenchmarkE11_ComponentFetchCold(b *testing.B) {
	const parts = 2000
	for _, layout := range []string{"scattered", "reclustered"} {
		dir := b.TempDir()
		db, err := oodb.Open(dir, oodb.Options{NoSync: true, PoolPages: 8192})
		if err != nil {
			b.Fatal(err)
		}
		cm, root := e11Composite(b, db, parts, 4)
		if layout == "reclustered" {
			if err := db.Do(func(tx *oodb.Tx) error { _, err := cm.Recluster(tx, root); return err }); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		db = openCold(b, dir, 32)
		if cm, err = db.Composites(); err != nil {
			b.Fatal(err)
		}
		b.Run(layout, func(b *testing.B) {
			_, m0 := db.Engine().Store.PoolStats()
			for i := 0; i < b.N; i++ {
				comps, err := cm.Components(root)
				if err != nil || len(comps) != parts {
					b.Fatalf("components: %d, %v", len(comps), err)
				}
				for _, c := range comps {
					if _, err := db.Fetch(c); err != nil {
						b.Fatal(err)
					}
				}
			}
			_, m1 := db.Engine().Store.PoolStats()
			b.ReportMetric(float64(m1-m0)/float64(b.N), "misses/op")
		})
	}
}

// openCold opens dir through a pool of the given pages with the
// maintenance manager stopped, so an op measures the layout as it was
// built and the page reads it costs. The database closes when b ends.
func openCold(b *testing.B, dir string, pages int) *oodb.DB {
	b.Helper()
	db, err := oodb.Open(dir, oodb.Options{NoSync: true, PoolPages: pages})
	if err != nil {
		b.Fatal(err)
	}
	db.Maintenance().Stop()
	b.Cleanup(func() { db.Close() })
	return db
}

func mustClassID(b *testing.B, db *oodb.DB, name string) oodb.ClassID {
	b.Helper()
	cl, err := db.ClassByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return cl.ID
}

// --- E12: versions --------------------------------------------------------

func BenchmarkE12_Derive(b *testing.B) {
	db := openBenchDB(b)
	cl, err := db.DefineClass("Design", nil, oodb.Attr{Name: "name", Domain: "String"})
	if err != nil {
		b.Fatal(err)
	}
	vm, err := db.Versions()
	if err != nil {
		b.Fatal(err)
	}
	vm.EnableVersioning(cl.ID)
	var cur oodb.OID
	db.Do(func(tx *oodb.Tx) error {
		_, cur, err = vm.CreateVersioned(tx, cl.ID, oodb.Attrs{"name": oodb.String("x")})
		return err
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := db.Do(func(tx *oodb.Tx) error {
			next, err := vm.Derive(tx, cur)
			if err != nil {
				return err
			}
			cur = next
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE12_NotifyFanout(b *testing.B) {
	db := openBenchDB(b)
	cl, _ := db.DefineClass("Design", nil, oodb.Attr{Name: "name", Domain: "String"})
	vm, _ := db.Versions()
	vm.EnableVersioning(cl.ID)
	var g, v oodb.OID
	db.Do(func(tx *oodb.Tx) error {
		var err error
		g, v, err = vm.CreateVersioned(tx, cl.ID, oodb.Attrs{"name": oodb.String("x")})
		return err
	})
	for i := 0; i < 100; i++ {
		vm.RegisterDependent(g, oodb.OID(model.MakeOID(999, uint64(i+1))))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := db.Do(func(tx *oodb.Tx) error {
			next, err := vm.Derive(tx, v)
			v = next
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
		vm.ClearStale()
	}
}
