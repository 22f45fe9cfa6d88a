package maint

import (
	"bytes"
	"sort"
	"strings"
	"testing"
	"time"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/obs"
	"oodb/internal/schema"
	"oodb/internal/storage"
)

// openDB opens a fresh database with one class P{n Integer, pad String}.
func openDB(t *testing.T) (*core.DB, *schema.Class, string) {
	t.Helper()
	dir := t.TempDir()
	db, err := core.Open(dir, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	cl, err := db.DefineClass("P", nil,
		schema.AttrSpec{Name: "n", Domain: schema.ClassInteger},
		schema.AttrSpec{Name: "pad", Domain: schema.ClassString})
	if err != nil {
		t.Fatal(err)
	}
	return db, cl, dir
}

// fragment inserts n padded objects into cl and deletes all but every
// keepEvery-th, leaving the segment long and mostly dead. Returns the
// surviving OIDs.
func fragment(t *testing.T, db *core.DB, cl *schema.Class, n, keepEvery int) []model.OID {
	t.Helper()
	pad := strings.Repeat("x", 200)
	oids := make([]model.OID, n)
	if err := db.Do(func(tx *core.Tx) error {
		for i := range oids {
			oid, err := tx.InsertClass(cl.ID, map[string]model.Value{
				"n": model.Int(int64(i)), "pad": model.String(pad)})
			if err != nil {
				return err
			}
			oids[i] = oid
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var kept []model.OID
	if err := db.Do(func(tx *core.Tx) error {
		for i, oid := range oids {
			if i%keepEvery == 0 {
				kept = append(kept, oid)
				continue
			}
			if err := tx.Delete(oid); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return kept
}

// leakPages manufactures durable garbage the way a crash inside the
// detach→checkpoint→free window does: a segment the durable metadata no
// longer names, never freed.
func leakPages(t *testing.T, db *core.DB) {
	t.Helper()
	const orphan = model.ClassID(4001)
	if err := db.Store.CreateSegment(orphan); err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("L", 3*storage.PageSize)
	for i := 0; i < 4; i++ {
		oid, err := db.Store.NewOID(orphan)
		if err != nil {
			t.Fatal(err)
		}
		o := model.NewObject(oid)
		o.Set(1, model.String(big))
		if err := db.Store.Put(oid, model.EncodeObject(o)); err != nil {
			t.Fatal(err)
		}
	}
	if db.Store.DetachSegment(orphan) == nil {
		t.Fatal("detach returned nil")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepReclaimsAndCompacts is the maintenance acceptance test: after a
// leak workload plus heavy fragmentation, the engine's on-demand jobs — one
// call each — reclaim every leaked page (driving
// storage_account_leaked_pages to zero), compact the fragmented segment and
// refresh its statistics in the same pass, and leave every surviving
// object readable.
func TestSweepReclaimsAndCompacts(t *testing.T) {
	db, cl, _ := openDB(t)
	kept := fragment(t, db, cl, 2000, 10)
	leakPages(t, db)

	acct, err := db.Store.AccountPages()
	if err != nil {
		t.Fatal(err)
	}
	if acct.Leaked == 0 {
		t.Fatal("leak workload produced no leaked pages")
	}
	if g := obs.TakeSnapshot().Gauges["storage_account_leaked_pages"]; g == 0 {
		t.Fatal("leak gauge not raised before the reclaim")
	}
	infoBefore, err := db.SegmentInfo(cl.ID)
	if err != nil {
		t.Fatal(err)
	}

	n, err := db.ReclaimLeaked(0)
	if err != nil {
		t.Fatalf("reclaim on an idle database: %v", err)
	}
	if uint64(n) != acct.Leaked {
		t.Fatalf("reclaimed %d pages, want %d", n, acct.Leaked)
	}
	res, err := db.CompactClass(cl.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.PagesAfter >= res.PagesBefore || res.PagesBefore != infoBefore.Pages {
		t.Fatalf("compaction did not shrink the fragmented segment: %+v", res)
	}
	if g := obs.TakeSnapshot().Gauges["storage_account_leaked_pages"]; g != 0 {
		t.Fatalf("storage_account_leaked_pages = %d after the reclaim, want 0", g)
	}
	after, err := db.Store.AccountPages()
	if err != nil {
		t.Fatal(err)
	}
	if after.Leaked != 0 {
		t.Fatalf("%d pages leaked after reclaim and compaction (ids %v)", after.Leaked, after.LeakedPages)
	}
	infoAfter, err := db.SegmentInfo(cl.ID)
	if err != nil {
		t.Fatal(err)
	}
	if infoAfter.Pages != res.PagesAfter {
		t.Fatalf("segment has %d pages, the compaction reported %d", infoAfter.Pages, res.PagesAfter)
	}
	for _, oid := range kept {
		if _, err := db.Fetch(oid); err != nil {
			t.Fatalf("object %s unreadable after compaction: %v", oid, err)
		}
	}
	// The compaction analyzed the class in the same pass.
	cs := db.Stats.Get(cl.ID)
	if cs == nil || cs.Cardinality != uint64(len(kept)) {
		t.Fatalf("stats after compaction = %+v, want cardinality %d", cs, len(kept))
	}
}

// TestSweepTriggerPolicy verifies the trigger leaves alone what its policy
// says to leave alone: dense segments and segments below the size floor
// are not signalled by a checkpoint.
func TestSweepTriggerPolicy(t *testing.T) {
	db, cl, _ := openDB(t)
	m, clk := hooked(db, minOccupancy)
	// Dense: everything inserted, nothing deleted.
	fragment(t, db, cl, 1000, 1)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.runDue(clk.now()); ok {
		t.Fatal("a dense segment was signalled")
	}

	// Sparse but tiny: below minPages.
	db2, cl2, _ := openDB(t)
	m2, clk2 := hooked(db2, minOccupancy)
	fragment(t, db2, cl2, 40, 40)
	info, err := db2.SegmentInfo(cl2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Occupancy >= minOccupancy {
		t.Fatalf("fragment left the tiny segment dense: %+v", info)
	}
	m2.minPages = info.Pages + 1
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, ok := m2.runDue(clk2.now()); ok {
		t.Fatal("a segment below the size floor was signalled")
	}
}

// TestAnalyzeStatsValues pins the collector's numbers on a known dataset:
// exact cardinality, per-attribute counts, exact distinct estimates below
// the sketch size, and correct bounds.
func TestAnalyzeStatsValues(t *testing.T) {
	db, cl, _ := openDB(t)
	// 120 objects; n cycles 0..29 (30 distinct), pad is one of 2 values.
	const total, distinctN = 120, 30
	if err := db.Do(func(tx *core.Tx) error {
		for i := 0; i < total; i++ {
			pad := "even"
			if i%2 == 1 {
				pad = "odd"
			}
			if _, err := tx.InsertClass(cl.ID, map[string]model.Value{
				"n": model.Int(int64(i % distinctN)), "pad": model.String(pad)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	cs, err := db.AnalyzeClass(cl.ID)
	if err != nil {
		t.Fatal(err)
	}
	if db.Stats.Get(cl.ID) != cs {
		t.Fatal("AnalyzeClass did not publish its statistics")
	}
	if cs.Cardinality != total {
		t.Fatalf("cardinality = %d, want %d", cs.Cardinality, total)
	}
	if cs.AvgSize() <= 0 {
		t.Fatalf("avg size = %f", cs.AvgSize())
	}
	attrs, err := db.Catalog.EffectiveAttrs(cl.ID)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*schema.Attribute{}
	for _, a := range attrs {
		byName[a.Name] = a
	}
	an := cs.Attr(byName["n"].ID)
	if an == nil || an.Count != total || an.Distinct != distinctN {
		t.Fatalf("attr n stats = %+v, want count=%d distinct=%d", an, total, distinctN)
	}
	if model.Compare(an.Min, model.Int(0)) != 0 || model.Compare(an.Max, model.Int(distinctN-1)) != 0 {
		t.Fatalf("attr n bounds = [%v, %v], want [0, %d]", an.Min, an.Max, distinctN-1)
	}
	ap := cs.Attr(byName["pad"].ID)
	if ap == nil || ap.Count != total || ap.Distinct != 2 {
		t.Fatalf("attr pad stats = %+v, want count=%d distinct=2", ap, total)
	}
}

// TestStatsSurviveReopen verifies analyzed statistics persist across a
// clean close and reopen (the registry rides the checkpoint root swap).
func TestStatsSurviveReopen(t *testing.T) {
	db, cl, dir := openDB(t)
	fragment(t, db, cl, 300, 3)
	if _, err := db.AnalyzeClass(cl.ID); err != nil {
		t.Fatal(err)
	}
	want := db.Stats.Get(cl.ID)
	if want == nil {
		t.Fatal("no stats after analyze")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := core.Open(dir, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got := db2.Stats.Get(cl.ID)
	if got == nil {
		t.Fatal("stats lost across reopen")
	}
	if got.Cardinality != want.Cardinality || got.TotalBytes != want.TotalBytes {
		t.Fatalf("reopened stats = %+v, want %+v", got, want)
	}
}

// TestCompactionInvisible is the differential test: the logical database —
// every OID and every attribute byte — is identical before and after a
// compaction, across a reopen, overflow objects included.
func TestCompactionInvisible(t *testing.T) {
	db, cl, dir := openDB(t)
	big := strings.Repeat("O", 3*storage.PageSize)
	var oids []model.OID
	if err := db.Do(func(tx *core.Tx) error {
		for i := 0; i < 400; i++ {
			pad := "small"
			if i%25 == 0 {
				pad = big
			}
			oid, err := tx.InsertClass(cl.ID, map[string]model.Value{
				"n": model.Int(int64(i)), "pad": model.String(pad)})
			if err != nil {
				return err
			}
			oids = append(oids, oid)
		}
		for i, oid := range oids {
			if i%3 == 0 {
				if err := tx.Delete(oid); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	snapshot := func(d *core.DB) map[model.OID][]byte {
		out := make(map[model.OID][]byte)
		if err := d.Store.ScanImages(cl.ID, func(oid model.OID, data []byte) bool {
			out[oid] = append([]byte(nil), data...)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	before := snapshot(db)

	if _, err := db.CompactClass(cl.ID); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := core.Open(dir, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	after := snapshot(db2)

	if len(before) != len(after) {
		t.Fatalf("row count changed across compaction: %d -> %d", len(before), len(after))
	}
	keys := make([]model.OID, 0, len(before))
	for oid := range before {
		keys = append(keys, oid)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, oid := range keys {
		b, ok := after[oid]
		if !ok {
			t.Fatalf("object %s lost across compaction", oid)
		}
		if !bytes.Equal(before[oid], b) {
			t.Fatalf("object %s bytes changed across compaction", oid)
		}
	}
}

// TestReclaimYieldsToTransactions verifies the reclaimer's begin fence:
// with a transaction in flight the walk would misclassify its uncommitted
// pages, so the reclaim must yield with ErrBusy instead of freeing them.
func TestReclaimYieldsToTransactions(t *testing.T) {
	db, cl, _ := openDB(t)
	tx := db.Begin()
	if _, err := tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ReclaimLeaked(time.Millisecond); err != core.ErrBusy {
		t.Fatalf("reclaim with a live transaction = %v, want ErrBusy", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ReclaimLeaked(0); err != nil {
		t.Fatalf("reclaim after commit: %v", err)
	}
}

// TestAnalyzeIgnoresUncommitted pins the snapshot-read fix: ANALYZE used
// to scan the raw heap and fold a concurrent writer's uncommitted rows
// into the planner statistics — rows an abort then made vanish, leaving
// the selectivity model describing a state that never existed. The
// statistics must describe committed truth before, during and after the
// writer's rollback.
func TestAnalyzeIgnoresUncommitted(t *testing.T) {
	db, cl, _ := openDB(t)
	const committed, uncommitted = 10, 50
	if err := db.Do(func(tx *core.Tx) error {
		for i := 0; i < committed; i++ {
			if _, err := tx.InsertClass(cl.ID, map[string]model.Value{
				"n": model.Int(int64(i))}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Bulk insert, left in flight: the rows are on the heap, uncommitted.
	w := db.Begin()
	for i := 0; i < uncommitted; i++ {
		if _, err := w.InsertClass(cl.ID, map[string]model.Value{
			"n": model.Int(int64(1000 + i))}); err != nil {
			t.Fatal(err)
		}
	}

	cs, err := db.AnalyzeClass(cl.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Cardinality != committed {
		t.Fatalf("ANALYZE under in-flight writer: cardinality = %d, want %d (uncommitted rows counted)", cs.Cardinality, committed)
	}

	// The writer aborts mid-ANALYZE era; the statistics stay truthful.
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	cs, err = db.AnalyzeClass(cl.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Cardinality != committed {
		t.Fatalf("ANALYZE after abort: cardinality = %d, want %d", cs.Cardinality, committed)
	}
}
