package maint

import (
	"testing"
	"time"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/obs"
	"oodb/internal/schema"
)

// fakeClock is the injected clock of the quiet rule: time moves only when a
// test says so.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// hooked returns a manager with the given occupancy trigger, wired to db's
// checkpoint events and to a fake clock, with no loop running: the test
// plays the loop by calling runDue.
func hooked(db *core.DB, occupancy float64) (*Manager, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	m := New(db)
	m.minOccupancy = occupancy
	m.now = clk.now
	db.OnCheckpoint(m.observe)
	return m, clk
}

func counter(name string) uint64 { return obs.TakeSnapshot().Counters[name] }

func insertOne(t *testing.T, db *core.DB, cl *schema.Class, n int64) model.OID {
	t.Helper()
	var oid model.OID
	if err := db.Do(func(tx *core.Tx) (err error) {
		oid, err = tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(n)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return oid
}

// TestNoCompactWhileWriteHot: a sparse segment is signalled by the
// checkpoint, but as long as every look a quiet period later finds it
// written since the last one, the rewrite is put off and counted; the first
// quiet look rewrites it, once.
func TestNoCompactWhileWriteHot(t *testing.T) {
	db, cl, _ := openDB(t)
	m, clk := hooked(db, minOccupancy)
	kept := fragment(t, db, cl, 2000, 10)
	runs0, quiet0 := counter("maint_auto_compactions_total"), counter("maint_auto_skipped_quiet_total")

	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before, _ := db.SegmentInfo(cl.ID)
	if before.Occupancy >= 0.5 {
		t.Fatalf("fragment left the segment dense: %+v", before)
	}
	if next, ok := m.runDue(clk.now()); !ok || !next.Equal(clk.now().Add(quietPeriod)) {
		t.Fatalf("after the signal the class is due at %v (%v), want one quiet period on", next, ok)
	}
	for round := 1; round <= 3; round++ {
		kept = append(kept, insertOne(t, db, cl, int64(-round)))
		clk.advance(quietPeriod)
		if _, ok := m.runDue(clk.now()); !ok {
			t.Fatalf("round %d: a written segment was dropped, not put off", round)
		}
		if got := counter("maint_auto_skipped_quiet_total") - quiet0; got != uint64(round) {
			t.Fatalf("round %d: %d quiet skips counted", round, got)
		}
	}
	if n := counter("maint_auto_compactions_total") - runs0; n != 0 {
		t.Fatalf("%d compactions of a write-hot segment", n)
	}
	if info, _ := db.SegmentInfo(cl.ID); info.Pages < before.Pages {
		t.Fatalf("write-hot segment was rewritten: %d -> %d pages", before.Pages, info.Pages)
	}

	clk.advance(quietPeriod)
	if _, ok := m.runDue(clk.now()); ok {
		t.Fatal("the class is still pending after its quiet look")
	}
	if n := counter("maint_auto_compactions_total") - runs0; n != 1 {
		t.Fatalf("%d compactions after the segment went quiet, want 1", n)
	}
	after, _ := db.SegmentInfo(cl.ID)
	if after.Occupancy < 0.8 || after.Pages >= before.Pages {
		t.Fatalf("rewrite left %+v (was %+v)", after, before)
	}
	if when, ok := m.LastAutoCompaction(cl.ID); !ok || !when.Equal(clk.now()) {
		t.Fatalf("last automatic compaction = %v (%v)", when, ok)
	}
	if got := counter("maint_auto_pages_rewritten"); got == 0 {
		t.Fatal("the rewrite's pages were not booked")
	}
	// Freeing the old chain logged a page image per page; the rewrite ends
	// with a checkpoint that truncates them away.
	if size := db.Log.Size(); size > int64(before.Pages)*1024 {
		t.Fatalf("log is %d bytes after the rewrite of a %d-page segment", size, before.Pages)
	}
	for _, oid := range kept {
		if _, err := db.Fetch(oid); err != nil {
			t.Fatalf("%s unreadable after the rewrite: %v", oid, err)
		}
	}
	// Dense now: further checkpoints signal nothing.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	clk.advance(quietPeriod)
	if _, ok := m.runDue(clk.now()); ok || counter("maint_auto_compactions_total")-runs0 != 1 {
		t.Fatal("a dense segment was signalled again")
	}
}

// TestAutoCompactHysteresis: with a threshold the records cannot be packed
// up to, the first rewrite is futile; the checkpoints after it are turned
// away by the hysteresis guard instead of rewriting the segment again and
// again, until it has lost half of what the rewrite reached.
func TestAutoCompactHysteresis(t *testing.T) {
	db, cl, _ := openDB(t)
	m, clk := hooked(db, 0.99)
	var oids []model.OID
	if err := db.Do(func(tx *core.Tx) error {
		for i := 0; i < 3000; i++ {
			oid, err := tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(int64(i))})
			if err != nil {
				return err
			}
			oids = append(oids, oid)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	runs0, hyst0 := counter("maint_auto_compactions_total"), counter("maint_auto_skipped_hysteresis_total")
	settle := func() {
		t.Helper()
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		clk.advance(quietPeriod)
		m.runDue(clk.now())
	}

	settle()
	if n := counter("maint_auto_compactions_total") - runs0; n != 1 {
		t.Fatalf("%d compactions of a segment under the threshold, want 1", n)
	}
	reached, _ := db.SegmentInfo(cl.ID)
	if reached.Occupancy >= 0.99 {
		t.Fatalf("the test's records pack to %.3f: the rewrite was not futile", reached.Occupancy)
	}
	for i := 0; i < 3; i++ {
		settle()
	}
	if n := counter("maint_auto_compactions_total") - runs0; n != 1 {
		t.Fatalf("%d compactions: the futile rewrite was repeated", n)
	}
	if n := counter("maint_auto_skipped_hysteresis_total") - hyst0; n != 3 {
		t.Fatalf("%d signals turned away by hysteresis, want 3", n)
	}

	// Lose well over half of the live bytes: worth a rewrite again.
	if err := db.Do(func(tx *core.Tx) error {
		for i, oid := range oids {
			if i%5 != 0 {
				if err := tx.Delete(oid); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	settle()
	if n := counter("maint_auto_compactions_total") - runs0; n != 2 {
		t.Fatalf("%d compactions after the segment lost four fifths, want 2", n)
	}
	if info, _ := db.SegmentInfo(cl.ID); info.Pages >= reached.Pages {
		t.Fatalf("second rewrite did not shrink the segment: %d -> %d pages", reached.Pages, info.Pages)
	}
}

// TestStartStop exercises the event-driven loop with the real clock: a
// started manager rewrites a sparse segment after a checkpoint with nobody
// calling it, a stopped one leaves the layout alone, and one started over
// dead space that is already there (a reopened database) finds it without
// waiting for a checkpoint.
func TestStartStop(t *testing.T) {
	db, cl, _ := openDB(t)
	m := New(db)
	m.Start()
	m.Start() // idempotent
	kept := fragment(t, db, cl, 2000, 10)
	runs0 := counter("maint_auto_compactions_total")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for counter("maint_auto_compactions_total") == runs0 {
		if time.Now().After(deadline) {
			t.Fatal("the started manager never compacted the sparse segment")
		}
		time.Sleep(10 * time.Millisecond)
	}
	m.Stop()
	m.Stop() // idempotent
	if info, _ := db.SegmentInfo(cl.ID); info.Occupancy < 0.8 {
		t.Fatalf("after the automatic rewrite: %+v", info)
	}
	for _, oid := range kept {
		if _, err := db.Fetch(oid); err != nil {
			t.Fatalf("%s unreadable: %v", oid, err)
		}
	}

	// Stopped: the same shape of work is signalled but nothing rewrites it.
	for i, oid := range kept {
		if i%10 != 0 {
			if err := db.Do(func(tx *core.Tx) error { return tx.Delete(oid) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	runs1 := counter("maint_auto_compactions_total")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * quietPeriod)
	if counter("maint_auto_compactions_total") != runs1 {
		t.Fatal("a stopped manager compacted")
	}

	m2 := New(db)
	m2.Start()
	defer m2.Stop()
	deadline = time.Now().Add(10 * time.Second)
	for counter("maint_auto_compactions_total") == runs1 {
		if time.Now().After(deadline) {
			t.Fatal("a manager started over a sparse segment never compacted it")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
