package core

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oodb/internal/model"
	"oodb/internal/schema"
)

// openGenDB opens a fresh database with one class G{g, k Integer} and
// inserts count objects at generation 0. Returns the OIDs in insertion
// order.
func openGenDB(t *testing.T, count int) (*DB, *schema.Class, []model.OID) {
	t.Helper()
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	cl, err := db.DefineClass("G", nil,
		schema.AttrSpec{Name: "g", Domain: schema.ClassInteger},
		schema.AttrSpec{Name: "k", Domain: schema.ClassInteger})
	if err != nil {
		t.Fatal(err)
	}
	oids := make([]model.OID, count)
	if err := db.Do(func(tx *Tx) error {
		for i := range oids {
			oid, err := tx.InsertClass(cl.ID, map[string]model.Value{
				"g": model.Int(0), "k": model.Int(int64(i))})
			if err != nil {
				return err
			}
			oids[i] = oid
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return db, cl, oids
}

// setGeneration commits one transaction that moves every object to
// generation g — the all-or-nothing unit the isolation tests assert on.
func setGeneration(db *DB, cl *schema.Class, oids []model.OID, g int64) error {
	return db.Do(func(tx *Tx) error {
		for _, oid := range oids {
			if err := tx.Update(oid, map[string]model.Value{"g": model.Int(g)}); err != nil {
				return err
			}
		}
		return nil
	})
}

// attrInt reads an integer attribute or fails the test.
func attrInt(t *testing.T, db *DB, obj *model.Object, name string) int64 {
	t.Helper()
	v, err := db.AttrValue(obj, name)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := v.AsInt()
	return n
}

func TestSnapshotReadOnlyEnforced(t *testing.T) {
	db, cl, oids := openGenDB(t, 3)
	tx := db.BeginSnapshot()
	if !tx.snap {
		t.Fatal("BeginSnapshot returned a non-snapshot transaction")
	}
	if _, err := tx.InsertClass(cl.ID, map[string]model.Value{"g": model.Int(1)}); !errors.Is(err, ErrReadOnlyTxn) {
		t.Fatalf("Insert through snapshot = %v, want ErrReadOnlyTxn", err)
	}
	if err := tx.Update(oids[0], map[string]model.Value{"g": model.Int(1)}); !errors.Is(err, ErrReadOnlyTxn) {
		t.Fatalf("Update through snapshot = %v, want ErrReadOnlyTxn", err)
	}
	if err := tx.Delete(oids[0]); !errors.Is(err, ErrReadOnlyTxn) {
		t.Fatalf("Delete through snapshot = %v, want ErrReadOnlyTxn", err)
	}
	if err := tx.Rewrite(oids[0]); !errors.Is(err, ErrReadOnlyTxn) {
		t.Fatalf("Rewrite through snapshot = %v, want ErrReadOnlyTxn", err)
	}
	if _, err := tx.Fetch(oids[0]); err != nil {
		t.Fatalf("snapshot Fetch: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("snapshot Commit: %v", err)
	}
	if db.Versions.LiveSnapshots() != 0 {
		t.Fatalf("live snapshots after commit = %d, want 0", db.Versions.LiveSnapshots())
	}
	// Both finishers on one snapshot release it exactly once.
	tx2 := db.BeginSnapshot()
	tx2.Abort()
	if err := tx2.Commit(); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("second finish = %v, want ErrTxnFinished", err)
	}
	if db.Versions.LiveSnapshots() != 0 {
		t.Fatalf("live snapshots after abort+commit = %d, want 0", db.Versions.LiveSnapshots())
	}
}

// TestSnapshotDifferentialLockedScan is the acceptance differential: on a
// quiesced database a snapshot scan must return byte-identical images to
// a locked heap scan, both while the overlay still carries chains from
// history that ran beside an older, still live snapshot and after that
// snapshot's end has dropped them.
func TestSnapshotDifferentialLockedScan(t *testing.T) {
	db, cl, oids := openGenDB(t, 40)

	// Build history that leaves chains in the overlay: a pinned snapshot
	// keeps commit-time pruning from converging them.
	pin := db.BeginSnapshot()
	if err := setGeneration(db, cl, oids, 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Do(func(tx *Tx) error { // deletes: chains with delete markers
		for _, oid := range oids[:10] {
			if err := tx.Delete(oid); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Do(func(tx *Tx) error { // fresh inserts: chains with no base
		for i := 0; i < 5; i++ {
			if _, err := tx.InsertClass(cl.ID, map[string]model.Value{
				"g": model.Int(1), "k": model.Int(int64(1000 + i))}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if db.Versions.Chains() == 0 {
		t.Fatal("test is vacuous: overlay converged before the differential ran")
	}

	collect := func(scan func(fn func(oid model.OID, data []byte) bool) error) map[model.OID][]byte {
		out := make(map[model.OID][]byte)
		if err := scan(func(oid model.OID, data []byte) bool {
			out[oid] = append([]byte(nil), data...)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// Locked side: S lock on the class, then the raw heap.
	ltx := db.Begin()
	if err := ltx.LockClassScan([]model.ClassID{cl.ID}); err != nil {
		t.Fatal(err)
	}
	locked := collect(func(fn func(model.OID, []byte) bool) error {
		return db.Store.ScanImages(cl.ID, fn)
	})
	ltx.Commit()

	stx := db.BeginSnapshot()
	snap := collect(func(fn func(model.OID, []byte) bool) error {
		return stx.snapshotScanRaw(cl.ID, fn)
	})
	stx.Commit()
	pin.Commit() // the last live snapshot: its end drops the chains

	if len(snap) != len(locked) {
		t.Fatalf("snapshot scan returned %d objects, locked scan %d", len(snap), len(locked))
	}
	for oid, want := range locked {
		got, ok := snap[oid]
		if !ok {
			t.Fatalf("snapshot scan missing %s", oid)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("object %s differs: snapshot %d bytes, locked %d bytes", oid, len(got), len(want))
		}
	}

	// Ending the last snapshot converged the overlay; still identical.
	if live := db.Versions.Chains(); live != 0 {
		t.Fatalf("%d chains left after the last snapshot ended", live)
	}
	stx2 := db.BeginSnapshot()
	defer stx2.Commit()
	snap2 := collect(func(fn func(model.OID, []byte) bool) error {
		return stx2.snapshotScanRaw(cl.ID, fn)
	})
	if len(snap2) != len(locked) {
		t.Fatalf("converged snapshot scan returned %d objects, want %d", len(snap2), len(locked))
	}
	for oid, want := range locked {
		if !bytes.Equal(snap2[oid], want) {
			t.Fatalf("converged object %s differs from locked scan", oid)
		}
	}
}

// TestSnapshotIsolationAcrossWriter pins the visibility rules against a
// live writer: uncommitted updates and deletes are invisible, a snapshot
// begun before a commit keeps the old state after it, and a snapshot
// begun after sees the new state.
func TestSnapshotIsolationAcrossWriter(t *testing.T) {
	db, _, oids := openGenDB(t, 4)

	before := db.BeginSnapshot()
	defer before.Commit()

	w := db.Begin()
	if err := w.Update(oids[0], map[string]model.Value{"g": model.Int(7)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Delete(oids[1]); err != nil {
		t.Fatal(err)
	}

	// Uncommitted writer state: invisible to a snapshot begun before or
	// during the transaction.
	during := db.BeginSnapshot()
	for _, tx := range []*Tx{before, during} {
		obj, err := tx.Fetch(oids[0])
		if err != nil {
			t.Fatalf("fetch under writer: %v", err)
		}
		if g := attrInt(t, db, obj, "g"); g != 0 {
			t.Fatalf("snapshot sees uncommitted g=%d, want 0", g)
		}
		if _, err := tx.Fetch(oids[1]); err != nil {
			t.Fatalf("uncommitted delete already visible: %v", err)
		}
	}
	during.Commit()

	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	// The old snapshot still sees the pre-commit state.
	obj, err := before.Fetch(oids[0])
	if err != nil {
		t.Fatal(err)
	}
	if g := attrInt(t, db, obj, "g"); g != 0 {
		t.Fatalf("pre-commit snapshot drifted to g=%d", g)
	}
	if _, err := before.Fetch(oids[1]); err != nil {
		t.Fatalf("pre-commit snapshot lost the deleted object: %v", err)
	}
	n := 0
	if err := before.Scan(oids[0].Class(), func(*model.Object) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("pre-commit snapshot scan sees %d objects, want 4", n)
	}

	// A fresh snapshot sees the committed truth.
	after := db.BeginSnapshot()
	defer after.Commit()
	obj, err = after.Fetch(oids[0])
	if err != nil {
		t.Fatal(err)
	}
	if g := attrInt(t, db, obj, "g"); g != 7 {
		t.Fatalf("post-commit snapshot sees g=%d, want 7", g)
	}
	if _, err := after.Fetch(oids[1]); err == nil {
		t.Fatal("post-commit snapshot still sees the deleted object")
	}

	// An aborted writer leaves every snapshot untouched.
	a := db.Begin()
	if err := a.Update(oids[2], map[string]model.Value{"g": model.Int(99)}); err != nil {
		t.Fatal(err)
	}
	mid := db.BeginSnapshot()
	a.Abort()
	obj, err = mid.Fetch(oids[2])
	if err != nil {
		t.Fatal(err)
	}
	if g := attrInt(t, db, obj, "g"); g != 0 {
		t.Fatalf("snapshot across abort sees g=%d, want 0", g)
	}
	mid.Commit()
}

// TestSnapshotReadersVsWritersStress races N lock-free snapshot readers
// against a writer committing whole generations. Invariants, checked on
// every read: a snapshot observes one single generation across all
// objects (commits are all-or-nothing), pinned epochs never decrease, and
// the generation seen never decreases as epochs advance. Run under -race
// this doubles as the data-race net for the heap/overlay ordering
// protocol.
func TestSnapshotReadersVsWritersStress(t *testing.T) {
	const objects, readers, generations = 8, 4, 120
	db, cl, oids := openGenDB(t, objects)

	var lastCommitted atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for g := int64(1); g <= generations; g++ {
			if err := setGeneration(db, cl, oids, g); err != nil {
				t.Errorf("writer generation %d: %v", g, err)
				return
			}
			lastCommitted.Store(g)
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prevEpoch uint64
			var prevGen int64 = -1
			for {
				select {
				case <-stop:
					return
				default:
				}
				floor := lastCommitted.Load()
				tx := db.BeginSnapshot()
				epoch := tx.snapEpoch
				if epoch < prevEpoch {
					t.Errorf("epoch went backwards: %d after %d", epoch, prevEpoch)
				}
				prevEpoch = epoch
				gen := int64(-1)
				n := 0
				err := tx.Scan(cl.ID, func(obj *model.Object) bool {
					n++
					v, verr := db.AttrValue(obj, "g")
					if verr != nil {
						t.Errorf("attr g: %v", verr)
						return false
					}
					g, _ := v.AsInt()
					if gen == -1 {
						gen = g
					} else if g != gen {
						t.Errorf("torn snapshot at epoch %d: saw generations %d and %d", epoch, gen, g)
						return false
					}
					return true
				})
				tx.Commit()
				if err != nil {
					t.Errorf("snapshot scan: %v", err)
					return
				}
				if t.Failed() {
					return
				}
				if n != objects {
					t.Errorf("snapshot at epoch %d saw %d objects, want %d", epoch, n, objects)
					return
				}
				if gen < prevGen {
					t.Errorf("generation went backwards: %d after %d", gen, prevGen)
					return
				}
				prevGen = gen
				if gen < floor {
					t.Errorf("snapshot begun after generation %d committed saw generation %d", floor, gen)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Quiesced end state: the last snapshot to end converged the overlay.
	if n := db.Versions.Chains(); n != 0 {
		t.Fatalf("overlay still holds %d chains with no snapshot live", n)
	}
}

// TestChainsGoneWhenSnapshotEnds: an insert committed beside an open
// snapshot keeps its version chain while that snapshot lives. Ending the
// snapshot must drop every such chain by itself — nothing else would: the
// commits and the checkpoint that follow see no live snapshot, but prune
// only what they wrote.
func TestChainsGoneWhenSnapshotEnds(t *testing.T) {
	db, cl, oids := openGenDB(t, 1)
	snap := db.BeginSnapshot()
	for i := 0; i < 100; i++ {
		if err := db.Do(func(tx *Tx) error {
			_, err := tx.InsertClass(cl.ID, map[string]model.Value{"g": model.Int(1), "k": model.Int(int64(i))})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.Versions.Chains(); n != 100 {
		t.Fatalf("chains beside the open snapshot = %d, want 100", n)
	}
	if err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := setGeneration(db, cl, oids, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := db.Versions.Chains(); n != 0 {
		t.Fatalf("chains after the snapshot ended = %d, want 0", n)
	}
}

// TestReclaimLeakedQuiesces pins the ErrBusy-starvation fix: under a
// continuous stream of short transactions the bounded quiesce window
// (hold new begins, drain in-flight) lets the reclaimer run, where a
// try-once reclaim (wait 0) returns ErrBusy.
func TestReclaimLeakedQuiesces(t *testing.T) {
	db, cl, oids := openGenDB(t, 4)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = db.Do(func(tx *Tx) error {
					return tx.Update(oids[w], map[string]model.Value{"g": model.Int(int64(i))})
				})
			}
		}(w)
	}
	// Let the stream establish itself, then prove try-once starves while
	// the bounded window succeeds against the same load.
	time.Sleep(5 * time.Millisecond)
	busySeen := false
	for i := 0; i < 50; i++ {
		if _, err := db.ReclaimLeaked(0); err == ErrBusy {
			busySeen = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		if _, err := db.ReclaimLeaked(5 * time.Second); err != nil {
			t.Fatalf("bounded quiesce run %d failed under continuous load: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if !busySeen {
		t.Log("try-once reclaim never hit ErrBusy (load too light to pin starvation this run)")
	}

	// A transaction that outlives the window still yields ErrBusy.
	held := db.Begin()
	if _, err := held.InsertClass(cl.ID, map[string]model.Value{"g": model.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ReclaimLeaked(10 * time.Millisecond); err != ErrBusy {
		t.Fatalf("reclaim with a held transaction = %v, want ErrBusy", err)
	}
	if err := held.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ReclaimLeaked(time.Second); err != nil {
		t.Fatalf("reclaim after release: %v", err)
	}
}
