package oodb_test

// MVCC crash matrix: the version-chain overlay is volatile, so what a
// crash can break is the pact between the overlay and the durable state —
// a recovered database must never let a snapshot observe an uncommitted
// version, a torn generation, or a commit-epoch regression. The workload
// commits whole generations (every object moves together), checkpoints in
// the middle, and leaves one uncommitted generation aborting at the end;
// crashes are injected at every sampled I/O op between version-chain
// appends (the in-transaction heap writes), commit-epoch stamps (the
// commit records and their group sync) and the checkpoint.

import (
	"bytes"
	"testing"

	"oodb/internal/core"
	"oodb/internal/fault"
	"oodb/internal/model"
	"oodb/internal/schema"
)

const (
	mvccObjects     = 8
	mvccGenerations = 4
	mvccAbortedGen  = 99 // staged by a transaction that always aborts
)

// mvccWorkload is the deterministic workload behind TestCrashMatrixMVCC.
// Every run issues the identical I/O sequence, so a census enumerates
// exactly the ops a scheduled crash run will hit.
func mvccWorkload(dir string, inj *fault.Injector) error {
	inj.SetPhase("open")
	db, err := core.Open(dir, core.Options{
		PoolPages: 64,
		WrapDisk:  fault.WrapDisk(inj, dir+"/data.kdb"),
		WrapWAL:   fault.WrapWAL(inj),
	})
	if err != nil {
		return err
	}
	inj.SetPhase("setup")
	cl, err := db.DefineClass("V", nil,
		schema.AttrSpec{Name: "g", Domain: schema.ClassInteger, Default: model.Int(0)},
		schema.AttrSpec{Name: "k", Domain: schema.ClassInteger, Default: model.Int(0)})
	if err != nil {
		return err
	}
	oids := make([]model.OID, mvccObjects)
	err = db.Do(func(tx *core.Tx) error {
		for i := range oids {
			oid, err := tx.InsertClass(cl.ID, map[string]model.Value{
				"g": model.Int(0), "k": model.Int(int64(i))})
			if err != nil {
				return err
			}
			oids[i] = oid
		}
		return nil
	})
	if err != nil {
		return err
	}
	setGen := func(tx *core.Tx, g int64) error {
		for _, oid := range oids {
			if err := tx.Update(oid, map[string]model.Value{"g": model.Int(g)}); err != nil {
				return err
			}
		}
		return nil
	}
	for g := int64(1); g <= mvccGenerations; g++ {
		tx := db.Begin()
		// The chain-append window: every update installs its version-chain
		// entry before the heap write it shields.
		inj.SetPhase("append")
		if err := setGen(tx, g); err != nil {
			tx.Abort()
			return err
		}
		// The epoch-stamp window: commit record, group sync, stamp.
		inj.SetPhase("stamp")
		if err := tx.Commit(); err != nil {
			return err
		}
		if g == mvccGenerations/2 {
			inj.SetPhase("checkpoint")
			if err := db.Checkpoint(); err != nil {
				return err
			}
		}
	}
	// A generation that never commits: its chain entries and heap writes
	// land, then the whole thing rolls back. No recovered snapshot may
	// ever surface it.
	tx := db.Begin()
	inj.SetPhase("append")
	if err := setGen(tx, mvccAbortedGen); err != nil {
		tx.Abort()
		return err
	}
	inj.SetPhase("abort")
	if err := tx.Abort(); err != nil {
		return err
	}
	inj.SetPhase("close")
	return db.Close()
}

// mvccRun is mvccWorkload for the census driver: it returns no result to
// verify against.
func mvccRun(dir string, inj *fault.Injector) (struct{}, error) {
	return struct{}{}, mvccWorkload(dir, inj)
}

// verifyMVCCCrash reopens the crashed database without fault injection
// and checks the snapshot contract on the recovered state.
func verifyMVCCCrash(t *testing.T, r crashRun[struct{}]) {
	t.Helper()
	sched := r.sched
	db, err := core.Open(r.dir, core.Options{})
	if err != nil {
		t.Fatalf("recovery reopen after {%v}: %v", sched, err)
	}
	defer db.Close()

	cl, err := db.Catalog.ClassByName("V")
	if err != nil {
		return // crashed before the schema was durable: nothing to check
	}

	// Snapshot view: one whole committed generation or nothing — never the
	// aborted generation, never a mix (a mix is exactly an uncommitted or
	// half-stamped commit leaking through recovery).
	snap := db.BeginSnapshot()
	gen := int64(-1)
	var oids []model.OID
	snapImages := make(map[model.OID][]byte)
	err = snap.Scan(cl.ID, func(obj *model.Object) bool {
		oids = append(oids, obj.OID)
		snapImages[obj.OID] = model.EncodeObject(obj)
		v, verr := db.AttrValue(obj, "g")
		if verr != nil {
			t.Fatalf("schedule {%v}: attr g: %v", sched, verr)
		}
		g, _ := v.AsInt()
		if g == mvccAbortedGen {
			t.Fatalf("schedule {%v}: recovered snapshot exposes the aborted generation", sched)
		}
		if gen == -1 {
			gen = g
		} else if g != gen {
			t.Fatalf("schedule {%v}: recovered snapshot is torn: generations %d and %d", sched, gen, g)
		}
		return true
	})
	snap.Commit()
	if err != nil {
		t.Fatalf("schedule {%v}: snapshot scan: %v", sched, err)
	}
	if n := len(oids); n != 0 && n != mvccObjects {
		t.Fatalf("schedule {%v}: recovered snapshot sees %d of %d objects", sched, n, mvccObjects)
	}
	if gen > mvccGenerations {
		t.Fatalf("schedule {%v}: recovered generation %d was never committed", sched, gen)
	}

	// Differential: on the quiesced recovered database the snapshot view
	// must equal the locked heap view byte for byte.
	ltx := db.Begin()
	if err := ltx.LockClassScan([]model.ClassID{cl.ID}); err != nil {
		t.Fatalf("schedule {%v}: lock scan: %v", sched, err)
	}
	heap := 0
	err = ltx.ScanLocked(cl.ID, nil, func(im model.Image) bool {
		heap++
		obj, err := im.Decode()
		if err != nil {
			t.Fatalf("schedule {%v}: locked scan: %v", sched, err)
		}
		want, ok := snapImages[obj.OID]
		if !ok {
			t.Fatalf("schedule {%v}: locked scan sees %s, snapshot does not", sched, obj.OID)
		}
		if !bytes.Equal(model.EncodeObject(obj), want) {
			t.Fatalf("schedule {%v}: object %s differs between snapshot and locked read", sched, obj.OID)
		}
		return true
	})
	ltx.Commit()
	if err != nil {
		t.Fatalf("schedule {%v}: locked scan: %v", sched, err)
	}
	if heap != len(snapImages) {
		t.Fatalf("schedule {%v}: locked scan sees %d objects, snapshot %d", sched, heap, len(snapImages))
	}

	// Epoch monotonicity across the crash: RestoreEpoch replayed the
	// commit watermark, so a post-recovery commit must advance the epoch
	// and become visible to a fresh snapshot at full strength.
	if len(oids) == 0 {
		return
	}
	epochBefore := db.Versions.Epoch()
	err = db.Do(func(tx *core.Tx) error {
		for _, oid := range oids {
			if err := tx.Update(oid, map[string]model.Value{"g": model.Int(7)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("schedule {%v}: post-recovery commit: %v", sched, err)
	}
	if e := db.Versions.Epoch(); e <= epochBefore {
		t.Fatalf("schedule {%v}: post-recovery commit left epoch at %d (was %d)", sched, e, epochBefore)
	}
	after := db.BeginSnapshot()
	defer after.Commit()
	err = after.Scan(cl.ID, func(obj *model.Object) bool {
		v, _ := db.AttrValue(obj, "g")
		if g, _ := v.AsInt(); g != 7 {
			t.Fatalf("schedule {%v}: post-recovery snapshot sees g=%d, want 7", sched, g)
		}
		return true
	})
	if err != nil {
		t.Fatalf("schedule {%v}: post-recovery snapshot scan: %v", sched, err)
	}
}

// TestCrashMatrixMVCC crashes the workload in every phase that does I/O
// and verifies the snapshot contract after every recovery. The append and
// abort windows perform no I/O of their own (WAL appends buffer until the
// commit's group sync, heap writes live in the pool), so a crash "between
// the chain append and the stamp" is physically a crash at the stamp's
// first op — the stamp, checkpoint and close phases together cover every
// window the overlay creates. Lie schedules void the contract checked here.
func TestCrashMatrixMVCC(t *testing.T) {
	crashCensus(t, mvccRun, []string{"open", "setup", "stamp", "checkpoint", "close"}, 12,
		[]fault.Style{fault.StyleClean, fault.StyleTorn}, verifyMVCCCrash)
}
