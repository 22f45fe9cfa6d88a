package oodb_test

// Crash coverage for the WAL commit pipeline's I/O sites: the writer's
// batch append and fsync (crashed mid-flight under concurrent mixed
// sync/async committers) and the watermark publish (crashed in the window
// between a completed fsync and the durability announcement, via the
// WAL's afterSync test seam).

import (
	"sync"
	"testing"

	"oodb/internal/core"
	"oodb/internal/fault"
	"oodb/internal/model"
	"oodb/internal/schema"
)

// TestCrashDuringPipelineCommit runs four committers — two full-durability,
// two relaxed (CommitAsync) — into a scripted crash, then verifies the
// pipeline's two acknowledgment contracts on the recovered image:
//   - every sync-acked commit is durable;
//   - each worker's surviving async-acked commits form a prefix of its ack
//     order (the WAL holds commits in order, so a crash loses only a
//     suffix), and any survivor is complete and correct.
func TestCrashDuringPipelineCommit(t *testing.T) {
	for _, crashAt := range []int{200, 600} {
		sched := fault.Schedule{Seed: 11, CrashAt: crashAt, Style: fault.StyleClean}
		dir := t.TempDir()
		inj := fault.NewInjector(sched)
		db, err := core.Open(dir, core.Options{
			PoolPages: 128,
			WrapDisk:  fault.WrapDisk(inj, dir+"/data.kdb"),
			WrapWAL:   fault.WrapWAL(inj),
		})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		cl, err := db.DefineClass("G", nil,
			schema.AttrSpec{Name: "n", Domain: schema.ClassInteger, Default: model.Int(0)})
		if err != nil {
			t.Fatalf("define class: %v", err)
		}

		type acked struct {
			oid model.OID
			n   int64
		}
		const workers = 4
		synced := make([][]acked, workers)
		async := make([][]acked, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				relaxed := w >= workers/2
				for i := 0; ; i++ {
					tx := db.Begin()
					n := int64(w*1_000_000 + i)
					oid, err := tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(n)})
					if err != nil {
						tx.Abort()
						return
					}
					if relaxed {
						err = tx.CommitAsync()
					} else {
						err = tx.Commit()
					}
					if err != nil {
						return
					}
					if relaxed {
						async[w] = append(async[w], acked{oid, n})
					} else {
						synced[w] = append(synced[w], acked{oid, n})
					}
				}
			}(w)
		}
		wg.Wait()
		if !inj.Crashed() {
			t.Fatalf("workers stopped before the crash fired (schedule {%v})", sched)
		}

		db2, err := core.Open(dir, core.Options{})
		if err != nil {
			t.Fatalf("recovery reopen after {%v}: %v", sched, err)
		}
		checkRow := func(a acked) bool {
			obj, err := db2.Fetch(a.oid)
			if err != nil {
				return false
			}
			v, err := db2.AttrValue(obj, "n")
			if err != nil {
				t.Fatalf("attr n of %s: %v", a.oid, err)
			}
			if got, _ := v.AsInt(); got != a.n {
				t.Fatalf("object %s: n=%d want %d (schedule {%v})", a.oid, got, a.n, sched)
			}
			return true
		}
		var syncN, asyncN, asyncLost int
		for w, list := range synced {
			for _, a := range list {
				if !checkRow(a) {
					t.Fatalf("sync-acked commit lost: worker %d object %s n=%d (schedule {%v})", w, a.oid, a.n, sched)
				}
				syncN++
			}
		}
		for w, list := range async {
			gone := false
			for _, a := range list {
				if checkRow(a) {
					if gone {
						t.Fatalf("async survivor after a lost commit: worker %d n=%d — suffix-loss contract broken (schedule {%v})", w, a.n, sched)
					}
					asyncN++
				} else {
					gone = true
					asyncLost++
				}
			}
		}
		if err := db2.Close(); err != nil {
			t.Fatalf("close after verification: %v", err)
		}
		t.Logf("schedule {%v}: %d sync acks durable, %d async acks durable, %d async acks lost (allowed)",
			sched, syncN, asyncN, asyncLost)
	}
}

// TestCrashAtWatermarkPublish crashes in the pipeline's third I/O site:
// after a group fsync completes but before the writer publishes the new
// durability watermark. Everything acknowledged up to that moment has been
// through a completed fsync, so recovery must surface every acked commit.
func TestCrashAtWatermarkPublish(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(fault.Schedule{Seed: 3})
	db, err := core.Open(dir, core.Options{
		WrapDisk: fault.WrapDisk(inj, dir+"/data.kdb"),
		WrapWAL:  fault.WrapWAL(inj),
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	cl, err := db.DefineClass("W", nil,
		schema.AttrSpec{Name: "n", Domain: schema.ClassInteger, Default: model.Int(0)})
	if err != nil {
		t.Fatalf("define class: %v", err)
	}
	// Crash on the 5th post-arm fsync, in the fsync→publish window.
	var syncs int
	db.Log.SetAfterSync(func() {
		syncs++
		if syncs == 5 {
			inj.Crash()
		}
	})

	type acked struct {
		oid model.OID
		n   int64
	}
	var all []acked
	for i := 0; !inj.Crashed(); i++ {
		tx := db.Begin()
		oid, err := tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(int64(i))})
		if err != nil {
			tx.Abort()
			break
		}
		if err := tx.Commit(); err != nil {
			break
		}
		all = append(all, acked{oid, int64(i)})
	}
	if !inj.Crashed() {
		t.Fatal("workload ended before the publish-window crash fired")
	}
	if len(all) == 0 {
		t.Fatal("no commit was acknowledged before the crash; the test is vacuous")
	}

	db2, err := core.Open(dir, core.Options{})
	if err != nil {
		t.Fatalf("recovery reopen: %v", err)
	}
	defer db2.Close()
	for _, a := range all {
		obj, err := db2.Fetch(a.oid)
		if err != nil {
			t.Fatalf("acked commit lost at publish-window crash: %s (n=%d): %v", a.oid, a.n, err)
		}
		v, _ := db2.AttrValue(obj, "n")
		if got, _ := v.AsInt(); got != a.n {
			t.Fatalf("object %s: n=%d want %d", a.oid, got, a.n)
		}
	}
	t.Logf("%d acked commits durable across a crash between fsync and watermark publish", len(all))
}
