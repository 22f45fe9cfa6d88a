package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oodb/internal/model"
	"oodb/internal/schema"
)

// TestCheckpointOverlapsCommitters runs two committers and a snapshot
// reader through at least a hundred automatic checkpoints, closes cleanly,
// reopens and fetches every acknowledged insert. Once the WAL is over
// CheckpointBytes while the other committer is active, truncation is
// skipped and every commit of both committers asks for a checkpoint: before
// checkpoints were single-flight two of them overlapped, both freed the same
// old blob chains, and a page ended up with two owners (acknowledged inserts
// missing after reopen, a cyclic heap chain, or a buffer-pool panic). Under
// -race it also pins the rule that a checkpoint reads no frame a pin holder
// may be writing.
func TestCheckpointOverlapsCommitters(t *testing.T) {
	dir := t.TempDir()
	opts := Options{PoolPages: 256, CheckpointBytes: 64 << 10}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := db.DefineClass("Entry", nil,
		schema.AttrSpec{Name: "k", Domain: schema.ClassInteger},
		schema.AttrSpec{Name: "pad", Domain: schema.ClassString})
	if err != nil {
		t.Fatal(err)
	}

	const (
		committers     = 2
		minCheckpoints = 100
		minInserts     = 2000 // per committer
	)
	pad := model.String(strings.Repeat("x", 200))
	ckpt0 := mCkptNs.Count()
	deadline := time.Now().Add(60 * time.Second)
	var stop atomic.Bool

	acked := make([][]model.OID, committers)
	var wg sync.WaitGroup
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				var oid model.OID
				err := db.Do(func(tx *Tx) error {
					var err error
					oid, err = tx.InsertClass(cl.ID, map[string]model.Value{
						"k": model.Int(int64(w*1_000_000 + i)), "pad": pad})
					return err
				})
				if err != nil {
					t.Errorf("committer %d insert %d: %v", w, i, err)
					stop.Store(true)
					return
				}
				acked[w] = append(acked[w], oid)
				if w == 0 && i >= minInserts &&
					(mCkptNs.Count()-ckpt0 >= minCheckpoints || time.Now().After(deadline)) {
					stop.Store(true)
				}
			}
		}(w)
	}
	// The reader: only inserts run, so successive snapshots never shrink.
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := 0
		for !stop.Load() {
			tx := db.BeginSnapshot()
			n := 0
			err := tx.Scan(cl.ID, func(*model.Object) bool { n++; return true })
			tx.Commit()
			if err != nil {
				t.Errorf("snapshot scan: %v", err)
				stop.Store(true)
				return
			}
			if n < last {
				t.Errorf("snapshot scan shrank: %d rows after %d", n, last)
				stop.Store(true)
				return
			}
			last = n
		}
	}()
	wg.Wait()
	if got := mCkptNs.Count() - ckpt0; !t.Failed() && got < minCheckpoints {
		t.Errorf("only %d checkpoints ran, want >= %d", got, minCheckpoints)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if t.Failed() {
		return
	}

	// Reopen oracle. A page owned twice can leave a cyclic heap chain that
	// the directory rebuild never leaves, so the reopen is bounded.
	check := make(chan error, 1)
	go func() { check <- reopenAndFetch(dir, opts, cl.ID, acked) }()
	select {
	case err := <-check:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("reopen after a clean close did not finish")
	}
}

// reopenAndFetch opens the database and requires every acknowledged OID to
// be fetchable and the class to hold exactly those objects.
func reopenAndFetch(dir string, opts Options, class model.ClassID, acked [][]model.OID) error {
	db, err := Open(dir, opts)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer db.Close()
	total, missing := 0, 0
	for _, oids := range acked {
		for _, oid := range oids {
			total++
			if _, err := db.Fetch(oid); err != nil {
				missing++
			}
		}
	}
	if missing > 0 {
		return fmt.Errorf("%d of %d acknowledged inserts missing after the reopen", missing, total)
	}
	tx := db.Begin()
	defer tx.Commit()
	n := 0
	if err := tx.Scan(class, func(*model.Object) bool { n++; return true }); err != nil {
		return fmt.Errorf("scan after reopen: %w", err)
	}
	if n != total {
		return fmt.Errorf("scan after reopen found %d objects, %d were acknowledged", n, total)
	}
	return nil
}

// TestCommitBetweenFlushAndFenceSurvivesCrash commits one insert in the gap
// between a checkpoint's flush and its taking of the begin fence, then copies
// the files as they stand — a crash image — and reopens the copy. The
// transaction is over before the fence is taken, so the checkpoint truncates
// the log; unless it flushes again first, the insert's page is dirty only in
// the pool and the acknowledged commit is in neither file.
func TestCommitBetweenFlushAndFenceSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	opts := Options{PoolPages: 256}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cl, err := db.DefineClass("Entry", nil, schema.AttrSpec{Name: "k", Domain: schema.ClassInteger})
	if err != nil {
		t.Fatal(err)
	}
	var oid model.OID
	db.beforeCkptFence = func() {
		db.beforeCkptFence = nil
		err := db.Do(func(tx *Tx) error {
			var err error
			oid, err = tx.InsertClass(cl.ID, map[string]model.Value{"k": model.Int(7)})
			return err
		})
		if err != nil {
			t.Errorf("insert inside the checkpoint window: %v", err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if oid == 0 {
		t.Fatal("the checkpoint did not reach the hook")
	}

	crash := t.TempDir()
	for _, name := range []string{"data.kdb", "log.wal"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crash, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := reopenAndFetch(crash, opts, cl.ID, [][]model.OID{{oid}}); err != nil {
		t.Fatalf("acknowledged commit lost to the checkpoint: %v", err)
	}
}
