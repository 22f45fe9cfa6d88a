package oodb

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// parkedInLockWait waits until n goroutines are blocked in the lock
// manager's Acquire.
func parkedInLockWait(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if strings.Count(stacks, "txn.(*LockManager).Acquire(") == n {
			return
		}
	}
	t.Fatalf("no %d goroutines waiting for a lock", n)
}

// TestQueryRetriesDeadlockVictim makes a statement that runs in a
// transaction of its own lose a deadlock, through DB.Query and through
// Session.Query outside a transaction. K1's hierarchy is K1, mid and last
// in scope order; t3 writes mid and w writes last. The statement locks K1
// and parks behind t3 on mid; w's write of K1 parks behind the statement;
// t3 commits, and the statement's S lock on last, which w holds, closes
// the cycle: the statement is the victim. It runs again once, after w
// commits, and counts all three objects.
func TestQueryRetriesDeadlockVictim(t *testing.T) {
	doors := map[string]func(db *DB, src string) (string, error){
		"DB.Query": func(db *DB, src string) (string, error) {
			res, err := db.Query(src)
			if err != nil {
				return "", err
			}
			return res.Rows[0].Values[0].String(), nil
		},
		"Session.Query": func(db *DB, src string) (string, error) {
			res, err := db.Session(nil, "").Query(src)
			if err != nil {
				return "", err
			}
			return res.Rows[0].Values[0].String(), nil
		},
	}
	for door, query := range doors {
		t.Run(door, func(t *testing.T) {
			db, err := Open(t.TempDir(), Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if _, err := db.DefineClass("K1", nil, Attr{Name: "val", Domain: "Integer"}); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"K2", "K3"} {
				if _, err := db.DefineClass(name, []string{"K1"}); err != nil {
					t.Fatal(err)
				}
			}
			k1, _ := db.ClassByName("K1")
			scope, err := db.eng.Catalog.Descendants(k1.ID)
			if err != nil || len(scope) != 3 || scope[0] != k1.ID {
				t.Fatalf("scope of K1 = %v, %v", scope, err)
			}
			oids := map[ClassID]OID{}
			if err := db.Do(func(tx *Tx) error {
				for _, class := range scope {
					oid, err := tx.InsertClass(class, Attrs{"val": Int(1)})
					if err != nil {
						return err
					}
					oids[class] = oid
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			write := func(tx *Tx, class ClassID) error {
				return tx.Update(oids[class], Attrs{"val": Int(2)})
			}
			t3, w := db.Begin(), db.Begin()
			if err := write(t3, scope[1]); err != nil {
				t.Fatal(err)
			}
			if err := write(w, scope[2]); err != nil {
				t.Fatal(err)
			}
			got := make(chan error, 1)
			go func() {
				n, err := query(db, "SELECT COUNT(*) FROM K1 WHERE val >= 1")
				if err == nil && n != "3" {
					err = fmt.Errorf("count %s, want 3", n)
				}
				got <- err
			}()
			parkedInLockWait(t, 1) // the statement, behind t3 on mid
			wrote := make(chan error, 1)
			go func() { wrote <- write(w, k1.ID) }()
			parkedInLockWait(t, 2) // w, behind the statement on K1
			if err := t3.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := <-wrote; err != nil {
				t.Fatalf("w's write after the statement lost the deadlock: %v", err)
			}
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := <-got; err != nil {
				t.Fatalf("%s beside a deadlock: %v", door, err)
			}
		})
	}
}
