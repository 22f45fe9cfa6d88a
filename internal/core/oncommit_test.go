package core

import (
	"errors"
	"testing"

	"oodb/internal/model"
	"oodb/internal/txn"
)

// TestOnCommitRunsForAcknowledgedCommitsOnly: a queued function runs once
// for a commit — durable, async, or read-only — after the locks are
// released, and never for Abort, for an attempt Do rolls back, or for the
// deadlocked attempt Do retries.
func TestOnCommitRunsForAcknowledgedCommitsOnly(t *testing.T) {
	td := openVehicleDB(t)
	var oid model.OID
	if err := td.Do(func(tx *Tx) error {
		var err error
		oid, err = tx.Insert("Vehicle", map[string]model.Value{"weight": model.Int(1)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	ran := map[string]int{}
	update := func(tx *Tx, name string, w int64) error {
		tx.OnCommit(func() { ran[name]++ })
		return tx.Update(oid, map[string]model.Value{"weight": model.Int(w)})
	}

	tx := td.Begin()
	if err := update(tx, "commit", 2); err != nil {
		t.Fatal(err)
	}
	tx.OnCommit(func() {
		// The committed transaction's X lock is gone: a write to the same
		// object from the hook does not wait for it.
		if err := td.Do(func(tx *Tx) error { return update(tx, "nested", 3) }); err != nil {
			t.Errorf("write from the hook: %v", err)
		}
	})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("second Commit = %v", err)
	}

	tx = td.Begin()
	if err := update(tx, "async", 4); err != nil {
		t.Fatal(err)
	}
	if err := tx.CommitAsync(); err != nil {
		t.Fatal(err)
	}

	tx = td.Begin()
	tx.OnCommit(func() { ran["read-only"]++ })
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx = td.Begin()
	if err := update(tx, "abort", 5); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}

	errRollback := errors.New("roll back")
	if err := td.Do(func(tx *Tx) error {
		if err := update(tx, "rolled back", 6); err != nil {
			return err
		}
		return errRollback
	}); !errors.Is(err, errRollback) {
		t.Fatalf("Do = %v", err)
	}

	attempt := 0
	if err := td.Do(func(tx *Tx) error {
		attempt++
		if err := update(tx, "retry", int64(6+attempt)); err != nil {
			return err
		}
		if attempt == 1 {
			return txn.ErrDeadlock
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	want := map[string]int{"commit": 1, "nested": 1, "async": 1, "read-only": 1, "retry": 1}
	if len(ran) != len(want) {
		t.Fatalf("ran %v, want %v", ran, want)
	}
	for name, n := range want {
		if ran[name] != n {
			t.Fatalf("ran %v, want %v", ran, want)
		}
	}
}
