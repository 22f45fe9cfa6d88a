package checkout

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"oodb/internal/core"
	"oodb/internal/model"
)

// Checkout runs the holder check and the record insert in one transaction
// that holds X on the object, so two checkouts of one object conflict.
func TestCheckoutRaceHasOneWinner(t *testing.T) {
	w := newWorld(t)
	users := [2]string{"alice", "bob"}
	for trial := 0; trial < 200; trial++ {
		var errs [2]error
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i, user := range users {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, errs[i] = w.cm.Checkout(user, w.oid)
			}()
		}
		close(start)
		wg.Wait()
		var winners []string
		for i, err := range errs {
			switch {
			case err == nil:
				winners = append(winners, users[i])
			case !errors.Is(err, ErrCheckedOut):
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		if len(winners) != 1 {
			t.Fatalf("trial %d: winners %v, want exactly one", trial, winners)
		}
		if holder, err := w.cm.Holder(w.oid); err != nil || holder != winners[0] {
			t.Fatalf("trial %d: holder %q, %v; want %q", trial, holder, err, winners[0])
		}
		if err := w.cm.Cancel(winners[0], w.oid); err != nil {
			t.Fatal(err)
		}
	}
}

// Holder and CheckedOutBy read the committed checkouts: beside an open
// transaction that inserts a checkout record, rewrites one and deletes
// another, and again after it aborts.
func TestHoldersBesideUncommittedRecords(t *testing.T) {
	w := newWorld(t)
	var d [3]model.OID
	err := w.db.Do(func(tx *core.Tx) error {
		for i := range d {
			var err error
			if d[i], err = tx.InsertClass(w.design.ID, map[string]model.Value{"rev": model.Int(int64(i))}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, user := range []string{"alice", "bob"} {
		if _, err := w.cm.Checkout(user, d[i]); err != nil {
			t.Fatal(err)
		}
	}
	records := map[string]model.OID{}
	snap := w.db.BeginSnapshot()
	err = snap.Scan(w.cm.record.ID, func(obj *model.Object) bool {
		user, _ := w.db.AttrValue(obj, "user")
		u, _ := user.AsString()
		records[u] = obj.OID
		return true
	})
	snap.Commit()
	if err != nil || len(records) != 2 {
		t.Fatalf("records %v, %v", records, err)
	}
	tx := w.db.Begin()
	defer tx.Abort()
	if _, err := tx.InsertClass(w.cm.record.ID, map[string]model.Value{
		"object": model.Ref(d[2]), "user": model.String("alice"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(records["bob"], map[string]model.Value{"user": model.String("alice")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(records["alice"]); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		for i, want := range []string{"alice", "bob", ""} {
			if got, err := w.cm.Holder(d[i]); err != nil || got != want {
				t.Fatalf("%s: holder of d%d = %q, %v; want %q", when, i, got, err, want)
			}
		}
		for i, user := range []string{"alice", "bob"} {
			if got, err := w.cm.CheckedOutBy(user); err != nil || !slices.Equal(got, d[i:i+1]) {
				t.Fatalf("%s: %s holds %v, %v; want %v", when, user, got, err, d[i:i+1])
			}
		}
	}
	check("beside the open transaction")
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	check("after its abort")
}
