package composite

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/schema"
	"oodb/internal/txn"
)

// An exclusive Attach holds X on the child before it looks for an owner,
// so no other transaction's attach of the child is uncommitted; another's
// unlink counts as a link until it commits.

// owners lists the assemblies whose parts include child.
func (w *cadWorld) owners(t *testing.T, child model.OID) []model.OID {
	t.Helper()
	var out []model.OID
	err := w.db.Scan([]model.ClassID{w.assembly.ID}, func(obj *model.Object) bool {
		parts, _ := w.db.AttrValue(obj, "parts")
		for _, ref := range refsOf(parts) {
			if ref == child {
				out = append(out, obj.OID)
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// tx1 attaches p to a1 and stays open; tx2's attach of p to a2 parks; tx1
// aborts. tx2's attach succeeds: the refusal would have rested on a link
// that never committed.
func TestAttachBesideAbortedAttach(t *testing.T) {
	w := newCADWorld(t)
	a1, a2 := w.newAssembly(t, "a1"), w.newAssembly(t, "a2")
	p := w.newPart(t, "p")
	tx1 := w.db.Begin()
	if err := w.cm.Attach(tx1, a1, "parts", p); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- w.db.Do(func(tx *core.Tx) error { return w.cm.Attach(tx, a2, "parts", p) })
	}()
	time.Sleep(50 * time.Millisecond) // let tx2 park behind tx1
	if err := tx1.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("attach after the other attach aborted: %v", err)
	}
	if got := w.owners(t, p); len(got) != 1 || got[0] != a2 {
		t.Fatalf("owners of %s = %v, want [%s]", p, got, a2)
	}
}

// attachBesideUnlink: p is attached exclusively to a1; tx1 unlinks it and
// stays open; tx2's attach of p to a2 must fail, since tx1 may yet abort
// and give p back to a1. After tx1 aborts, a1 alone owns p.
func attachBesideUnlink(t *testing.T, unlink func(w *cadWorld, tx *core.Tx, a1 model.OID) error) {
	w := newCADWorld(t)
	a1, a2 := w.newAssembly(t, "a1"), w.newAssembly(t, "a2")
	p := w.newPart(t, "p")
	if err := w.db.Do(func(tx *core.Tx) error { return w.cm.Attach(tx, a1, "parts", p) }); err != nil {
		t.Fatal(err)
	}
	tx1 := w.db.Begin()
	if err := unlink(w, tx1, a1); err != nil {
		t.Fatal(err)
	}
	tx2 := w.db.Begin()
	err := w.cm.Attach(tx2, a2, "parts", p)
	if abortErr := tx2.Abort(); err == nil && abortErr != nil {
		t.Fatal(abortErr)
	}
	if !errors.Is(err, ErrAlreadyOwned) {
		t.Fatalf("attach beside an uncommitted unlink: %v, want ErrAlreadyOwned", err)
	}
	if err := tx1.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := w.owners(t, p); len(got) != 1 || got[0] != a1 {
		t.Fatalf("owners of %s = %v, want [%s]", p, got, a1)
	}
}

func TestAttachBesideUncommittedUpdateUnlink(t *testing.T) {
	attachBesideUnlink(t, func(w *cadWorld, tx *core.Tx, a1 model.OID) error {
		return tx.Update(a1, map[string]model.Value{"parts": model.Set()})
	})
}

func TestAttachBesideUncommittedDeleteUnlink(t *testing.T) {
	attachBesideUnlink(t, func(w *cadWorld, tx *core.Tx, a1 model.OID) error {
		return tx.Delete(a1)
	})
}

// A move inside one transaction — unlink p from a1 by Update or Delete,
// then attach it to a2 — succeeds, and a2 alone owns p.
func TestMoveWithinOneTransaction(t *testing.T) {
	for name, unlink := range map[string]func(tx *core.Tx, a1 model.OID) error{
		"update": func(tx *core.Tx, a1 model.OID) error {
			return tx.Update(a1, map[string]model.Value{"parts": model.Set()})
		},
		"delete": func(tx *core.Tx, a1 model.OID) error { return tx.Delete(a1) },
	} {
		t.Run(name, func(t *testing.T) {
			w := newCADWorld(t)
			a1, a2 := w.newAssembly(t, "a1"), w.newAssembly(t, "a2")
			p := w.newPart(t, "p")
			if err := w.db.Do(func(tx *core.Tx) error { return w.cm.Attach(tx, a1, "parts", p) }); err != nil {
				t.Fatal(err)
			}
			if err := w.db.Do(func(tx *core.Tx) error {
				if err := unlink(tx, a1); err != nil {
					return err
				}
				return w.cm.Attach(tx, a2, "parts", p)
			}); err != nil {
				t.Fatalf("move: %v", err)
			}
			if got := w.owners(t, p); len(got) != 1 || got[0] != a2 {
				t.Fatalf("owners of %s = %v, want [%s]", p, got, a2)
			}
		})
	}
}

// Two exclusive attaches of one part to two assemblies start together,
// trial after trial: exactly one succeeds, and the part has one owner.
func TestConcurrentExclusiveAttachesOneOwner(t *testing.T) {
	w := newCADWorld(t)
	parents := [2]model.OID{w.newAssembly(t, "a1"), w.newAssembly(t, "a2")}
	for trial := 0; trial < 50; trial++ {
		p := w.newPart(t, "p")
		var errs [2]error
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i, parent := range parents {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				errs[i] = w.db.Do(func(tx *core.Tx) error { return w.cm.Attach(tx, parent, "parts", p) })
			}()
		}
		close(start)
		wg.Wait()
		won := 0
		for _, err := range errs {
			switch {
			case err == nil:
				won++
			case !errors.Is(err, ErrAlreadyOwned):
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		if got := w.owners(t, p); won != 1 || len(got) != 1 {
			t.Fatalf("trial %d: %d attaches succeeded, owners %v; want exactly one", trial, won, got)
		}
	}
}

// Components takes no transaction and reads committed links: an attach
// still open is not listed, and one that aborted never is.
func TestComponentsBesideUncommittedAttach(t *testing.T) {
	w := newCADWorld(t)
	a := w.newAssembly(t, "a")
	p := w.newPart(t, "p")
	tx := w.db.Begin()
	if err := w.cm.Attach(tx, a, "parts", p); err != nil {
		t.Fatal(err)
	}
	if got, err := w.cm.Components(a); err != nil || len(got) != 0 {
		t.Fatalf("components of %s beside an open attach = %v (%v), want none", a, got, err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got, err := w.cm.Components(a); err != nil || len(got) != 0 {
		t.Fatalf("components of %s after the attach aborted = %v (%v), want none", a, got, err)
	}
}

// Attach's cycle walk reads the transaction's own links: a→b then b→a in
// one transaction is refused.
func TestCycleWithinOneTransactionRejected(t *testing.T) {
	w := newCADWorld(t)
	a, b := w.newAssembly(t, "a"), w.newAssembly(t, "b")
	err := w.db.Do(func(tx *core.Tx) error {
		if err := w.cm.Attach(tx, a, "subs", b); err != nil {
			return err
		}
		return w.cm.Attach(tx, b, "subs", a)
	})
	if !errors.Is(err, ErrCycle) {
		t.Fatalf("a→b then b→a in one transaction: %v, want ErrCycle", err)
	}
}

// Two transactions link a and b under each other through a shared
// composite attribute, crossing: T1 attaches b under a and stays open, then
// T2 attaches a under b in a second goroutine, then both commit. Attach's
// cycle walk takes S on each object it visits, so T2's walk of a waits for
// T1's X on a and then sees a→b; or the lock manager picks a deadlock
// victim. Either way one attach fails and no cycle is left.
func TestCrossingSharedAttachesLeaveNoCycle(t *testing.T) {
	w := newCADWorld(t)
	if _, err := w.db.AddAttribute(w.assembly.ID, schema.AttrSpec{Name: "uses", Domain: w.assembly.ID, SetValued: true}); err != nil {
		t.Fatal(err)
	}
	if err := w.cm.DeclareComposite(w.assembly.ID, "uses", false); err != nil {
		t.Fatal(err)
	}
	a, b := w.newAssembly(t, "a"), w.newAssembly(t, "b")
	tx1 := w.db.Begin()
	if err := w.cm.Attach(tx1, a, "uses", b); err != nil {
		t.Fatal(err)
	}
	attached, committed := make(chan struct{}), make(chan error, 1)
	go func() {
		tx2 := w.db.Begin()
		err := w.cm.Attach(tx2, b, "uses", a)
		close(attached)
		if err != nil {
			tx2.Abort()
			committed <- err
			return
		}
		committed <- tx2.Commit()
	}()
	select {
	case <-attached:
	case <-time.After(100 * time.Millisecond): // T2 waits behind T1
	}
	err1 := tx1.Commit()
	err2 := <-committed
	for _, err := range []error{err1, err2} {
		if err != nil && !errors.Is(err, ErrCycle) && !errors.Is(err, txn.ErrDeadlock) {
			t.Fatalf("crossing attach failed with %v, want ErrCycle or a deadlock abort", err)
		}
	}
	if err1 == nil && err2 == nil {
		t.Error("both crossing attaches committed")
	}
	fromA, errA := w.cm.Components(a)
	fromB, errB := w.cm.Components(b)
	if errA != nil || errB != nil || slices.Contains(fromA, b) && slices.Contains(fromB, a) {
		t.Fatalf("part-of cycle left: components of a %v (%v), of b %v (%v)", fromA, errA, fromB, errB)
	}
}
