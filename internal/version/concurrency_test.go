package version

import (
	"sync"
	"testing"
	"time"

	"oodb/internal/core"
	"oodb/internal/model"
)

// Derive reads the generic's version set and next number only under the X
// locks it writes with: the parent version first, then the generic.

// listsExactly fails unless g's version set is want, every member is
// stored, and the members' numbers are distinct.
func listsExactly(t *testing.T, w *world, g model.OID, want ...model.OID) {
	t.Helper()
	vs, err := w.vm.Versions(g)
	if err != nil {
		t.Fatal(err)
	}
	got := map[model.OID]bool{}
	numbers := map[int64]model.OID{}
	for _, v := range vs {
		got[v] = true
		obj, err := w.db.Fetch(v)
		if err != nil {
			t.Fatalf("version set %v lists %s: %v", vs, v, err)
		}
		nv, _ := w.db.AttrValue(obj, attrNumber)
		n, _ := nv.AsInt()
		if other, dup := numbers[n]; dup {
			t.Fatalf("%s and %s both have number %d", other, v, n)
		}
		numbers[n] = v
	}
	if len(vs) != len(want) {
		t.Fatalf("version set = %v, want %v", vs, want)
	}
	for _, v := range want {
		if !got[v] {
			t.Fatalf("version set = %v, want %v", vs, want)
		}
	}
}

// tx1 derives from v1 and stays open; tx2 derives from v1 and parks; tx1
// aborts. The generic lists v1 and tx2's child only.
func TestDeriveBesideAbortedDerive(t *testing.T) {
	w := newWorld(t)
	g, v1 := w.create(t)
	tx1 := w.db.Begin()
	if _, err := w.vm.Derive(tx1, v1); err != nil {
		t.Fatal(err)
	}
	var child model.OID
	done := make(chan error, 1)
	go func() {
		done <- w.db.Do(func(tx *core.Tx) error {
			var err error
			child, err = w.vm.Derive(tx, v1)
			return err
		})
	}()
	time.Sleep(50 * time.Millisecond) // let tx2 park behind tx1
	if err := tx1.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	listsExactly(t, w, g, v1, child)
}

// Two derives from one working version start together, trial after trial:
// both commit, with distinct numbers, and both are listed.
func TestConcurrentDerivesAreBothListed(t *testing.T) {
	w := newWorld(t)
	for trial := 0; trial < 50; trial++ {
		g, v1 := w.create(t)
		if err := w.db.Do(func(tx *core.Tx) error {
			_, err := w.vm.Promote(tx, v1)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		var children [2]model.OID
		var errs [2]error
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := range children {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				errs[i] = w.db.Do(func(tx *core.Tx) error {
					var err error
					children[i], err = w.vm.Derive(tx, v1)
					return err
				})
			}()
		}
		close(start)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		listsExactly(t, w, g, v1, children[0], children[1])
	}
}

// StateOf takes no transaction and reads committed state: beside an open
// Promote it still reports transient, and after the promote aborts too.
func TestStateOfBesideUncommittedPromote(t *testing.T) {
	w := newWorld(t)
	_, v1 := w.create(t)
	tx := w.db.Begin()
	if st, err := w.vm.Promote(tx, v1); err != nil || st != Working {
		t.Fatalf("promote = %v (%v), want working", st, err)
	}
	if st, err := w.vm.StateOf(v1); err != nil || st != Transient {
		t.Fatalf("state beside an open promote = %v (%v), want transient", st, err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if st, err := w.vm.StateOf(v1); err != nil || st != Transient {
		t.Fatalf("state after the promote aborted = %v (%v), want transient", st, err)
	}
}
