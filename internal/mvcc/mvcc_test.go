package mvcc

import (
	"bytes"
	"sync"
	"testing"

	"oodb/internal/model"
)

func oid(class model.ClassID, seq uint64) model.OID { return model.MakeOID(class, seq) }

// resolve is Resolve with the heap state the chain invariant prescribes:
// the pending image if a writer is in flight, else the newest committed
// version. Tests that need a divergent heap call Resolve directly.
func resolve(t *testing.T, m *Manager, id model.OID, heap []byte, snap uint64) ([]byte, bool) {
	t.Helper()
	return m.Resolve(id, heap, heap != nil, snap, 0)
}

func TestVisibilityAcrossEpochs(t *testing.T) {
	m := NewManager()
	id := oid(1, 1)
	v1, v2 := []byte("v1"), []byte("v2")

	// Writer installs v2 over committed v1.
	m.RecordWrite(100, id, v1, v2)
	before := m.BeginSnapshot()
	e := m.Commit(100)
	after := m.BeginSnapshot()
	if after != e {
		t.Fatalf("snapshot after commit pinned epoch %d, want %d", after, e)
	}

	if got, ok := resolve(t, m, id, v2, before); !ok || !bytes.Equal(got, v1) {
		t.Fatalf("pre-commit snapshot sees %q ok=%v, want %q", got, ok, v1)
	}
	if got, ok := resolve(t, m, id, v2, after); !ok || !bytes.Equal(got, v2) {
		t.Fatalf("post-commit snapshot sees %q ok=%v, want %q", got, ok, v2)
	}
	m.EndSnapshot(before)
	m.EndSnapshot(after)
}

func TestPendingInvisible(t *testing.T) {
	m := NewManager()
	id := oid(1, 1)
	v1, dirty := []byte("v1"), []byte("dirty")
	m.RecordWrite(7, id, v1, dirty)
	snap := m.BeginSnapshot()
	// The heap already holds the uncommitted image; the chain shields it.
	if got, ok := m.Resolve(id, dirty, true, snap, 0); !ok || !bytes.Equal(got, v1) {
		t.Fatalf("snapshot sees %q ok=%v, want committed %q", got, ok, v1)
	}
	m.Abort(7)
	if got, ok := m.Resolve(id, v1, true, snap, 0); !ok || !bytes.Equal(got, v1) {
		t.Fatalf("after abort snapshot sees %q ok=%v, want %q", got, ok, v1)
	}
	m.EndSnapshot(snap)
}

// TestPendingVisibleToItsWriter: the pending entry's owner reads the heap
// bytes — its own write, or its own delete — and every other reader the
// newest committed version.
func TestPendingVisibleToItsWriter(t *testing.T) {
	m := NewManager()
	id := oid(1, 1)
	v1, dirty := []byte("v1"), []byte("dirty")
	m.RecordWrite(7, id, v1, dirty)
	const newest = ^uint64(0)
	if got, ok := m.Resolve(id, dirty, true, newest, 7); !ok || !bytes.Equal(got, dirty) {
		t.Fatalf("writer sees %q ok=%v, want its own %q", got, ok, dirty)
	}
	if got, ok := m.Resolve(id, dirty, true, newest, 8); !ok || !bytes.Equal(got, v1) {
		t.Fatalf("another reader sees %q ok=%v, want committed %q", got, ok, v1)
	}
	m.RecordDelete(7, id, v1)
	if _, ok := m.Resolve(id, nil, false, newest, 7); ok {
		t.Fatal("writer still sees the object it deleted")
	}
	if got, ok := m.Resolve(id, nil, false, newest, 0); !ok || !bytes.Equal(got, v1) {
		t.Fatalf("a reader beside the delete sees %q ok=%v, want committed %q", got, ok, v1)
	}
	m.Abort(7)
}

func TestInsertInvisibleToOlderSnapshot(t *testing.T) {
	m := NewManager()
	id := oid(2, 9)
	snap := m.BeginSnapshot()
	m.RecordWrite(3, id, nil, []byte("new")) // insert: no base image
	m.Commit(3)
	if _, ok := m.Resolve(id, []byte("new"), true, snap, 0); ok {
		t.Fatal("insert committed after snapshot began must be invisible")
	}
	cur := m.BeginSnapshot()
	if got, ok := m.Resolve(id, []byte("new"), true, cur, 0); !ok || !bytes.Equal(got, []byte("new")) {
		t.Fatalf("current snapshot sees %q ok=%v, want the insert", got, ok)
	}
	m.EndSnapshot(snap)
	m.EndSnapshot(cur)
}

func TestDeleteVisibleToOlderSnapshot(t *testing.T) {
	m := NewManager()
	id := oid(2, 1)
	v1 := []byte("v1")
	snap := m.BeginSnapshot()
	m.RecordDelete(5, id, v1)
	m.Commit(5)
	// Heap record is gone; the old snapshot still sees the base version.
	if got, ok := m.Resolve(id, nil, false, snap, 0); !ok || !bytes.Equal(got, v1) {
		t.Fatalf("old snapshot sees %q ok=%v, want %q", got, ok, v1)
	}
	cur := m.BeginSnapshot()
	if _, ok := m.Resolve(id, nil, false, cur, 0); ok {
		t.Fatal("current snapshot must not see the deleted object")
	}
	if got := m.ClassChains(model.ClassID(2)); len(got) != 1 || got[0] != id {
		t.Fatalf("ClassChains = %v, want [%v]", got, id)
	}
	m.EndSnapshot(snap)
	m.EndSnapshot(cur)
}

// TestChainsDropWhenLastSnapshotEnds: a chain committed beside a live
// snapshot outlives the commit (the snapshot still reads through it) and is
// dropped by the EndSnapshot that leaves no snapshot live — not by an
// earlier one, and without a sweep.
func TestChainsDropWhenLastSnapshotEnds(t *testing.T) {
	m := NewManager()
	id := oid(1, 1)
	m.RecordWrite(1, id, []byte("v1"), []byte("v2"))
	m.Commit(1)
	m.RecordWrite(2, id, []byte("v2"), []byte("v3"))
	m.Commit(2)
	if m.Chains() != 0 {
		// No live snapshot: the commit-time prune already converged it.
		t.Fatalf("chains after unpinned commits = %d, want 0", m.Chains())
	}

	snap := m.BeginSnapshot()
	m.RecordWrite(3, id, []byte("v3"), []byte("v4"))
	m.Commit(3)
	other := oid(1, 2)
	m.RecordWrite(4, other, []byte("o1"), []byte("dirty"))
	m.Abort(4)
	later := m.BeginSnapshot()
	if got, ok := resolve(t, m, id, []byte("v4"), snap); !ok || !bytes.Equal(got, []byte("v3")) {
		t.Fatalf("pinned snapshot sees %q ok=%v, want v3", got, ok)
	}
	m.EndSnapshot(snap)
	if m.Chains() != 2 {
		t.Fatalf("chains with a snapshot still live = %d, want 2", m.Chains())
	}
	// A writer in flight on the chain when the last snapshot ends keeps it;
	// its own commit drops it.
	m.RecordWrite(5, id, []byte("v4"), []byte("v5"))
	m.EndSnapshot(later)
	if m.Chains() != 1 {
		t.Fatalf("chains after the last snapshot ended = %d, want only the one with a writer in flight", m.Chains())
	}
	m.Commit(5)
	if m.Chains() != 0 {
		t.Fatalf("chains after the in-flight writer committed = %d, want 0", m.Chains())
	}
}

// TestNoChainDropWhileSnapshotLive pins the converse of the ordering
// protocol: a chain may converge (abort leaves only the base; commit with
// an unobservable version likewise) but must stay installed while ANY
// snapshot is live. A reader between its heap read and its Resolve may
// hold the aborted writer's dirty bytes; removing the chain would make
// Resolve trust them.
func TestNoChainDropWhileSnapshotLive(t *testing.T) {
	m := NewManager()
	id := oid(1, 1)
	snap := m.BeginSnapshot()

	// Aborted write: chain converges to its base but must remain.
	m.RecordWrite(11, id, []byte("v1"), []byte("dirty"))
	m.Abort(11)
	if m.Chains() != 1 {
		t.Fatalf("chain dropped at abort with a live snapshot (chains=%d)", m.Chains())
	}
	if got, ok := m.Resolve(id, []byte("dirty"), true, snap, 0); !ok || !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("racing reader resolves %q ok=%v, want shielded base v1", got, ok)
	}

	// Committed write with no older pin than the commit itself: still kept
	// while the snapshot registry is non-empty.
	snap2 := m.BeginSnapshot()
	m.EndSnapshot(snap)
	m.RecordWrite(12, id, []byte("v1"), []byte("v2"))
	m.Commit(12)
	if m.Chains() != 1 {
		t.Fatalf("chain dropped at commit with a live snapshot (chains=%d)", m.Chains())
	}
	m.EndSnapshot(snap2)
	if m.Chains() != 0 {
		t.Fatalf("chains after the last snapshot ended = %d, want 0", m.Chains())
	}
}

func TestRestoreEpochMonotonic(t *testing.T) {
	m := NewManager()
	m.RestoreEpoch(41)
	m.RestoreEpoch(7) // lower: ignored
	if e := m.Epoch(); e != 41 {
		t.Fatalf("epoch = %d, want 41", e)
	}
	m.RecordWrite(1, oid(1, 1), nil, []byte("x"))
	if e := m.Commit(1); e != 42 {
		t.Fatalf("next commit epoch = %d, want 42", e)
	}
}

func TestMultiWriteSingleStamp(t *testing.T) {
	m := NewManager()
	id := oid(1, 1)
	m.RecordWrite(9, id, []byte("base"), []byte("a"))
	m.RecordWrite(9, id, []byte("a"), []byte("b")) // second write, same txn
	e := m.Commit(9)
	snap := m.BeginSnapshot()
	if snap != e {
		t.Fatalf("snapshot epoch %d, want %d", snap, e)
	}
	if got, ok := resolve(t, m, id, []byte("b"), snap); !ok || !bytes.Equal(got, []byte("b")) {
		t.Fatalf("sees %q ok=%v, want final image", got, ok)
	}
	m.EndSnapshot(snap)
}

// TestConcurrentSnapshotEpochNeverHalfStamped drives writers committing
// multi-object transactions against racing snapshot begins: a snapshot
// must see either all of a transaction's versions or none (the epoch is
// published only after every pending entry is stamped).
func TestConcurrentSnapshotEpochNeverHalfStamped(t *testing.T) {
	m := NewManager()
	a, b := oid(1, 1), oid(1, 2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cur := []byte{0}
		for txn := uint64(1); ; txn++ {
			select {
			case <-stop:
				return
			default:
			}
			next := []byte{cur[0] + 1}
			m.RecordWrite(txn, a, cur, next)
			m.RecordWrite(txn, b, cur, next)
			m.Commit(txn)
			cur = next
		}
	}()
	for i := 0; i < 2000; i++ {
		snap := m.BeginSnapshot()
		// Heap state is unknowable mid-race; pass heapOK=false and demand
		// both objects resolve from chains to the same generation. A chain
		// may already be dropped (converged) — then heap would be truth —
		// so only compare when both resolve through the overlay.
		va, oka := m.Resolve(a, nil, false, snap, 0)
		vb, okb := m.Resolve(b, nil, false, snap, 0)
		if oka && okb && !bytes.Equal(va, vb) {
			t.Errorf("snapshot %d saw torn commit: a=%v b=%v", snap, va, vb)
		}
		m.EndSnapshot(snap)
		if t.Failed() {
			break
		}
	}
	close(stop)
	wg.Wait()
}
