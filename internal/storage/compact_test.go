package storage

import (
	"bytes"
	"strings"
	"testing"

	"oodb/internal/model"
)

const compactTestClass = model.ClassID(3)

// fillSegment inserts n objects; every overflowEvery-th one carries a
// payload big enough to need an overflow chain. Returns the minted OIDs.
func fillSegment(t *testing.T, s *Store, class model.ClassID, n, overflowEvery int) []model.OID {
	t.Helper()
	if err := s.CreateSegment(class); err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("B", 3*PageSize)
	oids := make([]model.OID, n)
	for i := 0; i < n; i++ {
		oid, err := s.NewOID(class)
		if err != nil {
			t.Fatal(err)
		}
		payload := strings.Repeat("p", 100)
		if overflowEvery > 0 && i%overflowEvery == 0 {
			payload = big
		}
		if err := s.Put(oid, img(oid, payload)); err != nil {
			t.Fatal(err)
		}
		oids[i] = oid
	}
	return oids
}

// TestRewriteSegmentFidelity deletes most of a segment, rewrites it, and
// verifies every survivor reads back byte-identical (overflow records
// included), the chain shrank, and freeing the detached old chain leaves
// the file leak-free.
func TestRewriteSegmentFidelity(t *testing.T) {
	s, _ := openTestStore(t, 64)
	defer s.Close()
	oids := fillSegment(t, s, compactTestClass, 200, 20)

	want := make(map[model.OID][]byte)
	for i, oid := range oids {
		if i%4 != 0 {
			if err := s.Delete(oid); err != nil {
				t.Fatal(err)
			}
			continue
		}
		data, err := s.Get(oid)
		if err != nil {
			t.Fatal(err)
		}
		want[oid] = append([]byte(nil), data...)
	}

	visited := 0
	detached, res, err := s.RewriteSegment(compactTestClass, func(oid model.OID, data []byte) error {
		visited++
		if w, ok := want[oid]; !ok || !bytes.Equal(w, data) {
			t.Errorf("visit callback saw wrong image for %s", oid)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveRecords != len(want) || visited != len(want) {
		t.Fatalf("copied %d records, visited %d, want %d", res.LiveRecords, visited, len(want))
	}
	if res.PagesAfter >= res.PagesBefore {
		t.Fatalf("compaction did not shrink the chain: %d -> %d pages", res.PagesBefore, res.PagesAfter)
	}
	for oid, w := range want {
		got, err := s.Get(oid)
		if err != nil {
			t.Fatalf("get %s after rewrite: %v", oid, err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("object %s changed across rewrite", oid)
		}
	}
	// Mirror the engine protocol: persist the new segment table, then free
	// the detached chain — after which nothing should be leaked.
	if err := checkpoint(s); err != nil {
		t.Fatal(err)
	}
	if err := s.FreeDetached(detached); err != nil {
		t.Fatal(err)
	}
	acct, err := s.AccountPages()
	if err != nil {
		t.Fatal(err)
	}
	if acct.Leaked != 0 {
		t.Fatalf("%d pages leaked after rewrite+free (ids %v)", acct.Leaked, acct.LeakedPages)
	}
}

// TestRewriteSegmentDropsStaleCopies plants a physical record the
// directory does not name — the residue a crash-torn update leaves after
// the rebuild picks one copy — and verifies the rewrite drops it.
func TestRewriteSegmentDropsStaleCopies(t *testing.T) {
	s, _ := openTestStore(t, 64)
	defer s.Close()
	oids := fillSegment(t, s, compactTestClass, 10, 0)

	// A second physical copy of oids[0], inserted behind the directory's
	// back: scan sees two records, the directory names one.
	s.mu.RLock()
	h := s.heaps[compactTestClass]
	s.mu.RUnlock()
	if _, err := h.Insert(img(oids[0], "stale shadow copy")); err != nil {
		t.Fatal(err)
	}

	_, res, err := s.RewriteSegment(compactTestClass, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveRecords != len(oids) {
		t.Fatalf("rewrite copied %d records, want %d (stale copy must be dropped)", res.LiveRecords, len(oids))
	}
	n := 0
	err = s.ScanImages(compactTestClass, func(oid model.OID, data []byte) bool {
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(oids) {
		t.Fatalf("scan after rewrite sees %d records, want %d", n, len(oids))
	}
}

// TestSegmentInfoOccupancy pins the trigger-policy signal: a freshly
// filled segment reads as dense, the same segment after mass deletion
// reads as sparse, and a class without a segment reads as nil.
func TestSegmentInfoOccupancy(t *testing.T) {
	s, _ := openTestStore(t, 64)
	defer s.Close()
	oids := fillSegment(t, s, compactTestClass, 300, 0)

	dense := s.SegmentInfo(compactTestClass)
	if dense == nil || dense.LiveRecords != len(oids) || dense.Pages == 0 {
		t.Fatalf("dense info = %+v", dense)
	}
	for i, oid := range oids {
		if i%10 != 0 {
			if err := s.Delete(oid); err != nil {
				t.Fatal(err)
			}
		}
	}
	sparse := s.SegmentInfo(compactTestClass)
	if sparse.Pages != dense.Pages {
		t.Fatalf("deletes changed the chain length: %d -> %d", dense.Pages, sparse.Pages)
	}
	if sparse.Occupancy >= dense.Occupancy {
		t.Fatalf("occupancy did not fall after deletes: %.3f -> %.3f", dense.Occupancy, sparse.Occupancy)
	}
	if sparse.Occupancy <= 0 || dense.Occupancy > 1 {
		t.Fatalf("occupancy out of range: dense=%.3f sparse=%.3f", dense.Occupancy, sparse.Occupancy)
	}
	if info := s.SegmentInfo(model.ClassID(99)); info != nil {
		t.Fatalf("no-segment info = %v, want nil", info)
	}
}

// TestReclaimLeaked detaches a segment without freeing it (the durable
// state a crash between checkpoint and free leaves behind), then verifies
// the accountant reports the leak and ReclaimLeaked drives it — and the
// storage_account_leaked_pages gauge — to zero.
func TestReclaimLeaked(t *testing.T) {
	s, _ := openTestStore(t, 64)
	defer s.Close()
	fillSegment(t, s, compactTestClass, 100, 10)

	d := s.DetachSegment(compactTestClass)
	if d == nil {
		t.Fatal("detach returned nil for an existing segment")
	}
	if err := checkpoint(s); err != nil {
		t.Fatal(err)
	}
	// The detached chain is now garbage: durably unnamed, never freed.
	acct, err := s.AccountPages()
	if err != nil {
		t.Fatal(err)
	}
	if acct.Leaked == 0 {
		t.Fatal("accountant missed the abandoned segment")
	}
	if mPagesLeaked.Value() != int64(acct.Leaked) {
		t.Fatalf("leak gauge = %d, account = %d", mPagesLeaked.Value(), acct.Leaked)
	}

	n, err := s.ReclaimLeaked()
	if err != nil {
		t.Fatal(err)
	}
	if uint64(n) != acct.Leaked {
		t.Fatalf("reclaimed %d pages, account said %d", n, acct.Leaked)
	}
	after, err := s.AccountPages()
	if err != nil {
		t.Fatal(err)
	}
	if after.Leaked != 0 {
		t.Fatalf("%d pages still leaked after reclaim", after.Leaked)
	}
	if mPagesLeaked.Value() != 0 {
		t.Fatalf("leak gauge = %d after reclaim, want 0", mPagesLeaked.Value())
	}
	// The reclaimed pages are genuinely reusable.
	if err := s.CreateSegment(compactTestClass); err != nil {
		t.Fatal(err)
	}
	oid, err := s.NewOID(compactTestClass)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(oid, img(oid, "after reclaim")); err != nil {
		t.Fatal(err)
	}
}
