package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"oodb/internal/model"
)

func openTestStore(t *testing.T, pool int) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.kdb")
	s, err := Open(path, Options{PoolPages: pool})
	if err != nil {
		t.Fatal(err)
	}
	return s, path
}

// checkpoint persists what the engine's checkpoint would of a bare store:
// every dirty page, then the segment table under its root.
func checkpoint(s *Store) error {
	if err := s.pool.FlushAll(); err != nil {
		return err
	}
	return s.pool.SwapBlobs(map[MetaRoot][]byte{RootSegTable: s.EncodeSegTable()})
}

// get returns a copy of the stored image of oid, read through View.
func get(s *Store, oid model.OID) ([]byte, error) {
	var out []byte
	err := s.View(oid, func(payload []byte) error {
		out = bytes.Clone(payload)
		return nil
	})
	return out, err
}

// read returns a copy of the payload stored at rid, read through view.
func read(h *Heap, rid RID) ([]byte, error) {
	var out []byte
	err := h.view(rid, func(payload []byte) error {
		out = bytes.Clone(payload)
		return nil
	})
	return out, err
}

// img builds a store image for an object with one string attribute.
func img(oid model.OID, payload string) []byte {
	o := model.NewObject(oid)
	o.Set(1, model.String(payload))
	return model.EncodeObject(o)
}

func TestDiskAllocFree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.kdb")
	d, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	a, _ := d.AllocPage()
	b, _ := d.AllocPage()
	if a == b || a == InvalidPage {
		t.Fatalf("alloc returned %d, %d", a, b)
	}
	if err := d.FreePage(a); err != nil {
		t.Fatal(err)
	}
	c, _ := d.AllocPage()
	if c != a {
		t.Errorf("free list not reused: got %d, want %d", c, a)
	}
}

func TestDiskPersistsPages(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.kdb")
	d, _ := OpenDisk(path)
	id, _ := d.AllocPage()
	var p Page
	p.Init(pageTypeHeap)
	p.Insert([]byte("persist me"))
	if err := d.WritePage(id, &p); err != nil {
		t.Fatal(err)
	}
	d.Close()

	d2, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	var q Page
	if err := d2.ReadPage(id, &q); err != nil {
		t.Fatal(err)
	}
	got, err := q.Read(0)
	if err != nil || string(got) != "persist me" {
		t.Fatalf("Read = %q, %v", got, err)
	}
}

func TestDiskRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.kdb")
	d, _ := OpenDisk(path)
	d.Close()
	// Corrupt the magic in both metadata slots (a single bad slot falls
	// back to its twin; a non-database file has no valid slot at all).
	f, err := openRW(path)
	if err != nil {
		t.Fatal(err)
	}
	for slot := int64(0); slot < MetaSlots; slot++ {
		f.WriteAt([]byte{0xde, 0xad, 0xbe, 0xef}, slot*PageSize+metaOffMagic)
		// Fix the checksum so only the magic is wrong.
		var p Page
		f.ReadAt(p.buf[:], slot*PageSize)
		p.Seal()
		f.WriteAt(p.buf[:], slot*PageSize)
	}
	f.Close()
	if _, err := OpenDisk(path); !errors.Is(err, ErrNotADatabase) {
		t.Errorf("expected ErrNotADatabase, got %v", err)
	}
}

func TestBufferPoolEvictionAndPins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.kdb")
	d, _ := OpenDisk(path)
	defer d.Close()
	bp := NewBufferPool(d, 4)

	var ids []PageID
	for i := 0; i < 8; i++ {
		id, p, err := bp.FetchNew(pageTypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		p.Insert([]byte{byte(i)})
		bp.Unpin(id, true)
		ids = append(ids, id)
	}
	if bp.Len() > 4 {
		t.Fatalf("pool holds %d frames, cap 4", bp.Len())
	}
	// Every page readable despite eviction (dirty pages were written back).
	for i, id := range ids {
		p, err := bp.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Read(0)
		if err != nil || got[0] != byte(i) {
			t.Fatalf("page %d content lost: %v", id, err)
		}
		bp.Unpin(id, false)
	}
	// Pin all frames: further fetches must fail, not evict pinned pages.
	var pinned []PageID
	for i := 0; i < 4; i++ {
		if _, err := bp.Fetch(ids[i]); err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, ids[i])
	}
	if _, err := bp.Fetch(ids[7]); !errors.Is(err, ErrPoolExhausted) {
		t.Errorf("expected ErrPoolExhausted, got %v", err)
	}
	for _, id := range pinned {
		bp.Unpin(id, false)
	}
}

func TestHeapInsertReadUpdateDelete(t *testing.T) {
	s, _ := openTestStore(t, 64)
	defer s.Close()
	h, err := NewHeap(s.pool)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := h.Insert([]byte("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := read(h, rid); string(got) != "alpha" {
		t.Errorf("Read = %q", got)
	}
	nrid, err := h.Update(rid, []byte("beta"))
	if err != nil || nrid != rid {
		t.Fatalf("in-place update moved: %v %v", nrid, err)
	}
	if got, _ := read(h, rid); string(got) != "beta" {
		t.Errorf("Read after update = %q", got)
	}
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := read(h, rid); !errors.Is(err, ErrNoRecord) {
		t.Errorf("expected ErrNoRecord, got %v", err)
	}
}

func TestHeapGrowsAcrossPages(t *testing.T) {
	s, _ := openTestStore(t, 64)
	defer s.Close()
	h, _ := NewHeap(s.pool)
	rec := make([]byte, 500)
	var rids []RID
	for i := 0; i < 100; i++ {
		rec[0] = byte(i)
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	pages := h.Stats().Pages
	if pages < 2 {
		t.Fatalf("expected multi-page heap, got %d pages", pages)
	}
	for i, rid := range rids {
		got, err := read(h, rid)
		if err != nil || got[0] != byte(i) {
			t.Fatalf("record %d lost: %v", i, err)
		}
	}
	// Scan sees all records in physical order.
	n := 0
	h.Scan(func(RID, []byte) bool { n++; return true })
	if n != 100 {
		t.Errorf("scan saw %d records, want 100", n)
	}
}

func TestHeapOverflowRecords(t *testing.T) {
	s, _ := openTestStore(t, 64)
	defer s.Close()
	h, _ := NewHeap(s.pool)
	big := bytes.Repeat([]byte("x"), 3*PageSize)
	for i := range big {
		big[i] = byte(i % 251)
	}
	rid, err := h.Insert(big)
	if err != nil {
		t.Fatal(err)
	}
	got, err := read(h, rid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("overflow payload corrupted")
	}
	// Update overflow -> small frees the chain; the pages are reusable.
	before := s.disk.NumPages()
	if _, err := h.Update(rid, []byte("small")); err != nil {
		t.Fatal(err)
	}
	var allocd []PageID
	for i := 0; i < 3; i++ {
		id, _ := s.disk.AllocPage()
		allocd = append(allocd, id)
	}
	for _, id := range allocd {
		if id >= before {
			t.Fatalf("freed overflow pages not reused (got page %d, file had %d)", id, before)
		}
	}
	if got, _ := read(h, rid); string(got) != "small" {
		t.Errorf("Read = %q", got)
	}
}

func TestStorePutGetDelete(t *testing.T) {
	s, _ := openTestStore(t, 64)
	defer s.Close()
	const class = model.ClassID(20)
	if err := s.CreateSegment(class); err != nil {
		t.Fatal(err)
	}
	oid, err := s.NewOID(class)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(oid, img(oid, "one")); err != nil {
		t.Fatal(err)
	}
	data, err := get(s, oid)
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := model.DecodeObject(data)
	if v, _ := obj.Get(1).AsString(); v != "one" {
		t.Errorf("payload = %q", v)
	}
	// Upsert.
	if err := s.Put(oid, img(oid, "two")); err != nil {
		t.Fatal(err)
	}
	data, _ = get(s, oid)
	obj, _ = model.DecodeObject(data)
	if v, _ := obj.Get(1).AsString(); v != "two" {
		t.Errorf("after upsert = %q", v)
	}
	if err := s.Delete(oid); err != nil {
		t.Fatal(err)
	}
	if _, err := get(s, oid); !errors.Is(err, ErrNoObject) {
		t.Errorf("expected ErrNoObject, got %v", err)
	}
	// Idempotent delete.
	if err := s.Delete(oid); err != nil {
		t.Errorf("second delete: %v", err)
	}
}

// TestViewAtStaleRID replays the window between View's directory lookup and
// its heap latch: A is looked up, then deleted, and B is inserted into A's
// freed slot. Reading A at the RID the lookup returned must not hand over
// B's record: the directory no longer has A, so the read is A's miss; and a
// directory that still named the slot would get a freed slot's miss.
func TestViewAtStaleRID(t *testing.T) {
	s, _ := openTestStore(t, 64)
	defer s.Close()
	const class = model.ClassID(20)
	if err := s.CreateSegment(class); err != nil {
		t.Fatal(err)
	}
	a, _ := s.NewOID(class)
	b, _ := s.NewOID(class)
	if err := s.Put(a, img(a, "A")); err != nil {
		t.Fatal(err)
	}
	h, rid := s.heaps[class], s.dir[a]
	if err := s.Delete(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(b, img(b, "B")); err != nil {
		t.Fatal(err)
	}
	if s.dir[b] != rid {
		t.Fatalf("B went to %s, not to A's freed slot %s", s.dir[b], rid)
	}
	called := false
	read := func([]byte) error { called = true; return nil }
	if err := s.viewAt(a, h, rid, read); !errors.Is(err, ErrNoObject) || called {
		t.Fatalf("read of deleted A at its stale RID: %v (fn called: %v), want ErrNoObject", err, called)
	}
	s.dir[a] = rid
	if err := s.viewAt(a, h, rid, read); !errors.Is(err, ErrNoRecord) || called {
		t.Fatalf("read of A at a slot that holds B: %v (fn called: %v), want ErrNoRecord", err, called)
	}
	delete(s.dir, a)
	if data, err := get(s, b); err != nil || !bytes.Equal(data, img(b, "B")) {
		t.Fatalf("B after the stale reads: %q, %v", data, err)
	}
}

func TestStoreReopenRebuildsDirectory(t *testing.T) {
	s, path := openTestStore(t, 64)
	const class = model.ClassID(21)
	s.CreateSegment(class)
	var oids []model.OID
	for i := 0; i < 200; i++ {
		oid, _ := s.NewOID(class)
		if err := s.Put(oid, img(oid, fmt.Sprintf("obj-%d", i))); err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	// Delete a few before closing.
	for i := 0; i < 10; i++ {
		s.Delete(oids[i])
	}
	if err := checkpoint(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Count(class); got != 190 {
		t.Fatalf("Count = %d, want 190", got)
	}
	for i := 10; i < 200; i++ {
		data, err := get(s2, oids[i])
		if err != nil {
			t.Fatalf("Get(%v): %v", oids[i], err)
		}
		obj, _ := model.DecodeObject(data)
		if v, _ := obj.Get(1).AsString(); v != fmt.Sprintf("obj-%d", i) {
			t.Fatalf("object %d payload = %q", i, v)
		}
	}
	// Sequence counter is past the highest allocated.
	noid, _ := s2.NewOID(class)
	if noid.Seq() <= oids[len(oids)-1].Seq() {
		t.Error("sequence counter regressed after reopen")
	}
}

func TestStoreScanImages(t *testing.T) {
	s, _ := openTestStore(t, 64)
	defer s.Close()
	const a, b = model.ClassID(30), model.ClassID(31)
	s.CreateSegment(a)
	s.CreateSegment(b)
	for i := 0; i < 20; i++ {
		oid, _ := s.NewOID(a)
		s.Put(oid, img(oid, "a"))
	}
	for i := 0; i < 5; i++ {
		oid, _ := s.NewOID(b)
		s.Put(oid, img(oid, "b"))
	}
	n := 0
	s.ScanImages(a, func(oid model.OID, _ []byte) bool {
		if oid.Class() != a {
			t.Errorf("scan leaked class %d", oid.Class())
		}
		n++
		return true
	})
	if n != 20 {
		t.Errorf("scan saw %d, want 20", n)
	}
	// Early stop.
	n = 0
	s.ScanImages(a, func(model.OID, []byte) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early stop at %d, want 3", n)
	}
}

// TestDamagedRecordOIDIsCorrupt: a live record whose OID prefix does not
// parse, or names another class, is model.ErrCorrupt for the scan, the
// segment rewrite and the directory rebuild of the next open — none of them
// skips it.
func TestDamagedRecordOIDIsCorrupt(t *testing.T) {
	const a, b = model.ClassID(30), model.ClassID(31)
	for name, bad := range map[string][]byte{
		"unparsable": {0xff},
		"foreign":    img(model.MakeOID(b, 1), "b"),
	} {
		t.Run(name, func(t *testing.T) {
			s, path := openTestStore(t, 64)
			s.CreateSegment(a)
			for i := 0; i < 5; i++ {
				oid, _ := s.NewOID(a)
				s.Put(oid, img(oid, "a"))
			}
			oid, _ := s.NewOID(a)
			if err := s.Put(oid, bad); err != nil {
				t.Fatal(err)
			}
			if err := s.ScanImages(a, func(model.OID, []byte) bool { return true }); !errors.Is(err, model.ErrCorrupt) {
				t.Errorf("ScanImages: %v, want ErrCorrupt", err)
			}
			if _, _, err := s.RewriteSegment(a, nil); !errors.Is(err, model.ErrCorrupt) {
				t.Errorf("RewriteSegment: %v, want ErrCorrupt", err)
			}
			if err := checkpoint(s); err != nil {
				t.Fatal(err)
			}
			s.Close()
			if s, err := Open(path, Options{PoolPages: 64}); !errors.Is(err, model.ErrCorrupt) {
				if err == nil {
					s.Close()
				}
				t.Errorf("reopen: %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestStoreDropSegment(t *testing.T) {
	s, _ := openTestStore(t, 64)
	defer s.Close()
	const class = model.ClassID(40)
	s.CreateSegment(class)
	oid, _ := s.NewOID(class)
	s.Put(oid, img(oid, "gone"))
	if err := s.FreeDetached(s.DetachSegment(class)); err != nil {
		t.Fatal(err)
	}
	if _, err := get(s, oid); !errors.Is(err, ErrNoObject) {
		t.Errorf("object survived segment drop: %v", err)
	}
	if s.Count(class) != 0 {
		t.Error("count nonzero after drop")
	}
}

func TestBlobRoundTrip(t *testing.T) {
	s, _ := openTestStore(t, 64)
	defer s.Close()
	for _, size := range []int{0, 1, 100, PageSize, 3*PageSize + 17} {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i)
		}
		head, err := s.pool.WriteBlob(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.pool.ReadBlob(head)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("blob size %d corrupted (got %d bytes)", size, len(got))
		}
		if err := s.pool.FreeBlob(head); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSwapBlobsSwapsRoot(t *testing.T) {
	s, _ := openTestStore(t, 64)
	defer s.Close()
	for _, v := range []string{"v1", "v2"} {
		if err := s.pool.SwapBlobs(map[MetaRoot][]byte{RootCatalog: []byte(v)}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.pool.ReadBlob(s.disk.GetRoot(RootCatalog))
	if err != nil || string(got) != "v2" {
		t.Fatalf("blob = %q, %v", got, err)
	}
}

func TestStoreLargeObjectSurvivesReopen(t *testing.T) {
	s, path := openTestStore(t, 64)
	const class = model.ClassID(50)
	s.CreateSegment(class)
	oid, _ := s.NewOID(class)
	o := model.NewObject(oid)
	o.Set(1, model.Bytes(bytes.Repeat([]byte{7}, 2*PageSize)))
	if err := s.Put(oid, model.EncodeObject(o)); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint(s); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(path, Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	data, err := get(s2, oid)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := model.DecodeObject(data)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := obj.Get(1).AsBytes()
	if len(b) != 2*PageSize || b[0] != 7 {
		t.Fatal("large object corrupted across reopen")
	}
}

// openRW opens an existing file read-write for test-side corruption.
func openRW(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_RDWR, 0o644)
}

func TestStoreAccessors(t *testing.T) {
	s, _ := openTestStore(t, 64)
	defer s.Close()
	if s.Pool() == nil || s.Disk() == nil {
		t.Fatal("accessors returned nil")
	}
	const a, b = model.ClassID(60), model.ClassID(61)
	s.CreateSegment(a)
	s.CreateSegment(b)
	classes := s.Classes()
	if len(classes) != 2 || classes[0] != a || classes[1] != b {
		t.Fatalf("Classes = %v", classes)
	}
	oid, _ := s.NewOID(a)
	if s.Exists(oid) {
		t.Fatal("unwritten OID exists")
	}
	s.Put(oid, img(oid, "x"))
	if !s.Exists(oid) {
		t.Fatal("written OID missing")
	}
	if info := s.SegmentInfo(a); info == nil || info.Pages < 1 || info.LiveRecords != 1 {
		t.Fatalf("SegmentInfo = %+v", info)
	}
	hits, misses := s.PoolStats()
	if hits == 0 && misses == 0 {
		t.Fatal("pool counters never moved")
	}
}

func TestPageHeaderAccessors(t *testing.T) {
	var p Page
	p.Init(pageTypeHeap)
	p.SetLSN(42)
	if p.LSN() != 42 {
		t.Fatalf("LSN = %d", p.LSN())
	}
	if len(p.Bytes()) != PageSize {
		t.Fatalf("Bytes len = %d", len(p.Bytes()))
	}
	before := p.FreeSpace()
	p.Insert(make([]byte, 100))
	if p.FreeSpace() >= before {
		t.Fatal("FreeSpace did not shrink after insert")
	}
	var rid RID
	if !rid.IsZero() {
		t.Fatal("zero RID not IsZero")
	}
	rid = RID{Page: 1, Slot: 0}
	if rid.IsZero() {
		t.Fatal("nonzero RID IsZero")
	}
}

func TestOpenDiskRejectsMisalignedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.kdb")
	if err := os.WriteFile(path, make([]byte, PageSize+1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(path); err == nil {
		t.Fatal("misaligned file accepted")
	}
}

func TestReadPageBeyondEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.kdb")
	d, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var p Page
	if err := d.ReadPage(9999, &p); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if err := d.WritePage(9999, &p); err == nil {
		t.Fatal("out-of-range write accepted")
	}
	if err := d.FreePage(9999); err == nil {
		t.Fatal("out-of-range free accepted")
	}
}

// FuzzSegTable: on any bytes the segment table's decoder either fails with
// an error wrapping model.ErrCorrupt or reads its rows, and then the bytes
// followed by junk are ErrCorrupt. The seeds are the tables of a store
// with no segment and with three, each with every prefix of it.
func FuzzSegTable(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.kdb")
	s, err := Open(path, Options{PoolPages: 16})
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{s.EncodeSegTable()}
	for _, c := range []model.ClassID{16, 17, 300} {
		if err := s.CreateSegment(c); err != nil {
			f.Fatal(err)
		}
	}
	seeds = append(seeds, s.EncodeSegTable())
	s.Close()
	for _, seed := range seeds {
		for n := 0; n <= len(seed); n++ {
			f.Add(seed[:n]) // every truncation, and the whole image
		}
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		none := func(model.ClassID, PageID, PageID, uint64) {}
		if err := decodeSegTable(buf, none); err != nil {
			if !errors.Is(err, model.ErrCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if err := decodeSegTable(append(buf[:len(buf):len(buf)], 0xde, 0xad), none); !errors.Is(err, model.ErrCorrupt) {
			t.Fatalf("a segment table followed by junk decodes (%v)", err)
		}
	})
}
