package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"oodb/internal/model"
)

const chainTestClass = model.ClassID(90)

// chainFixture is a store holding one chain of each kind's pages, and the
// facts the corruption table damages and checks.
type chainFixture struct {
	s       *Store
	path    string
	pages   []PageID // the chain under test, head first
	typ     byte
	foreign PageID // a live page of another type
	oids    []model.OID
}

// chainKind builds a fixture, reads through the chain and frees it.
type chainKind struct {
	name  string
	build func(t *testing.T) *chainFixture
	read  func(f *chainFixture) error
	free  func(f *chainFixture) error
}

var chainKinds = []chainKind{
	{
		// A 20-object heap over several pages; the foreign page is the
		// catalog's blob.
		name: "heap",
		build: func(t *testing.T) *chainFixture {
			f := newChainFixture(t, pageTypeHeap)
			if err := f.s.CreateSegment(chainTestClass); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				oid, _ := f.s.NewOID(chainTestClass)
				if err := f.s.Put(oid, img(oid, strings.Repeat("h", 600))); err != nil {
					t.Fatal(err)
				}
				f.oids = append(f.oids, oid)
			}
			if err := f.s.pool.SwapBlobs(map[MetaRoot][]byte{RootCatalog: []byte("catalog")}); err != nil {
				t.Fatal(err)
			}
			f.foreign = f.s.disk.GetRoot(RootCatalog)
			f.pages = chainPages(t, f.s.pool, f.s.heaps[chainTestClass].First, pageTypeHeap)
			return f
		},
		read: func(f *chainFixture) error {
			return f.s.ScanImages(chainTestClass, func(model.OID, []byte) bool { return true })
		},
		free: func(f *chainFixture) error {
			return f.s.FreeDetached(f.s.DetachSegment(chainTestClass))
		},
	},
	{
		// One record of three pages and a bit, beside three small ones;
		// the foreign page is the heap page holding its stub.
		name: "overflow",
		build: func(t *testing.T) *chainFixture {
			f := newChainFixture(t, pageTypeOverflow)
			f.oids = fillSegment(t, f.s, chainTestClass, 4, 4)
			rid := f.s.dir[f.oids[0]]
			p, err := f.s.pool.Fetch(rid.Page)
			if err != nil {
				t.Fatal(err)
			}
			rec, _ := p.Read(int(rid.Slot))
			_, n := binary.Uvarint(rec[1:])
			head, _ := binary.Uvarint(rec[1+n:])
			f.s.pool.Unpin(rid.Page, false)
			f.foreign = rid.Page
			f.pages = chainPages(t, f.s.pool, PageID(head), pageTypeOverflow)
			return f
		},
		read: func(f *chainFixture) error {
			_, err := f.s.Get(f.oids[0])
			return err
		},
		free: func(f *chainFixture) error { return f.s.Delete(f.oids[0]) },
	},
	{
		// A three-page system blob under a root; the foreign page is a
		// heap page.
		name: "blob",
		build: func(t *testing.T) *chainFixture {
			f := newChainFixture(t, pageTypeBlob)
			f.oids = fillSegment(t, f.s, chainTestClass, 3, 0)
			blob := bytes.Repeat([]byte{0xB1}, 2*maxInline+10)
			if err := f.s.pool.SwapBlobs(map[MetaRoot][]byte{RootIndexTable: blob}); err != nil {
				t.Fatal(err)
			}
			f.foreign = f.s.heaps[chainTestClass].First
			f.pages = chainPages(t, f.s.pool, f.s.disk.GetRoot(RootIndexTable), pageTypeBlob)
			return f
		},
		read: func(f *chainFixture) error {
			_, err := f.s.pool.ReadBlob(f.pages[0])
			return err
		},
		free: func(f *chainFixture) error { return f.s.pool.FreeBlob(f.pages[0]) },
	},
}

// chainDamages name the link the last page of the chain is given.
var chainDamages = []struct {
	name string
	link func(f *chainFixture) PageID
}{
	{"self_loop", func(f *chainFixture) PageID { return f.pages[len(f.pages)-1] }},
	{"loop_to_head", func(f *chainFixture) PageID { return f.pages[0] }},
	{"foreign_page", func(f *chainFixture) PageID { return f.foreign }},
	{"past_end", func(f *chainFixture) PageID { return f.s.disk.NumPages() + 7 }},
}

// TestChainCorruption is the corruption table for page chains: {heap,
// overflow, blob} × {self-loop, loop back to the head, link to a live page
// of another type, link past the end of the file}, each made through the
// pool and flushed, so every checksum is valid and only the walker's own
// checks stand between the damage and the caller. Readers fail with
// model.ErrCorrupt — ReadBlob, Store.Get, ScanImages, and storage.Open for
// the heap rows but the foreign link, which the open amputates as it does
// a stale link after a crash. Frees stop and leak: every page of the chain
// goes on the free list once and the foreign page is untouched. The
// accountant returns. Every call runs under a deadline, so a walk that
// loops fails the test instead of hanging it.
func TestChainCorruption(t *testing.T) {
	for _, kind := range chainKinds {
		for _, damage := range chainDamages {
			t.Run(kind.name+"/"+damage.name, func(t *testing.T) {
				f := kind.build(t)
				f.damage(t, damage.link(f))
				if err := within(t, kind.name+" read", func() error { return kind.read(f) }); !errors.Is(err, model.ErrCorrupt) {
					t.Fatalf("read through the damaged chain: %v, want model.ErrCorrupt", err)
				}
				within(t, "AccountPages", func() error {
					_, err := f.s.AccountPages()
					return err
				})
				if kind.name == "heap" {
					f.reopen(t, damage.name == "foreign_page")
				} else {
					f.s.Close()
				}

				f = kind.build(t)
				defer f.s.Close()
				f.damage(t, damage.link(f))
				if err := within(t, kind.name+" free", func() error { return kind.free(f) }); err != nil {
					t.Fatalf("free of the damaged chain: %v", err)
				}
				if freed := freeListPages(t, f.s); !slices.Equal(freed, sorted(f.pages)) {
					t.Fatalf("free list holds %v, want the chain's pages %v", freed, sorted(f.pages))
				}
				f.checkForeign(t)
			})
		}
	}
}

func newChainFixture(t *testing.T, typ byte) *chainFixture {
	s, path := openTestStore(t, 64)
	return &chainFixture{s: s, path: path, typ: typ}
}

// damage points the chain's last page at link, through the pool, and
// flushes: the page's checksum is valid.
func (f *chainFixture) damage(t *testing.T, link PageID) {
	t.Helper()
	last := f.pages[len(f.pages)-1]
	p, err := f.s.pool.Fetch(last)
	if err != nil {
		t.Fatal(err)
	}
	p.SetNext(link)
	f.s.pool.Unpin(last, true)
	if err := f.s.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

// reopen checkpoints and closes the damaged heap's store and opens it
// again: the open amputates a foreign link and keeps every object, and
// refuses any other damage with model.ErrCorrupt.
func (f *chainFixture) reopen(t *testing.T, amputates bool) {
	t.Helper()
	if err := within(t, "Checkpoint", f.s.Checkpoint); err != nil {
		t.Fatal(err)
	}
	f.s.Close()
	var s *Store
	err := within(t, "Open", func() (err error) {
		s, err = Open(f.path, Options{PoolPages: 64})
		return err
	})
	if !amputates {
		if !errors.Is(err, model.ErrCorrupt) || !strings.Contains(err.Error(), "class 90") {
			t.Fatalf("Open of a looping or out-of-file heap chain: %v, want model.ErrCorrupt naming class 90", err)
		}
		return
	}
	if err != nil {
		t.Fatalf("Open of a heap chain with a foreign link: %v, want the link amputated", err)
	}
	defer s.Close()
	n := 0
	if err := s.ScanImages(chainTestClass, func(model.OID, []byte) bool { n++; return true }); err != nil || n != len(f.oids) {
		t.Fatalf("after the amputation the scan saw %d objects (%v), want %d", n, err, len(f.oids))
	}
}

// checkForeign asserts the foreign page kept its type and its content.
func (f *chainFixture) checkForeign(t *testing.T) {
	t.Helper()
	p, err := f.s.pool.Fetch(f.foreign)
	if err != nil {
		t.Fatal(err)
	}
	typ := p.Type()
	f.s.pool.Unpin(f.foreign, false)
	if typ == f.typ || typ == pageTypeFree {
		t.Fatalf("foreign page %d now has type %d", f.foreign, typ)
	}
	if typ == pageTypeBlob {
		if got, err := f.s.pool.ReadBlob(f.foreign); err != nil || string(got) != "catalog" {
			t.Fatalf("foreign blob reads %q, %v", got, err)
		}
		return
	}
	for _, oid := range f.oids[1:] {
		if _, err := f.s.Get(oid); err != nil {
			t.Fatalf("%s beside the freed chain: %v", oid, err)
		}
	}
}

// chainPages lists an undamaged chain's pages.
func chainPages(t *testing.T, bp *BufferPool, head PageID, want byte) []PageID {
	t.Helper()
	var ids []PageID
	for id := head; id != InvalidPage; {
		p, err := bp.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		typ, next := p.Type(), p.Next()
		bp.Unpin(id, false)
		if typ != want || len(ids) > 16 {
			t.Fatalf("page %d of type %d after %d pages: not an undamaged chain", id, typ, len(ids))
		}
		ids = append(ids, id)
		id = next
	}
	if len(ids) < 3 {
		t.Fatalf("chain of %d pages: too short to tell a self-loop from a loop to the head", len(ids))
	}
	return ids
}

// freeListPages pops the whole free list and returns its pages in order of
// id, failing on a page listed twice (a double free).
func freeListPages(t *testing.T, s *Store) []PageID {
	t.Helper()
	end := s.disk.NumPages()
	var ids []PageID
	for {
		id, err := s.disk.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		if id >= end {
			return sorted(ids) // the list is empty: the file grew
		}
		if slices.Contains(ids, id) {
			t.Fatalf("page %d is on the free list twice", id)
		}
		ids = append(ids, id)
	}
}

func sorted(ids []PageID) []PageID {
	out := slices.Clone(ids)
	slices.Sort(out)
	return out
}

// within runs fn on its own goroutine and fails the test if fn has not
// returned within a few seconds.
func within(t *testing.T, what string, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s still running after 5s", what)
		return nil
	}
}
