package storage

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"oodb/internal/model"
)

// Store binds the disk manager, buffer pool, per-class heap segments and
// the object directory into the object store the engine programs against.
//
// Contract with callers: the byte images handed to Put must begin with the
// object's OID as a uvarint — model.EncodeObject's layout — because the
// open-time directory rebuild recovers OIDs by peeking that prefix.
// The store mutex is a sync.RWMutex: the read paths (View, Exists,
// ScanImages, Count, Classes) only consult the heap map and directory, so
// concurrent readers share the lock and serialize only against writers
// (segment DDL, directory updates).
type Store struct {
	disk Disk
	pool *BufferPool

	mu    sync.RWMutex
	heaps map[model.ClassID]*Heap
	dir   map[model.OID]RID
	seq   map[model.ClassID]uint64 // next sequence number per class
}

// ErrNoObject reports a lookup of an OID with no stored object.
var ErrNoObject = errors.New("storage: no such object")

// ErrNoSegment reports an operation on a class with no storage segment
// (e.g. a replayed write to a class dropped after the log record was
// written).
var ErrNoSegment = errors.New("storage: no segment for class")

// Options configures a Store.
type Options struct {
	// PoolPages is the buffer pool capacity in pages. Zero means the
	// default (1024 pages = 4 MiB). The pool is striped over up to
	// DefaultPoolShards lock shards, never fewer than 8 frames each.
	PoolPages int
	// WrapDisk, when set, wraps the disk manager before the store builds on
	// it — the seam the fault-injection layer uses to script I/O failures.
	WrapDisk func(Disk) Disk
}

// Open opens (or creates) the object store at path and rebuilds the object
// directory by scanning every class segment. Pages that fail their checksum
// are cut out and records whose overflow chain does not reassemble are
// quarantined — logical WAL replay above this layer restores them; a record
// whose OID prefix is damaged fails the open with model.ErrCorrupt.
func Open(path string, opts Options) (*Store, error) {
	if opts.PoolPages == 0 {
		opts.PoolPages = 1024
	}
	dm, err := OpenDisk(path)
	if err != nil {
		return nil, err
	}
	var disk Disk = dm
	if opts.WrapDisk != nil {
		disk = opts.WrapDisk(disk)
	}
	s := &Store{
		disk:  disk,
		pool:  NewBufferPool(disk, opts.PoolPages),
		heaps: make(map[model.ClassID]*Heap),
		dir:   make(map[model.OID]RID),
		seq:   make(map[model.ClassID]uint64),
	}
	if err := s.loadSegments(); err != nil {
		disk.Close()
		return nil, err
	}
	if err := s.rebuildDirectory(); err != nil {
		disk.Close()
		return nil, err
	}
	return s, nil
}

// Close releases the disk without flushing the pool. A store closed
// without a checkpoint — a failed open, a fail-stopped engine whose dirty
// pages may hold uncommitted state with no durable undo — reopens from its
// last durable metadata and the WAL.
func (s *Store) Close() error {
	return s.disk.Close()
}

// Pool exposes the buffer pool (the engine stores system blobs through it).
func (s *Store) Pool() *BufferPool { return s.pool }

// Disk exposes the disk layer (the production disk manager, or the fault
// wrapper around it under test).
func (s *Store) Disk() Disk { return s.disk }

// CreateSegment ensures a heap segment exists for the class.
func (s *Store) CreateSegment(class model.ClassID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.heaps[class]; ok {
		return nil
	}
	h, err := NewHeap(s.pool)
	if err != nil {
		return err
	}
	s.heaps[class] = h
	if _, ok := s.seq[class]; !ok {
		s.seq[class] = 1
	}
	return nil
}

// DetachedSegment is a segment logically removed from the store — no
// longer named by the heap map, directory or the next encodeSegTable —
// whose pages are still allocated on disk. The detach/free split lets DDL
// order destruction after durability (core's ddl): detach, checkpoint (so
// the catalog and segment table durably stop naming the class), and only
// then free the pages. A crash between the checkpoint and the frees merely
// leaks pages (counted by the accountant, AccountPages); freeing before
// the checkpoint would destroy committed heap pages in place while the
// durable metadata still named them, losing data that predates the last
// checkpoint and so has no WAL redo to restore it.
type DetachedSegment struct {
	heap *Heap
}

// DetachSegment logically removes a class's segment: the heap mapping,
// sequence counter and directory entries are deleted, so the next
// checkpoint persists a segment table without the class. The segment's
// pages are untouched; free them with FreeDetached once the metadata that
// stopped naming them is durable. Returns nil if the class has no
// segment.
func (s *Store) DetachSegment(class model.ClassID) *DetachedSegment {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.heaps[class]
	if !ok {
		return nil
	}
	delete(s.heaps, class)
	delete(s.seq, class)
	for oid := range s.dir {
		if oid.Class() == class {
			delete(s.dir, oid)
		}
	}
	return &DetachedSegment{heap: h}
}

// FreeDetached physically frees a detached segment: every record's
// overflow chain, then the heap chain pages. All frees go through the
// pool's FreePage, which forces the log before the free-list seal
// destroys page content in place (WAL-before-data). Like every chain free
// it stops at a page it cannot verify and leaks the rest (freeChain): a
// record scan that fails part way leaves the overflow chains it did not
// reach, and the only error returned is a heap page's failed FreePage.
// Calling with nil is a no-op.
func (s *Store) FreeDetached(d *DetachedSegment) error {
	if d == nil {
		return nil
	}
	h := d.heap
	// Readers resolve a heap under s.mu and read it after letting s.mu go.
	// One descheduled in between still holds this heap: turn it away (it
	// re-resolves through the directory, which stopped naming this heap
	// before the caller's checkpoint) and let the scans already inside
	// finish, before any page goes back to the free list.
	h.detach()
	// The scan's error is the leak rule's: the chains it did not reach
	// leak, and the heap pages are freed regardless.
	_ = h.scan(func(rid RID, _ []byte) bool {
		_ = h.Delete(rid)
		return true
	}, false)
	_, err := s.pool.freeChain(h.First, pageTypeHeap)
	return err
}

// NewOID mints the next OID for the class. The segment must exist.
func (s *Store) NewOID(class model.ClassID) (model.OID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.heaps[class]; !ok {
		return model.NilOID, fmt.Errorf("%w: %d", ErrNoSegment, class)
	}
	n := s.seq[class]
	if n == 0 {
		n = 1
	}
	s.seq[class] = n + 1
	return model.MakeOID(class, n), nil
}

// Put upserts the object image under oid. The image must begin with the
// OID uvarint (see Store contract). Put is idempotent with respect to
// logical WAL replay: replaying a Put yields the same stored state.
func (s *Store) Put(oid model.OID, data []byte) error {
	s.mu.RLock()
	h, ok := s.heaps[oid.Class()]
	if !ok {
		s.mu.RUnlock()
		return fmt.Errorf("%w: %d", ErrNoSegment, oid.Class())
	}
	rid, exists := s.dir[oid]
	s.mu.RUnlock()

	var err error
	var newRID RID
	if exists {
		newRID, err = h.Update(rid, data)
	} else {
		newRID, err = h.Insert(data)
	}
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.dir[oid] = newRID
	// Keep the sequence high-water mark ahead of replayed inserts.
	if next := oid.Seq() + 1; next > s.seq[oid.Class()] {
		s.seq[oid.Class()] = next
	}
	s.mu.Unlock()
	return nil
}

// View calls fn with the stored image of oid and returns what fn returns.
// It takes the directory lookup under the store's read lock, then the
// segment's heap latch in read mode, then a pin on the record's page. An
// inline record's payload is handed to fn straight from the pinned page; an
// overflow record is first reassembled into a buffer of its own. The page
// is unpinned and the latch let go after fn returns.
//
// payload aliases the page for as long as fn runs: fn must not write to it
// or keep it, and must copy whatever outlives the call (model.DecodeObject
// does). No writer of the segment runs while fn does, so fn must be short
// and must not call back into the store. It is the store's one point read,
// and the engine's one point read (core.DB.read) is its only caller above
// this package.
func (s *Store) View(oid model.OID, fn func(payload []byte) error) error {
	s.mu.RLock()
	h, ok := s.heaps[oid.Class()]
	rid, found := s.dir[oid]
	s.mu.RUnlock()
	if !ok || !found {
		return fmt.Errorf("%w: %s", ErrNoObject, oid)
	}
	return s.viewAt(oid, h, rid, fn)
}

// viewAt is View from a directory lookup that named rid in h. The lookup's
// lock is let go before the heap latch is taken, and in that window a
// segment rewrite or DropClass may detach h, or a committed delete may free
// the slot and an insert on the tail page reuse it for another object. So
// under the latch the record's OID prefix must name oid; when it does not,
// or h is detached, viewAt looks again. A directory that still names the
// same slot gets the miss a freed slot gets.
func (s *Store) viewAt(oid model.OID, h *Heap, rid RID, fn func(payload []byte) error) error {
	for {
		stale := false
		err := h.view(rid, func(payload []byte) error {
			if got, n := binary.Uvarint(payload); n > 0 && model.OID(got) != oid {
				stale = true
				return nil
			}
			return fn(payload)
		})
		if err != errHeapDetached && !stale {
			return err
		}
		s.mu.RLock()
		now, ok := s.heaps[oid.Class()]
		nowRID, found := s.dir[oid]
		s.mu.RUnlock()
		switch {
		case !ok || !found:
			return fmt.Errorf("%w: %s", ErrNoObject, oid)
		case stale && now == h && nowRID == rid:
			return fmt.Errorf("%w: %s (holds another object)", ErrNoRecord, rid)
		}
		h, rid = now, nowRID
	}
}

// Exists reports whether oid has a stored object.
func (s *Store) Exists(oid model.OID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.dir[oid]
	return ok
}

// Delete removes oid. Deleting a missing object is a no-op (idempotent
// replay).
func (s *Store) Delete(oid model.OID) error {
	s.mu.Lock()
	h, ok := s.heaps[oid.Class()]
	rid, found := s.dir[oid]
	if found {
		delete(s.dir, oid)
	}
	s.mu.Unlock()
	if !ok || !found {
		return nil
	}
	return h.Delete(rid)
}

// ScanImages calls fn with every stored object image of exactly the given
// class, in physical order. data is the scan's own buffer (see Heap.Scan):
// it is valid only until fn returns.
func (s *Store) ScanImages(class model.ClassID, fn func(oid model.OID, data []byte) bool) error {
	for {
		s.mu.RLock()
		h, ok := s.heaps[class]
		s.mu.RUnlock()
		if !ok {
			return nil
		}
		var oerr error
		err := h.Scan(func(rid RID, data []byte) bool {
			var oid model.OID
			if oid, oerr = recordOID(class, data); oerr != nil {
				return false
			}
			return fn(oid, data)
		})
		// Detached since the lookup, and nothing delivered yet (see
		// Heap.Scan): scan the segment the directory names now.
		if err != errHeapDetached {
			return cmp.Or(err, oerr)
		}
	}
}

// recordOID reads the OID prefix of a live record in class's segment. A
// prefix that does not parse, or that names another class, is damage and
// model.ErrCorrupt: a crash leaves neither, since a torn page fails its
// checksum and is amputated whole at open.
func recordOID(class model.ClassID, data []byte) (model.OID, error) {
	raw, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, fmt.Errorf("storage: class %d: record without an OID: %w", class, model.ErrCorrupt)
	}
	oid := model.OID(raw)
	if oid.Class() != class {
		return 0, fmt.Errorf("storage: class %d: record of object %s: %w", class, oid, model.ErrCorrupt)
	}
	return oid, nil
}

// Count returns the number of live objects of exactly the given class.
func (s *Store) Count(class model.ClassID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for oid := range s.dir {
		if oid.Class() == class {
			n++
		}
	}
	return n
}

// Classes returns the classes that have segments.
func (s *Store) Classes() []model.ClassID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]model.ClassID, 0, len(s.heaps))
	for c := range s.heaps {
		out = append(out, c)
	}
	sortClassIDs(out)
	return out
}

func sortClassIDs(ids []model.ClassID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// PoolStats returns buffer pool hit/miss counters.
func (s *Store) PoolStats() (hits, misses uint64) { return s.pool.Stats() }

// EncodeSegTable serializes the current segment table — the blob the
// engine's checkpoint swaps under RootSegTable together with the catalog
// (see BufferPool.SwapBlobs).
func (s *Store) EncodeSegTable() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.encodeSegTable()
}

// ReclaimLeaked frees every page the accountant classifies as leaked —
// quarantined overflow chains, abandoned free-list pages, chains detached
// by a crashed DropClass or compaction. Caller contract: the store must be
// quiesced (no transactions in flight) and checkpointed, so the
// reachability walk sees exactly the durable live set and everything
// outside it is provably garbage; the engine's ReclaimLeaked enforces that
// with its begin fence. Unreadable (torn) unreachable pages are reclaimed
// too: at a quiesced checkpoint nothing can restore them. Returns the
// number of pages returned to the free list.
func (s *Store) ReclaimLeaked() (int, error) {
	acct, err := s.AccountPages()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, id := range acct.all {
		s.pool.Drop(id)
		if err := s.pool.FreePage(id); err != nil {
			return n, err
		}
		n++
	}
	if n > 0 {
		mPagesLeaked.Set(0)
	}
	return n, nil
}

// encodeSegTable serializes {class, first, last, nextSeq} rows. Caller
// holds s.mu.
func (s *Store) encodeSegTable() []byte {
	classes := make([]model.ClassID, 0, len(s.heaps))
	for c := range s.heaps {
		classes = append(classes, c)
	}
	sortClassIDs(classes)
	buf := binary.AppendUvarint(nil, uint64(len(classes)))
	for _, c := range classes {
		first, last := s.heaps[c].Bounds()
		buf = binary.AppendUvarint(buf, uint64(c))
		buf = binary.AppendUvarint(buf, uint64(first))
		buf = binary.AppendUvarint(buf, uint64(last))
		buf = binary.AppendUvarint(buf, s.seq[c])
	}
	return buf
}

// loadSegments restores the heap map from the persisted segment table.
func (s *Store) loadSegments() error {
	head := s.disk.GetRoot(RootSegTable)
	if head == InvalidPage {
		return nil
	}
	buf, err := s.pool.ReadBlob(head)
	if err != nil {
		return err
	}
	return decodeSegTable(buf, func(class model.ClassID, first, last PageID, seq uint64) {
		s.heaps[class] = OpenHeap(s.pool, first, last)
		s.seq[class] = seq
	})
}

// decodeSegTable calls row for each row of an encodeSegTable image. Every
// error wraps model.ErrCorrupt.
func decodeSegTable(buf []byte, row func(class model.ClassID, first, last PageID, seq uint64)) error {
	r := model.NewReader(buf, model.ErrCorrupt)
	n := r.Count()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		class := model.ClassID(r.Uvarint())
		first := PageID(r.Uvarint())
		last := PageID(r.Uvarint())
		seq := r.Uvarint()
		if r.Err() == nil {
			row(class, first, last, seq)
		}
	}
	r.End()
	if err := r.Err(); err != nil {
		return fmt.Errorf("storage: corrupt segment table: %w", err)
	}
	return nil
}

// rebuildDirectory scans every segment, mapping OIDs to RIDs and advancing
// sequence high-water marks past every object seen. It also repairs heap
// tail pointers that a crash may have left stale (the chain on disk can be
// longer than the persisted Last), and amputates torn pages: a page that
// fails its checksum is cut out of the chain (see amputate), its records
// left to logical WAL replay above this layer. A chain that loops or links
// out of the file fails the open with model.ErrCorrupt, and so does a live
// record whose OID prefix does not parse or names another class (recordOID).
func (s *Store) rebuildDirectory() error {
	// Deterministic class order: recovery I/O must replay identically for
	// the crash harness's schedule reproduction.
	classes := make([]model.ClassID, 0, len(s.heaps))
	for c := range s.heaps {
		classes = append(classes, c)
	}
	sortClassIDs(classes)
	for _, class := range classes {
		h := s.heaps[class]
		// Walk to the true tail, amputating at the first page that is torn
		// OR not a heap page. The type check matters as much as the
		// checksum: a page freed and reused since the chain link was
		// persisted comes back checksum-valid with someone else's content
		// (a stale free-list seal whose next link aims at, say, a live
		// catalog page), and following it would adopt — and later
		// quarantine-mutate — pages this class does not own. A crash leaves
		// no loop and no link out of the file, so those are damage.
		prev := InvalidPage
		w := s.pool.walkChain(h.First, pageTypeHeap)
		id, p, err := w.step()
		for ; p != nil; id, p, err = w.step() {
			s.pool.Unpin(id, false)
			prev = id
		}
		switch {
		case errors.Is(err, ErrBadChecksum) || errors.Is(err, errChainType):
			if err := s.amputate(h, prev, id); err != nil {
				return err
			}
		case err != nil:
			return fmt.Errorf("storage: segment of class %d: %w", class, err)
		}
		h.Last = cmp.Or(prev, h.First) // an amputated head was reformatted in place
		var oerr error
		err = h.RecoverScan(func(rid RID, data []byte) bool {
			var oid model.OID
			if oid, oerr = recordOID(class, data); oerr != nil {
				return false
			}
			s.dir[oid] = rid
			if next := oid.Seq() + 1; next > s.seq[class] {
				s.seq[class] = next
			}
			return true
		})
		if err = cmp.Or(err, oerr); err != nil {
			return err
		}
	}
	return nil
}

// amputate removes a torn or foreign-typed page from a heap chain: the
// predecessor's link is cut, or the page is reformatted in place when it
// heads the chain. The records it held are restored by logical WAL replay
// above this layer — the crash-consistency contract documented on the
// package.
//
// The amputated page is deliberately NOT returned to the free list. Its
// provenance is unknowable here: it may already be on the free list (the
// chain link to it being the stale pointer), or it may be owned by another
// structure that reused it — freeing it would enter it twice and a later
// AllocPage would hand one page to two owners. Leaking it costs a page
// until a segment rewrite; double allocation corrupts committed data.
func (s *Store) amputate(h *Heap, prev, bad PageID) error {
	if prev == InvalidPage {
		// The chain head itself is bad. The segment table durably names it
		// as this class's page — the alloc that handed it over updated the
		// metadata before the table was written — so reformatting it in
		// place is safe. Go through the pool: the walk may have left a
		// cached frame with the stale content.
		s.pool.Drop(h.First)
		var p Page
		p.Init(pageTypeHeap)
		mRecAmputated.Add(1)
		return s.disk.WritePage(h.First, &p)
	}
	pp, err := s.pool.Fetch(prev)
	if err != nil {
		return err
	}
	pp.SetNext(InvalidPage)
	s.pool.Unpin(prev, true)
	s.pool.Drop(bad)
	mRecAmputated.Add(1)
	return nil
}
