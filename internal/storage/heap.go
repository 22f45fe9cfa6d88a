package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"oodb/internal/model"
)

// RID is a record identifier: the physical address of a stored record.
type RID struct {
	Page PageID
	Slot uint16
}

// IsZero reports whether the RID is unset.
func (r RID) IsZero() bool { return r.Page == InvalidPage && r.Slot == 0 }

func (r RID) String() string { return fmt.Sprintf("%d.%d", r.Page, r.Slot) }

// Record tags. Every heap record starts with a tag byte: inline records
// carry the payload directly; overflow stubs point at a chain of overflow
// pages holding the payload (long unstructured data — images, documents —
// per Kim §2.2).
const (
	recInline   = 0x00
	recOverflow = 0x01
)

// ErrNoRecord reports a read of a missing record.
var ErrNoRecord = errors.New("storage: no such record")

// Heap is one class's segment: a chain of heap pages. New records go to the
// tail page (with in-page compaction reusing freed space); records that
// outgrow their page are relocated transparently, with the new RID returned
// to the caller for directory maintenance.
//
// The heap latch (mu) serializes page mutation within the segment: the
// lock manager isolates logical conflicts (two writers never touch the
// same object), but two transactions writing *different* objects of the
// same class legitimately run concurrently and would otherwise race on a
// shared page. The latch is a reader/writer lock: reads only inspect page
// bytes, so concurrent readers of the same segment share the latch and
// serialize only against mutators.
type Heap struct {
	mu    sync.RWMutex
	pool  *BufferPool
	First PageID
	Last  PageID

	// stats is the segment's accounting, kept current by every mutation
	// under mu (and seeded by RecoverScan at open), so the occupancy the
	// maintenance trigger reads costs no page I/O.
	stats HeapStats

	// detached is set, under mu, before a segment's pages are freed
	// (Store.FreeDetached): a reader that resolved this heap through the
	// store's directory and was descheduled before taking the latch finds
	// the flag and re-resolves instead of reading a freed page. scans
	// counts the scans that registered before the flag went up; the free
	// waits for them.
	detached bool
	scans    sync.WaitGroup
}

// HeapStats is a heap's incremental accounting.
type HeapStats struct {
	Pages     int    // heap chain length (overflow pages excluded)
	Records   int    // live slots
	Bytes     int64  // stored bytes of those slots: tag + payload, or tag + overflow stub
	Mutations uint64 // inserts, updates and deletes since open: unchanged means write-quiet
}

// errHeapDetached is the sentinel view and Scan return on a heap whose
// pages are being freed. It never leaves the package: the Store callers
// re-resolve the class through the directory.
var errHeapDetached = errors.New("storage: heap detached")

// NewHeap creates an empty heap with one allocated page.
func NewHeap(pool *BufferPool) (*Heap, error) {
	id, _, err := pool.FetchNew(pageTypeHeap)
	if err != nil {
		return nil, err
	}
	pool.Unpin(id, true)
	return &Heap{pool: pool, First: id, Last: id, stats: HeapStats{Pages: 1}}, nil
}

// OpenHeap re-attaches to an existing heap chain. Its accounting is zero
// until RecoverScan has walked the chain.
func OpenHeap(pool *BufferPool, first, last PageID) *Heap {
	return &Heap{pool: pool, First: first, Last: last}
}

// Stats returns the heap's accounting.
func (h *Heap) Stats() HeapStats {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.stats
}

// detach marks the heap as no longer readable and waits for the scans
// already inside it. After it returns nothing but the caller touches the
// heap's pages.
func (h *Heap) detach() {
	h.mu.Lock()
	h.detached = true
	h.mu.Unlock()
	h.scans.Wait()
}

// maxInline is the largest payload stored inline (tag byte included in the
// page record).
const maxInline = MaxRecord - 1

// Insert stores the payload and returns its RID.
func (h *Heap) Insert(data []byte) (RID, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stats.Mutations++
	rec, err := h.record(data)
	if err != nil {
		return RID{}, err
	}
	return h.insertRec(rec)
}

// record builds the tagged record that stores data: the payload inline, or
// the stub naming a fresh overflow chain that holds it.
func (h *Heap) record(data []byte) ([]byte, error) {
	if len(data) <= maxInline {
		return append(append(make([]byte, 0, len(data)+1), recInline), data...), nil
	}
	head, err := h.pool.writeChain(pageTypeOverflow, data)
	if err != nil {
		return nil, err
	}
	mOverflowWrites.Add(1)
	stub := binary.AppendUvarint(append(make([]byte, 0, 16), recOverflow), uint64(len(data)))
	return binary.AppendUvarint(stub, uint64(head)), nil
}

// insertRec places an already-tagged record on the tail page, growing the
// chain when the tail is full.
func (h *Heap) insertRec(rec []byte) (RID, error) {
	p, err := h.pool.Fetch(h.Last)
	if err != nil {
		return RID{}, err
	}
	slot, err := p.Insert(rec)
	if err == nil {
		h.pool.Unpin(h.Last, true)
		h.stats.Records++
		h.stats.Bytes += int64(len(rec))
		return RID{Page: h.Last, Slot: uint16(slot)}, nil
	}
	if !errors.Is(err, ErrPageFull) {
		h.pool.Unpin(h.Last, false)
		return RID{}, err
	}
	// Grow the chain.
	newID, np, nerr := h.pool.FetchNew(pageTypeHeap)
	if nerr != nil {
		h.pool.Unpin(h.Last, false)
		return RID{}, nerr
	}
	p.SetNext(newID)
	h.pool.Unpin(h.Last, true)
	prev := h.Last
	h.Last = newID
	slot, err = np.Insert(rec)
	h.pool.Unpin(newID, true)
	if err != nil {
		h.Last = prev
		return RID{}, err
	}
	h.stats.Pages++
	h.stats.Records++
	h.stats.Bytes += int64(len(rec))
	return RID{Page: newID, Slot: uint16(slot)}, nil
}

// Bounds returns the first and last page of the heap chain under the
// latch (the checkpoint path reads them while writers may be growing the
// chain).
func (h *Heap) Bounds() (first, last PageID) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.First, h.Last
}

// view calls fn with the payload stored at rid, under the heap latch in
// read mode and a pin on the record's page (see Store.View), or returns
// errHeapDetached when the heap's pages are being freed. An inline payload
// is a full slice expression of the page bytes, so an append by fn cannot
// reach the page; an overflow payload is reassembled into its own buffer.
func (h *Heap) view(rid RID, fn func(payload []byte) error) error {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.detached {
		return errHeapDetached
	}
	p, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	defer h.pool.Unpin(rid.Page, false)
	rec, err := p.Read(int(rid.Slot))
	if err != nil {
		return fmt.Errorf("%w: %s (%v)", ErrNoRecord, rid, err)
	}
	if len(rec) == 0 {
		return fmt.Errorf("%w: %s (empty record)", ErrNoRecord, rid)
	}
	if rec[0] == recInline {
		return fn(rec[1:len(rec):len(rec)])
	}
	payload, err := h.appendPayload(nil, rec, rid)
	if err != nil {
		return err
	}
	return fn(payload)
}

// appendPayload appends the payload of the tagged record rec (stored at
// rid) to dst: the inline bytes, or the reassembled overflow chain. rec
// aliases a pinned page; the result does not.
func (h *Heap) appendPayload(dst, rec []byte, rid RID) ([]byte, error) {
	switch rec[0] {
	case recInline:
		return append(dst, rec[1:]...), nil
	case recOverflow:
		// The chain is read into a buffer of exactly the stub's size, so a
		// size no file of this length can hold is refused before allocating.
		total, head, ok := overflowStub(rec)
		if !ok || total > uint64(h.pool.disk.NumPages())*maxInline {
			return dst, fmt.Errorf("%w: overflow stub at %s", model.ErrCorrupt, rid)
		}
		start := len(dst)
		if cap(dst)-start < int(total) {
			dst = append(make([]byte, 0, start+int(total)), dst...)
		}
		out, err := h.pool.appendChain(dst, head, pageTypeOverflow)
		if err == nil && len(out)-start != int(total) {
			err = fmt.Errorf("%w: overflow chain at %s holds %d bytes, stub says %d", model.ErrCorrupt, rid, len(out)-start, total)
		}
		return out, err
	default:
		return dst, fmt.Errorf("%w: unknown record tag %d at %s", model.ErrCorrupt, rec[0], rid)
	}
}

// overflowStub decodes an overflow record: the payload size and the head
// of the chain that holds it.
func overflowStub(rec []byte) (total uint64, head PageID, ok bool) {
	total, n := binary.Uvarint(rec[1:])
	if n <= 0 {
		return 0, InvalidPage, false
	}
	hd, m := binary.Uvarint(rec[1+n:])
	return total, PageID(hd), m > 0
}

// Update replaces the payload at rid, returning the (possibly new) RID.
func (h *Heap) Update(rid RID, data []byte) (RID, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stats.Mutations++
	return h.update(rid, data)
}

func (h *Heap) update(rid RID, data []byte) (RID, error) {
	// Free any existing overflow chain first; the new image replaces it.
	if err := h.freeIfOverflow(rid); err != nil {
		return RID{}, err
	}
	rec, err := h.record(data)
	if err != nil {
		return RID{}, err
	}
	p, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return RID{}, err
	}
	old := p.recLen(int(rid.Slot))
	err = p.Update(int(rid.Slot), rec)
	h.pool.Unpin(rid.Page, true)
	if err == nil {
		h.stats.Bytes += int64(len(rec) - old)
		return rid, nil
	}
	if !errors.Is(err, ErrPageFull) {
		return RID{}, err
	}
	// Page.Update already removed the old record; relocate.
	h.stats.Records--
	h.stats.Bytes -= int64(old)
	return h.insertRec(rec)
}

// Delete removes the record at rid, freeing any overflow chain.
func (h *Heap) Delete(rid RID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stats.Mutations++
	return h.delete(rid)
}

func (h *Heap) delete(rid RID) error {
	if err := h.freeIfOverflow(rid); err != nil {
		return err
	}
	p, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	old := p.recLen(int(rid.Slot))
	err = p.Delete(int(rid.Slot))
	h.pool.Unpin(rid.Page, err == nil)
	if err != nil {
		return fmt.Errorf("%w: %s (%v)", ErrNoRecord, rid, err)
	}
	h.stats.Records--
	h.stats.Bytes -= int64(old)
	return nil
}

// freeIfOverflow releases the overflow chain referenced by the record at
// rid, if any. In recovery mode the chain is leaked instead: the stub was
// read from a possibly-reverted page, so the pages it names may have been
// reallocated to another owner since — even to another overflow chain,
// which no type check can distinguish.
func (h *Heap) freeIfOverflow(rid RID) error {
	if h.pool.Recovering() {
		mOverflowLeaked.Add(1)
		return nil
	}
	p, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	rec, err := p.Read(int(rid.Slot))
	head, ok := InvalidPage, true
	if err == nil && len(rec) > 0 && rec[0] == recOverflow {
		_, head, ok = overflowStub(rec)
	}
	h.pool.Unpin(rid.Page, false)
	switch {
	case err != nil:
		return fmt.Errorf("%w: %s (%v)", ErrNoRecord, rid, err)
	case !ok:
		return fmt.Errorf("%w: overflow stub at %s", model.ErrCorrupt, rid)
	case head == InvalidPage:
		return nil
	}
	// A stale stub (replay over a reverted page image) can name a chain
	// that was freed and reused; freeChain stops at its first foreign page.
	leaked, err := h.pool.freeChain(head, pageTypeOverflow)
	switch {
	case leaked:
		mOverflowLeaked.Add(1)
	case err == nil:
		mOverflowFrees.Add(1)
	}
	return err
}

// Scan calls fn for every live record in the heap, in physical order. If
// fn returns false the scan stops early.
//
// Each page is pinned once and its live records are copied, in one pass
// over the slot array, into an arena the scan reuses from page to page:
// the payload passed to fn is valid only until fn returns, and a caller
// that keeps it clones it.
//
// Each page is collected AND read under a single hold of the heap latch,
// so a concurrent update cannot relocate a record within a page between
// the scan noting its slot and reading it. A record the scan does not see
// at its original position can therefore only have moved to the heap tail
// (updates relocate into the last page), which the scan visits afterwards
// — lock-free snapshot scans rely on this no-miss guarantee; they dedup
// the resulting duplicates by OID. fn runs outside the latch and may
// itself read through the heap.
//
// On a detached heap Scan returns errHeapDetached before it calls fn. A
// scan that got in first runs to its end on intact pages: detach waits for
// it, so a scan never changes segments half way and never repeats a record
// for that reason.
func (h *Heap) Scan(fn func(rid RID, data []byte) bool) error {
	h.mu.RLock()
	if h.detached {
		h.mu.RUnlock()
		return errHeapDetached
	}
	h.scans.Add(1)
	h.mu.RUnlock()
	defer h.scans.Done()
	return h.scan(fn, false)
}

// RecoverScan is Scan for crash recovery: a live record whose content
// cannot be reassembled — typically an overflow stub whose chain pages
// never became durable before the crash and reverted to stale (but
// checksum-valid) states — is quarantined and the scan continues, where a
// normal Scan would fail. A quarantined record's transaction either logged
// its redo before acknowledging (logical WAL replay reinserts the object)
// or never acknowledged (the record had to disappear anyway). A damaged
// heap chain fails both scans alike (chainWalk).
//
// It is also where an opened heap's accounting comes from: the pages and the
// records that survive the scan are counted into h.stats.
func (h *Heap) RecoverScan(fn func(rid RID, data []byte) bool) error {
	return h.scan(fn, true)
}

func (h *Heap) scan(fn func(rid RID, data []byte) bool, recovering bool) error {
	type rec struct {
		slot     uint16
		off, end int // payload is arena[off:end]
	}
	var recs []rec
	var arena []byte
	var bad []RID // recovering: records to quarantine once the latch is dropped
	var seen HeapStats
	if recovering {
		defer func() {
			h.mu.Lock()
			h.stats = seen
			h.mu.Unlock()
		}()
	}
	for w := h.pool.walkChain(h.First, pageTypeHeap); ; {
		// The step reads the page's Next link under the latch: insertRec
		// writes the tail's there.
		h.mu.RLock()
		id, p, err := w.step()
		if p == nil {
			h.mu.RUnlock()
			return err
		}
		// Size both buffers for the page up front: its slot count, and the
		// record bytes it holds (overflow payloads grow the arena further).
		n := p.Slots()
		if cap(recs) < n {
			recs = make([]rec, 0, n)
		}
		if used := PageSize - p.freePtr(); cap(arena) < used {
			arena = make([]byte, 0, used)
		}
		recs, arena, bad = recs[:0], arena[:0], bad[:0]
		for slot := 0; slot < n && err == nil; slot++ {
			off, length := p.slot(slot)
			if off == 0 || length == 0 {
				continue // deleted, quarantined or torn slot
			}
			rid, start := RID{Page: id, Slot: uint16(slot)}, len(arena)
			arena, err = h.appendPayload(arena, p.buf[off:off+length], rid)
			if err != nil && recovering {
				bad, arena, err = append(bad, rid), arena[:start], nil
				continue
			}
			recs = append(recs, rec{uint16(slot), start, len(arena)})
			seen.Bytes += int64(length)
		}
		seen.Pages++
		seen.Records += len(recs)
		h.pool.Unpin(id, false)
		h.mu.RUnlock()
		if err != nil {
			return err
		}
		for _, rid := range bad {
			if err := h.quarantine(rid); err != nil {
				return err
			}
		}
		for _, r := range recs {
			if !fn(RID{Page: id, Slot: r.slot}, arena[r.off:r.end:r.end]) {
				return nil
			}
		}
	}
}

// quarantine deletes an unreadable record's slot in place without touching
// its overflow chain: the chain pages may have reverted to older states or
// been reallocated, so walking them to free is unsafe. The chain is leaked
// deliberately (reclaimed by a future segment rewrite).
func (h *Heap) quarantine(rid RID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	err = p.Delete(int(rid.Slot))
	h.pool.Unpin(rid.Page, err == nil)
	if err != nil {
		return fmt.Errorf("storage: quarantine %s: %w", rid, err)
	}
	mRecQuarantined.Add(1)
	return nil
}
