package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
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

// errHeapDetached is the sentinel Read and Scan return on a heap whose
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
	return h.insert(data)
}

func (h *Heap) insert(data []byte) (RID, error) {
	if len(data) <= maxInline {
		rec := make([]byte, 0, len(data)+1)
		rec = append(rec, recInline)
		rec = append(rec, data...)
		return h.insertRec(rec)
	}
	head, err := h.writeOverflow(data)
	if err != nil {
		return RID{}, err
	}
	stub := make([]byte, 0, 16)
	stub = append(stub, recOverflow)
	stub = binary.AppendUvarint(stub, uint64(len(data)))
	stub = binary.AppendUvarint(stub, uint64(head))
	return h.insertRec(stub)
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

// Read returns a copy of the payload stored at rid, or errHeapDetached when
// the heap's pages are being freed.
func (h *Heap) Read(rid RID) ([]byte, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.detached {
		return nil, errHeapDetached
	}
	return h.read(rid)
}

func (h *Heap) read(rid RID) ([]byte, error) {
	p, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return nil, err
	}
	defer h.pool.Unpin(rid.Page, false)
	rec, err := p.Read(int(rid.Slot))
	if err != nil {
		return nil, fmt.Errorf("%w: %s (%v)", ErrNoRecord, rid, err)
	}
	if len(rec) == 0 {
		return nil, fmt.Errorf("%w: %s (empty record)", ErrNoRecord, rid)
	}
	return h.appendPayload(make([]byte, 0, len(rec)-1), rec, rid)
}

// appendPayload appends the payload of the tagged record rec (stored at
// rid) to dst: the inline bytes, or the reassembled overflow chain. rec
// aliases a pinned page; the result does not.
func (h *Heap) appendPayload(dst, rec []byte, rid RID) ([]byte, error) {
	switch rec[0] {
	case recInline:
		return append(dst, rec[1:]...), nil
	case recOverflow:
		total, n := binary.Uvarint(rec[1:])
		head, m := binary.Uvarint(rec[1+n:])
		if n <= 0 || m <= 0 {
			return dst, fmt.Errorf("storage: corrupt overflow stub at %s", rid)
		}
		return h.appendOverflow(dst, PageID(head), int(total))
	default:
		return dst, fmt.Errorf("storage: unknown record tag %d at %s", rec[0], rid)
	}
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
	var rec []byte
	if len(data) <= maxInline {
		rec = make([]byte, 0, len(data)+1)
		rec = append(rec, recInline)
		rec = append(rec, data...)
	} else {
		// New image needs overflow: write chain, swap the stub in.
		head, err := h.writeOverflow(data)
		if err != nil {
			return RID{}, err
		}
		rec = make([]byte, 0, 16)
		rec = append(rec, recOverflow)
		rec = binary.AppendUvarint(rec, uint64(len(data)))
		rec = binary.AppendUvarint(rec, uint64(head))
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
	if err != nil {
		h.pool.Unpin(rid.Page, false)
		return fmt.Errorf("%w: %s (%v)", ErrNoRecord, rid, err)
	}
	var head PageID
	if rec[0] == recOverflow {
		_, n := binary.Uvarint(rec[1:])
		hd, m := binary.Uvarint(rec[1+n:])
		if n <= 0 || m <= 0 {
			h.pool.Unpin(rid.Page, false)
			return fmt.Errorf("storage: corrupt overflow stub at %s", rid)
		}
		head = PageID(hd)
	}
	h.pool.Unpin(rid.Page, false)
	freed := head != InvalidPage
	for head != InvalidPage {
		op, err := h.pool.Fetch(head)
		if err != nil {
			// Unreadable chain page: stop and leak the rest. Freeing pages
			// we cannot verify risks freeing someone else's page.
			mOverflowLeaked.Add(1)
			return nil
		}
		if op.Type() != pageTypeOverflow {
			// Stale stub (crash recovery replaying over a reverted page
			// image): the chain pointer leads to a page that was freed and
			// reused. Freeing it would enter a live page — or a page
			// already on the free list — into the free list and a later
			// alloc would hand it to two owners. Stop; leak the chain.
			h.pool.Unpin(head, false)
			mOverflowLeaked.Add(1)
			return nil
		}
		next := op.Next()
		h.pool.Unpin(head, false)
		h.pool.Drop(head)
		if err := h.pool.FreePage(head); err != nil {
			return err
		}
		head = next
	}
	if freed {
		mOverflowFrees.Add(1)
	}
	return nil
}

// writeOverflow spills the payload across a fresh chain of overflow pages
// and returns the chain head.
func (h *Heap) writeOverflow(data []byte) (PageID, error) {
	var head, prev PageID
	for off := 0; off < len(data); {
		chunk := len(data) - off
		if chunk > maxInline {
			chunk = maxInline
		}
		id, p, err := h.pool.FetchNew(pageTypeOverflow)
		if err != nil {
			return InvalidPage, err
		}
		if _, err := p.Insert(data[off : off+chunk]); err != nil {
			h.pool.Unpin(id, false)
			return InvalidPage, err
		}
		h.pool.Unpin(id, true)
		if head == InvalidPage {
			head = id
		} else {
			pp, err := h.pool.Fetch(prev)
			if err != nil {
				return InvalidPage, err
			}
			pp.SetNext(id)
			h.pool.Unpin(prev, true)
		}
		prev = id
		off += chunk
	}
	mOverflowWrites.Add(1)
	return head, nil
}

// appendOverflow reassembles a payload of total bytes from an overflow
// chain onto dst.
func (h *Heap) appendOverflow(dst []byte, head PageID, total int) ([]byte, error) {
	start := len(dst)
	if cap(dst)-start < total {
		dst = append(make([]byte, 0, start+total), dst...)
	}
	for id := head; id != InvalidPage; {
		p, err := h.pool.Fetch(id)
		if err != nil {
			return dst, err
		}
		chunk, err := p.Read(0)
		if err != nil {
			h.pool.Unpin(id, false)
			return dst, fmt.Errorf("storage: corrupt overflow page %d: %w", id, err)
		}
		dst = append(dst, chunk...)
		next := p.Next()
		h.pool.Unpin(id, false)
		id = next
	}
	if len(dst)-start != total {
		return dst, fmt.Errorf("storage: overflow chain length %d, expected %d", len(dst)-start, total)
	}
	return dst, nil
}

// Scan calls fn for every live record in the heap, in physical order. If
// fn returns false the scan stops early.
//
// Each page is pinned once and its live records are copied, in one pass
// over the slot array, into an arena the scan reuses from page to page:
// the payload passed to fn is valid only until fn returns, and a caller
// that keeps it clones it (Store.ScanClass does).
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
// or never acknowledged (the record had to disappear anyway).
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
	for id := h.First; id != InvalidPage; {
		h.mu.RLock()
		p, err := h.pool.Fetch(id)
		if err != nil {
			h.mu.RUnlock()
			return err
		}
		if recovering && p.Type() != pageTypeHeap {
			// Stale chain link into a reused page (rebuildDirectory cuts
			// these, but the scan guards independently): stop here rather
			// than read someone else's records.
			h.pool.Unpin(id, false)
			h.mu.RUnlock()
			return nil
		}
		next := p.Next()
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
		id = next
	}
	return nil
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
