package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"oodb/internal/model"
)

// DiskManager reads and writes fixed-size pages in a single database file
// and manages page allocation through a free list threaded through freed
// pages' Next links.
//
// The metadata is duplexed (since format version 2): pages 0 and 1 are twin
// metadata slots carrying the same payload plus a monotonically increasing
// epoch, and every metadata write goes to the slot NOT holding the current
// state before becoming current itself. On open the newest slot that
// passes its checksum wins. A crash can therefore tear at most the slot
// being written, and the survivor is the state exactly one metadata write
// earlier — every metadata transition (free-list push/pop, root flip) is
// designed so that losing only its final write leaks a page at worst (see
// AllocPage's abandoned-head fallback and SwapBlobs' sync
// ordering). Files of another version — version 1 had a single slot at
// page 0, rewritten in place; version 2's catalog had no composite flags —
// are refused at open with an UnsupportedFormatError.
//
// Metadata slot payload (after the standard page header):
//
//	offset  field
//	32      magic (4 bytes)
//	36      format version (4 bytes)
//	40      free list head (8 bytes)
//	48      catalog blob chain head (8 bytes)
//	56      segment table blob chain head (8 bytes)
//	64      index table blob chain head (8 bytes)
//	72      statistics blob chain head (8 bytes)
//	80      metadata epoch (8 bytes)
//
// Locking: mu serialises every write and every use of the metadata (page
// writes, the free list, roots, file growth). ReadPage takes no lock at
// all — see its comment for why that is safe.
type DiskManager struct {
	mu   sync.Mutex
	file *os.File
	// numPages counts the pages in the file, the meta slots included. It
	// only grows, under mu, and is published after the file has been
	// extended, so a lock-free reader that sees an id in range finds it.
	numPages atomic.Uint64
	meta     Page
	curSlot  PageID // slot holding the current metadata
}

const (
	diskMagic      = 0x4B44_4201 // "KDB" + format 1
	diskVersion    = 3           // current format: duplexed metadata slots, composite flags in the catalog
	metaOffMagic   = 32
	metaOffVersion = 36
	metaOffFree    = 40
	metaOffCatalog = 48
	metaOffSegTab  = 56
	metaOffIdxTab  = 64
	metaOffStats   = 72
	metaOffEpoch   = 80
)

// MetaSlots is the number of duplexed metadata slots at the head of a
// format-version-2 file (pages 0 and 1). Data pages start after them.
const MetaSlots = 2

// ErrNotADatabase reports a file that does not carry the kimdb magic.
var ErrNotADatabase = errors.New("storage: not a kimdb database file")

// UnsupportedFormatError reports a kimdb file whose metadata format version
// this build does not read. It wraps ErrNotADatabase: such a file is refused
// before anything past its metadata slot is read.
type UnsupportedFormatError struct{ Version uint32 }

func (e *UnsupportedFormatError) Error() string {
	return fmt.Sprintf("storage: metadata format version %d is not supported (this build reads version %d)", e.Version, diskVersion)
}

func (e *UnsupportedFormatError) Unwrap() error { return ErrNotADatabase }

// Disk is the complete disk surface the store programs against: the buffer
// pool's page I/O plus lifecycle. *DiskManager is the production
// implementation; the fault-injection layer (internal/fault) wraps it to
// script I/O failures and simulated crashes. Data pages start at MetaSlots.
type Disk interface {
	DiskBackend
	Close() error
}

// The disk manager is the production page backend of the buffer pool.
var _ Disk = (*DiskManager)(nil)

// OpenDisk opens (or creates) a database file.
func OpenDisk(path string) (*DiskManager, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	d := &DiskManager{file: f}
	if st.Size() == 0 {
		// Fresh database: format both metadata slots so the alternating
		// writer always has a valid fallback from the first write on.
		d.meta.Init(pageTypeMeta)
		binary.BigEndian.PutUint32(d.meta.buf[metaOffMagic:], diskMagic)
		binary.BigEndian.PutUint32(d.meta.buf[metaOffVersion:], diskVersion)
		binary.BigEndian.PutUint64(d.meta.buf[metaOffEpoch:], 1)
		d.numPages.Store(MetaSlots)
		d.meta.Seal()
		for slot := PageID(0); slot < MetaSlots; slot++ {
			if _, err := f.WriteAt(d.meta.buf[:], int64(slot)*PageSize); err != nil {
				f.Close()
				return nil, fmt.Errorf("storage: format metadata slot %d: %w", slot, err)
			}
		}
		d.curSlot = 0
		return d, nil
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s: size %d not page-aligned", path, st.Size())
	}
	d.numPages.Store(uint64(st.Size() / PageSize))
	if err := d.openMeta(); err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

// openMeta reads the metadata slots and installs the newest valid one. A
// torn or stale slot is tolerated as long as its twin verifies — that
// fallback is the whole point of the duplexing and is counted on
// storage_meta_slot_fallbacks. With no valid slot the file is refused with
// slot 0's error; a slot of any other format version refuses it too.
func (d *DiskManager) openMeta() error {
	type slotState struct {
		page    Page
		version uint32
		epoch   uint64
		err     error
	}
	var slots [MetaSlots]slotState
	n := min(d.NumPages(), MetaSlots)
	winner := -1
	for i := range int(n) {
		s := &slots[i]
		if _, s.err = d.file.ReadAt(s.page.buf[:], int64(i)*PageSize); s.err == nil {
			s.version, s.epoch, s.err = decodeMetaSlot(&s.page)
		}
		if s.err == nil && (winner < 0 || s.epoch > slots[winner].epoch) {
			winner = i
		}
	}
	if winner < 0 {
		return fmt.Errorf("storage: metadata page: %w", slots[0].err)
	}
	if v := slots[winner].version; v != diskVersion {
		return &UnsupportedFormatError{Version: v}
	}
	d.meta = slots[winner].page
	d.curSlot = PageID(winner)
	for i := range int(n) {
		if slots[i].err != nil {
			// The twin slot exists but did not verify: a torn metadata
			// write survived by its sibling.
			mMetaSlotFallback.Add(1)
		}
	}
	return nil
}

// decodeMetaSlot checks a raw metadata slot — checksum, kimdb magic, page
// type, in that order — and returns its format version and epoch. A
// checksum-valid page without the magic is ErrNotADatabase; one with the
// magic but another page type is corrupt.
func decodeMetaSlot(p *Page) (version uint32, epoch uint64, err error) {
	if err := p.Verify(); err != nil {
		return 0, 0, err
	}
	if binary.BigEndian.Uint32(p.buf[metaOffMagic:]) != diskMagic {
		return 0, 0, ErrNotADatabase
	}
	if p.Type() != pageTypeMeta {
		return 0, 0, fmt.Errorf("page type %d is not a metadata slot: %w", p.Type(), model.ErrCorrupt)
	}
	return binary.BigEndian.Uint32(p.buf[metaOffVersion:]), binary.BigEndian.Uint64(p.buf[metaOffEpoch:]), nil
}

// Close syncs and closes the file.
func (d *DiskManager) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.file.Sync(); err != nil {
		d.file.Close()
		return err
	}
	return d.file.Close()
}

// NumPages returns the current file size in pages.
func (d *DiskManager) NumPages() PageID { return PageID(d.numPages.Load()) }

// ReadPage reads the page into p, verifying its checksum.
//
// It takes no lock, so concurrent misses neither queue behind one another
// nor behind a writer: the bound is an atomic load, pread is positional,
// and the checksum runs on the caller's buffer. What keeps a read from
// observing a half-written page is its callers, not a mutex — a read and a
// write of the same page id are never in flight together:
//   - the buffer pool writes a page back (eviction, FlushAll, FlushChain)
//     under the page's shard lock while its frame is still in the table, so
//     a miss on that id — which reads only after finding no frame — starts
//     after the write has returned; a frame whose read is in flight is
//     pinned and clean, so it is never written;
//   - FreePage and the free-list pop in AllocPage touch pages no frame
//     holds (callers Drop before freeing) and run under mu against each
//     other;
//   - the zero page AllocPage appends lies beyond numPages until it has
//     been written.
func (d *DiskManager) ReadPage(id PageID, p *Page) error {
	if n := d.NumPages(); id >= n {
		return fmt.Errorf("storage: read of page %d beyond end (%d pages)", id, n)
	}
	if _, err := d.file.ReadAt(p.buf[:], int64(id)*PageSize); err != nil && err != io.EOF {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	if err := p.Verify(); err != nil {
		return fmt.Errorf("page %d: %w", id, err)
	}
	return nil
}

// WritePage seals (checksums) and writes the page.
func (d *DiskManager) WritePage(id PageID, p *Page) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writePageLocked(id, p)
}

func (d *DiskManager) writePageLocked(id PageID, p *Page) error {
	if id < MetaSlots {
		return fmt.Errorf("storage: write of metadata slot %d through the page seam", id)
	}
	if n := d.NumPages(); id >= n {
		return fmt.Errorf("storage: write of page %d beyond end (%d pages)", id, n)
	}
	p.Seal()
	if _, err := d.file.WriteAt(p.buf[:], int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	return nil
}

// AllocPage returns a fresh page id, reusing the free list before extending
// the file. The returned page's on-disk content is undefined; callers must
// Init and write it.
func (d *DiskManager) AllocPage() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	head := PageID(binary.BigEndian.Uint64(d.meta.buf[metaOffFree:]))
	if head != InvalidPage {
		var p Page
		err := d.ReadPage(head, &p)
		if err == nil && p.Type() != pageTypeFree {
			err = fmt.Errorf("storage: free-list head %d is not a free page", head)
		}
		if err != nil {
			// A torn or clobbered free-list head would otherwise wedge every
			// allocation forever. Abandon the list — its pages leak, which
			// only costs space — and fall through to extending the file.
			mFreeListAbandoned.Add(1)
			binary.BigEndian.PutUint64(d.meta.buf[metaOffFree:], uint64(InvalidPage))
			if merr := d.writeMetaLocked(); merr != nil {
				return InvalidPage, merr
			}
		} else {
			binary.BigEndian.PutUint64(d.meta.buf[metaOffFree:], uint64(p.Next()))
			if err := d.writeMetaLocked(); err != nil {
				return InvalidPage, err
			}
			mFreeListReused.Add(1)
			return head, nil
		}
	}
	// Extend the file with a zero page, then publish the new size: a reader
	// handed this id must find it in bounds and on disk.
	id := d.NumPages()
	var zero Page
	zero.Init(pageTypeFree)
	zero.Seal()
	if _, err := d.file.WriteAt(zero.buf[:], int64(id)*PageSize); err != nil {
		return InvalidPage, fmt.Errorf("storage: extend to page %d: %w", id, err)
	}
	d.numPages.Store(uint64(id) + 1)
	return id, nil
}

// FreePage returns a page to the free list.
func (d *DiskManager) FreePage(id PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id == InvalidPage || id < MetaSlots || id >= d.NumPages() {
		return fmt.Errorf("storage: free of invalid page %d", id)
	}
	var p Page
	p.Init(pageTypeFree)
	p.SetNext(PageID(binary.BigEndian.Uint64(d.meta.buf[metaOffFree:])))
	if err := d.writePageLocked(id, &p); err != nil {
		return err
	}
	binary.BigEndian.PutUint64(d.meta.buf[metaOffFree:], uint64(id))
	mFreeListFreed.Add(1)
	return d.writeMetaLocked()
}

// Sync forces all written pages to stable storage.
func (d *DiskManager) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.file.Sync()
}

// Meta roots. The engine stores the heads of its system blob chains
// (catalog image, segment table, index table, statistics) in the metadata
// slots.

// MetaRoot identifies one of the blob-chain roots in the metadata page.
type MetaRoot int

// The metadata roots.
const (
	RootCatalog MetaRoot = iota
	RootSegTable
	RootIndexTable
	RootStats
)

func (r MetaRoot) offset() int {
	switch r {
	case RootCatalog:
		return metaOffCatalog
	case RootSegTable:
		return metaOffSegTab
	case RootStats:
		return metaOffStats
	default:
		return metaOffIdxTab
	}
}

// GetRoot returns the page chain head stored under the root.
func (d *DiskManager) GetRoot(r MetaRoot) PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return PageID(binary.BigEndian.Uint64(d.meta.buf[r.offset():]))
}

// SetRoots stores several roots with a single metadata write. Because one
// metadata write lands in one slot, the batch is atomic under the crash
// model: after a crash either all of the updates are visible or none are.
// The checkpoint uses this to swap the catalog, segment-table, index-table
// and statistics blobs as one transition, closing the window where a crash
// between separate root flips could reopen with a segment whose class is
// gone from the catalog.
func (d *DiskManager) SetRoots(roots map[MetaRoot]PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for r, id := range roots {
		binary.BigEndian.PutUint64(d.meta.buf[r.offset():], uint64(id))
	}
	return d.writeMetaLocked()
}

// writeMetaLocked persists the metadata: the epoch is bumped and the write
// targets the slot not holding the current state, so a crash mid-write
// still leaves the previous state readable.
func (d *DiskManager) writeMetaLocked() error {
	epoch := binary.BigEndian.Uint64(d.meta.buf[metaOffEpoch:]) + 1
	binary.BigEndian.PutUint64(d.meta.buf[metaOffEpoch:], epoch)
	d.curSlot = 1 - d.curSlot
	d.meta.Seal()
	if _, err := d.file.WriteAt(d.meta.buf[:], int64(d.curSlot)*PageSize); err != nil {
		return fmt.Errorf("storage: write metadata page: %w", err)
	}
	return nil
}

// MetaSlotInfo inspects a raw page image as a metadata slot: it reports
// the format version and epoch if the image is a checksum-valid metadata
// page carrying the kimdb magic. The fault-injection layer uses it to find
// the newest slot of a duplexed file when simulating a torn metadata
// write, and tests use it to assert slot alternation.
func MetaSlotInfo(buf []byte) (version uint32, epoch uint64, ok bool) {
	if len(buf) != PageSize {
		return 0, 0, false
	}
	var p Page
	copy(p.buf[:], buf)
	version, epoch, err := decodeMetaSlot(&p)
	return version, epoch, err == nil
}
