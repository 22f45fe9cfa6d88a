package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// DiskBackend is the page I/O surface the buffer pool programs against.
// *DiskManager is the production implementation; tests substitute stubs
// (e.g. a slow disk) to exercise the pool's concurrency protocol.
type DiskBackend interface {
	ReadPage(id PageID, p *Page) error
	WritePage(id PageID, p *Page) error
	AllocPage() (PageID, error)
	FreePage(id PageID) error
	Sync() error
	// NumPages is the file's length in pages; the chain walker refuses a
	// link at or past it without reading.
	NumPages() PageID
	GetRoot(r MetaRoot) PageID
	// SetRoots updates several roots with one metadata write — atomic
	// under the crash model (see DiskManager.SetRoots).
	SetRoots(roots map[MetaRoot]PageID) error
}

// PageLogger receives full-page images ahead of in-place page writes
// (WAL-before-data). LogPageImage is called with the sealed image of a
// dirty page the first time that page is about to be written back since its
// on-disk state was last known durable; FlushImages must make every logged
// image durable and completes before the page write itself. Recovery uses
// the images to physically restore pages torn by a crash mid-write, which
// is the only way to save records that predate the last checkpoint (they
// are no longer in the log, so amputating the torn page would lose them).
type PageLogger interface {
	LogPageImage(id PageID, img []byte) error
	FlushImages() error
}

// DefaultPoolShards is the default number of lock-striped shards.
const DefaultPoolShards = 16

// minShardFrames is the fewest frames a shard is built with. A page's shard
// is fixed by its id, and a shard can hold only as many pins as it has
// frames, so this is how many pages any caller can hold pinned at once
// whatever their ids (a pool smaller than this is one shard).
const minShardFrames = 8

// BufferPool caches pages in memory with LRU replacement and pin counting.
// All page access above the disk manager goes through the pool; the engine
// pins a page for the duration of a read or write and the pool refuses to
// evict pinned frames. Dirty frames are written back on eviction and on
// FlushAll (the checkpoint path).
//
// The pool is sharded: frames are striped across N independent shards keyed
// by PageID, each with its own mutex, LRU list and pin table, so fetches of
// unrelated pages never contend. Within a shard, a miss reads from disk
// *outside* the shard lock: the fetching goroutine installs a frame in the
// loading state and releases the lock for the duration of the I/O.
// Concurrent fetchers of the same page find the loading frame, pin it, and
// wait on the shard's condition variable — they coalesce onto one disk read
// instead of duplicating it — while fetchers of other pages in the shard
// proceed untouched.
//
// Frames are recycled, not freed. A shard allocates frames one by one until
// its table holds cap of them; from then on a miss evicts the least
// recently used unpinned frame and rekeys that same frame to the new page,
// so a steady-state miss allocates nothing. The price is a rule for every
// caller: a *Page from Fetch or FetchNew is valid only until the matching
// Unpin. After it the memory may hold any other page, so anything needed
// later (a Next link, record bytes) is copied out first.
type BufferPool struct {
	disk   DiskBackend
	shards []*poolShard
	mask   uint64 // len(shards)-1; len is a power of two

	// pageLog, when set, receives full-page images before in-place write-
	// backs (WAL-before-data). Set once right after open, before writes.
	pageLog PageLogger

	// recovering, while set, suppresses page frees driven by on-disk record
	// stubs (overflow and blob chains). During WAL replay a stub read from
	// the heap can predate the records being replayed — a crash may have
	// reverted its page to an older image — so the chain it names may
	// belong to another owner by now. Freeing through it would double-enter
	// pages on the free list; recovery leaks such chains instead.
	recovering atomic.Bool
}

// recycleHook, when set, is handed every frame's page the moment the frame
// is (re)keyed, before the new page is read in. Only tests set it, to
// poison the bytes: a caller that kept a *Page past Unpin then fails a
// checksum or a record decode instead of reading the previous page's
// plausible content.
var recycleHook func(*Page)

// SetPageLogger installs the full-page-image logger. Must be called before
// any page writes go through the pool (the engine wires it immediately
// after open).
func (bp *BufferPool) SetPageLogger(l PageLogger) { bp.pageLog = l }

// SetRecovering toggles recovery mode: stub-driven chain frees become
// leaks (see the recovering field). The engine sets it around WAL replay.
func (bp *BufferPool) SetRecovering(on bool) { bp.recovering.Store(on) }

// Recovering reports whether the pool is in recovery mode.
func (bp *BufferPool) Recovering() bool { return bp.recovering.Load() }

// poolShard is one lock stripe: a private frame table, LRU list and
// capacity slice of the pool.
type poolShard struct {
	mu     sync.Mutex
	loaded sync.Cond // on mu; signalled when a load others wait on ends, or a pin a flush waits on drops
	frames map[PageID]*frame
	lru    frame  // list head: lru.next is the most, lru.prev the least recently used
	free   *frame // frames holding no page (dropped, failed load), linked by next
	cap    int

	// hits and misses count under the shard lock Fetch holds anyway (see
	// Stats). A process-wide atomic add per hit would cost ~20% of the hit
	// path; a plain increment under a lock we already hold costs nothing
	// measurable. Every hitBatchSize-th hit flushes a batch to the obs
	// counter, which therefore lags by up to hitBatchSize-1 hits per shard.
	hits, misses uint64

	// flushWaits counts FlushAll callers parked in settleLocked; Unpin
	// signals loaded only when there is one.
	flushWaits int
}

// hitBatchSize is the flush granularity of the shard-local hit counter.
const hitBatchSize = 256

// frame is one page-sized buffer and its bookkeeping. Its life: allocated
// on a miss while the shard is below capacity; in the table and the LRU
// list under its page id (loading until the disk read returns); on
// eviction rekeyed in place to the page that displaced it; parked on the
// shard's free list when its page is dropped or its load fails.
type frame struct {
	page       Page
	id         PageID
	prev, next *frame // LRU links while in the table
	pins       int
	dirty      bool
	// imaged records that a full-page image of this frame has been logged
	// since the page's on-disk state was last made durable; further write-
	// backs in the same interval need no new image (recovery only needs
	// *some* consistent base to replay onto). Cleared after a sync.
	imaged bool

	// loading is set while the fetcher that installed the frame reads its
	// page from disk, outside the shard lock. Other fetchers pin the frame
	// and wait on the shard's loaded condition until it clears, then check
	// err: a failed load leaves the table at once, but the frame is
	// recycled only when the last waiter has read err and dropped its pin.
	loading bool
	err     error
}

// ErrPoolExhausted reports that every frame in the page's shard is pinned.
var ErrPoolExhausted = errors.New("storage: buffer pool exhausted (all frames pinned)")

// NewBufferPool creates a pool of the given total capacity with the default
// shard count.
func NewBufferPool(disk DiskBackend, capacity int) *BufferPool {
	return NewShardedBufferPool(disk, capacity, DefaultPoolShards)
}

// NewShardedBufferPool creates a pool of the given total capacity striped
// over at most the given number of shards. The shard count is clamped so
// every shard holds at least minShardFrames frames, raised to at least one,
// and rounded down to a power of two; each shard owns an equal slice of the
// capacity (rounded up, so the pool never shrinks below the request).
func NewShardedBufferPool(disk DiskBackend, capacity, shards int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	if shards > capacity/minShardFrames {
		shards = capacity / minShardFrames
	}
	if shards < 1 {
		shards = 1
	}
	// Round down to a power of two so shard selection is a mask.
	n := 1
	for n*2 <= shards {
		n *= 2
	}
	perShard := (capacity + n - 1) / n
	bp := &BufferPool{
		disk:   disk,
		shards: make([]*poolShard, n),
		mask:   uint64(n - 1),
	}
	for i := range bp.shards {
		sh := &poolShard{frames: make(map[PageID]*frame, perShard), cap: perShard}
		sh.loaded.L = &sh.mu
		sh.lru.prev, sh.lru.next = &sh.lru, &sh.lru
		bp.shards[i] = sh
	}
	return bp
}

// ShardCount returns the number of lock stripes (for tests and stats).
func (bp *BufferPool) ShardCount() int { return len(bp.shards) }

func (bp *BufferPool) shard(id PageID) *poolShard {
	return bp.shards[uint64(id)&bp.mask]
}

// Stats returns the pool's exact hit and miss counts: the sum of the
// per-shard counters, each read under its shard lock.
func (bp *BufferPool) Stats() (hits, misses uint64) {
	for _, sh := range bp.shards {
		sh.mu.Lock()
		hits, misses = hits+sh.hits, misses+sh.misses
		sh.mu.Unlock()
	}
	return hits, misses
}

// Fetch pins the page and returns it. The caller must Unpin it (with the
// dirty flag if it modified the page) and must not touch the page after.
func (bp *BufferPool) Fetch(id PageID) (*Page, error) {
	sh := bp.shard(id)
	sh.mu.Lock()
	f, hit := sh.frames[id]
	if hit {
		f.pins++
		sh.unlinkLocked(f)
		sh.pushFrontLocked(f)
		if sh.hits++; sh.hits%hitBatchSize == 0 {
			mBufHits.Add(hitBatchSize)
		}
		if f.loading {
			// Another goroutine is reading this page from disk; wait for
			// it rather than issuing a duplicate read.
			mBufCoalesced.Add(1)
			for f.loading {
				sh.loaded.Wait()
			}
		}
	} else {
		sh.misses++
		mBufMisses.Add(1)
		var err error
		if f, err = bp.allocFrameLocked(sh, id); err != nil {
			sh.mu.Unlock()
			return nil, err
		}
		f.pins, f.loading = 1, true
		sh.mu.Unlock()

		// Disk I/O happens outside the shard lock: cache hits on other
		// pages of this shard must never wait on this read.
		err = bp.readPageTimed(id, &f.page)

		sh.mu.Lock()
		f.loading, f.err = false, err
		if f.pins > 1 {
			sh.loaded.Broadcast()
		}
		if err != nil {
			// Out of the table now, so the next fetch retries the disk.
			sh.dropFrameLocked(f)
		}
	}
	err := f.err
	if err != nil {
		// A failed load, seen by its loader or a coalesced waiter: each
		// reads err under the lock, and the last pin out parks the frame.
		if f.pins--; f.pins == 0 {
			f.next, sh.free = sh.free, f
		}
	}
	sh.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return &f.page, nil
}

// FetchNew allocates a fresh page on disk, pins a zeroed frame for it
// initialized to the given type, and returns the id and page. The frame is
// dirty from birth.
func (bp *BufferPool) FetchNew(ptype byte) (PageID, *Page, error) {
	id, err := bp.disk.AllocPage()
	if err != nil {
		return InvalidPage, nil, err
	}
	sh := bp.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, err := bp.allocFrameLocked(sh, id)
	if err != nil {
		return InvalidPage, nil, err
	}
	f.page.Init(ptype)
	f.pins, f.dirty = 1, true
	return id, &f.page, nil
}

// Unpin releases one pin on the page, marking the frame dirty if the caller
// modified it. The caller's *Page is dead from here on: the frame may be
// rekeyed to another page at any moment.
func (bp *BufferPool) Unpin(id PageID, dirty bool) {
	sh := bp.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, ok := sh.frames[id]
	if !ok || f.pins == 0 {
		panic(fmt.Sprintf("storage: unpin of unpinned page %d", id))
	}
	f.pins--
	f.dirty = f.dirty || dirty
	if f.pins == 0 && sh.flushWaits > 0 {
		sh.loaded.Broadcast()
	}
}

// allocFrameLocked installs an unpinned frame for id at the front of the
// LRU list. At capacity the frame is the evicted victim's, rekeyed in
// place; below it, one off the free list, and a new one only when that is
// empty. The frame's page still holds whatever it held before.
func (bp *BufferPool) allocFrameLocked(sh *poolShard, id PageID) (*frame, error) {
	var f *frame
	var err error
	switch {
	case len(sh.frames) >= sh.cap:
		if f, err = bp.evictLocked(sh); err != nil {
			return nil, err
		}
	case sh.free != nil:
		f, sh.free = sh.free, sh.free.next
	default:
		f = new(frame)
	}
	if recycleHook != nil {
		recycleHook(&f.page)
	}
	f.id, f.dirty, f.imaged, f.err = id, false, false, nil
	sh.frames[id] = f
	sh.pushFrontLocked(f)
	return f, nil
}

func (sh *poolShard) pushFrontLocked(f *frame) {
	f.prev, f.next = &sh.lru, sh.lru.next
	f.prev.next, f.next.prev = f, f
}

func (sh *poolShard) unlinkLocked(f *frame) {
	f.prev.next, f.next.prev = f.next, f.prev
}

// dropFrameLocked takes the frame out of the table and the LRU list.
func (sh *poolShard) dropFrameLocked(f *frame) {
	delete(sh.frames, f.id)
	sh.unlinkLocked(f)
}

// sortedFramesLocked returns the shard's resident frames in ascending page
// order (deterministic sweeps for checkpoint and the crash harness).
func (sh *poolShard) sortedFramesLocked() []*frame {
	fs := make([]*frame, 0, len(sh.frames))
	for _, f := range sh.frames {
		fs = append(fs, f)
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].id < fs[j].id })
	return fs
}

// settleLocked makes a dirty frame safe for a checkpoint to read: a pin
// holder may be writing the page under its own latch (the heap latch, not
// the shard lock), so the frame's bytes are read only at pin count zero,
// with the shard lock held so nobody can pin it again. It waits for that on
// the shard's condition and reports whether f is then still a dirty frame
// of the table; the lock is released while waiting, so f may have been
// written back and rekeyed by an eviction in between.
func (sh *poolShard) settleLocked(f *frame) bool {
	id := f.id
	for sh.frames[id] == f && f.dirty && f.pins > 0 {
		sh.flushWaits++
		sh.loaded.Wait()
		sh.flushWaits--
	}
	return sh.frames[id] == f && f.dirty
}

// imageLocked logs a full-page image of the frame if the page logger is
// installed and this is the first write-back since the frame's on-disk
// state was known durable. With flush set, logged images are made durable
// immediately — required before the page write that follows (the
// WAL-before-data rule).
func (bp *BufferPool) imageLocked(f *frame, flush bool) error {
	if bp.pageLog == nil || f.imaged {
		return nil
	}
	f.page.Seal()
	if err := bp.pageLog.LogPageImage(f.id, f.page.Bytes()); err != nil {
		return err
	}
	if flush {
		if err := bp.pageLog.FlushImages(); err != nil {
			return err
		}
	}
	f.imaged = true
	return nil
}

// evictLocked takes the least recently used unpinned frame out of the
// table and returns it. A dirty victim is written back first, under the
// shard lock: the write has returned before a miss on that page can find
// the table empty and read it (the rule DiskManager.ReadPage relies on).
func (bp *BufferPool) evictLocked(sh *poolShard) (*frame, error) {
	for f := sh.lru.prev; f != &sh.lru; f = f.prev {
		if f.pins > 0 {
			continue
		}
		if f.dirty {
			if err := bp.imageLocked(f, true); err != nil {
				return nil, err
			}
			if err := bp.writePageTimed(f.id, &f.page); err != nil {
				return nil, err
			}
		}
		sh.dropFrameLocked(f)
		mBufEvictions.Add(1)
		return f, nil
	}
	return nil, ErrPoolExhausted
}

// FlushAll writes every dirty frame back to disk and syncs. This is the
// checkpoint path: after FlushAll returns, the on-disk pages reflect all
// buffered changes. Page images for all dirty frames are logged and made
// durable in one batch before any page is overwritten, so a crash in the
// middle of the write-back pass can always be repaired physically. Both
// passes read a frame's bytes only once it is unpinned (settleLocked).
func (bp *BufferPool) FlushAll() error {
	// Frames are visited in sorted page order, not map order: the crash
	// harness replays schedules by global I/O op index, which must be
	// identical across runs of the same seed.
	if bp.pageLog != nil {
		logged := false
		for _, sh := range bp.shards {
			sh.mu.Lock()
			for _, f := range sh.sortedFramesLocked() {
				if !f.imaged && sh.settleLocked(f) {
					if err := bp.imageLocked(f, false); err != nil {
						sh.mu.Unlock()
						return err
					}
					logged = true
				}
			}
			sh.mu.Unlock()
		}
		if logged {
			if err := bp.pageLog.FlushImages(); err != nil {
				return err
			}
		}
	}
	for _, sh := range bp.shards {
		sh.mu.Lock()
		for _, f := range sh.sortedFramesLocked() {
			if sh.settleLocked(f) {
				// Frames dirtied since the imaging pass (concurrent writers
				// under an active-transaction checkpoint) get their image
				// here, flushed inline.
				if err := bp.imageLocked(f, true); err != nil {
					sh.mu.Unlock()
					return err
				}
				if err := bp.writePageTimed(f.id, &f.page); err != nil {
					sh.mu.Unlock()
					return err
				}
				f.dirty = false
			}
		}
		sh.mu.Unlock()
	}
	if err := bp.disk.Sync(); err != nil {
		return err
	}
	// The synced state is a valid recovery base: the next write-back of any
	// frame must log a fresh image.
	for _, sh := range bp.shards {
		sh.mu.Lock()
		for _, f := range sh.frames {
			f.imaged = false
		}
		sh.mu.Unlock()
	}
	return nil
}

// FlushChain writes back and syncs every page of a linked chain (pages
// threaded by their Next pointer, e.g. a blob chain), making the chain
// durably readable. SwapBlobs uses this to persist a new chain BEFORE
// flipping the meta root to it: without that ordering, a crash after the
// root write but before the next full flush leaves the root pointing at
// pages that never reached disk, and the store cannot open.
func (bp *BufferPool) FlushChain(head PageID) error {
	for id := head; id != InvalidPage; {
		sh := bp.shard(id)
		sh.mu.Lock()
		var next PageID
		var err error
		if f, ok := sh.frames[id]; ok && !f.loading {
			if f.dirty {
				if err = bp.writePageTimed(id, &f.page); err == nil {
					f.dirty = false
				}
			}
			next = f.page.Next()
		} else {
			// Not resident (or still loading): the on-disk copy is current
			// for non-resident pages — evictions write through. The read
			// stays under the shard lock, which every pool write of this
			// page takes, so it cannot overlap one.
			var p Page
			err = bp.disk.ReadPage(id, &p)
			next = p.Next()
		}
		sh.mu.Unlock()
		if err != nil {
			return err
		}
		id = next
	}
	return bp.disk.Sync()
}

// FreePage returns a page to the disk free list after forcing the log:
// the free-list seal destroys the page's prior content in place, so the
// records describing how to rebuild it — typically the freeing
// transaction's undo, still sitting in the log's append buffer — must be
// durable first. Same WAL-before-data rule eviction enforces with page
// images, applied to the one other destructive in-place write.
func (bp *BufferPool) FreePage(id PageID) error {
	if bp.pageLog != nil {
		if err := bp.pageLog.FlushImages(); err != nil {
			return err
		}
	}
	return bp.disk.FreePage(id)
}

// Drop discards the frame for a page without writing it (used when the
// page itself is being freed).
func (bp *BufferPool) Drop(id PageID) {
	sh := bp.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if f, ok := sh.frames[id]; ok {
		if f.pins > 0 {
			panic(fmt.Sprintf("storage: drop of pinned page %d", id))
		}
		sh.dropFrameLocked(f)
		f.next, sh.free = sh.free, f
	}
}

// Len returns the number of resident frames (for tests).
func (bp *BufferPool) Len() int {
	n := 0
	for _, sh := range bp.shards {
		sh.mu.Lock()
		n += len(sh.frames)
		sh.mu.Unlock()
	}
	return n
}
