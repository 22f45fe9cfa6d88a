package storage

import (
	"fmt"
	"time"

	"oodb/internal/model"
)

// Online segment compaction. A class's heap accumulates dead space as
// objects are updated, deleted and quarantined: pages sit half-empty in
// allocation order interleaved with other classes' I/O, and overflow
// chains orphaned by crashes leak entirely. RewriteSegment copies the live
// records of one class into a fresh, contiguous chain of full pages and
// swaps it in under the store mutex — the object-level contract (OIDs,
// indexes, WAL replay) is untouched because kimdb addresses objects
// logically: only the OID→RID directory changes.
//
// Crash safety is inherited from the DropClass protocol: the caller
// (core.CompactClass) checkpoints after the swap so the segment table
// durably names the new chain, and only then frees the detached old chain.
// A crash before the checkpoint leaks the new pages (the durable segment
// table still names the old chain, which is intact); a crash after it
// leaks whatever old pages were not yet freed. Neither loses a committed
// row, and no page is ever freed twice — the accountant's reclaim sweeps
// the leak either way.

// CompactResult reports what one segment rewrite did.
type CompactResult struct {
	Class       model.ClassID
	LiveRecords int   // records copied into the new segment
	LiveBytes   int64 // full (overflow-resolved) bytes copied
	PagesBefore int   // heap chain length before (overflow pages excluded)
	PagesAfter  int   // heap chain length after
	// LockHeld is how long writers of the class were excluded: from the
	// class write lock being granted to its release, after the checkpoints
	// and frees that close the DDL section. Set by core.CompactClass, which
	// takes the lock.
	LockHeld time.Duration
}

// SegmentInfo is the occupancy snapshot the maintenance trigger policy
// reads: how full a class's heap pages are with live records.
type SegmentInfo struct {
	Class       model.ClassID
	Pages       int     // heap chain length (overflow pages excluded)
	LiveRecords int     // live slots in those pages
	LiveBytes   int64   // heap-resident bytes of those records (stubs, not chains)
	Occupancy   float64 // LiveBytes / (Pages × usable page payload), clamped to 1
	Mutations   uint64  // writes to the segment since open; unchanged means write-quiet
}

// SegmentInfo returns the occupancy of a class's segment from the heap's
// own counters (Heap.Stats): no page is read, so a checkpoint can afford to
// ask about every class. Nil if the class has no segment.
//
// The counters see slots, not the directory: a stale duplicate a crash left
// behind counts as live until a rewrite drops it.
func (s *Store) SegmentInfo(class model.ClassID) *SegmentInfo {
	s.mu.RLock()
	h, ok := s.heaps[class]
	s.mu.RUnlock()
	if !ok {
		return nil
	}
	st := h.Stats()
	info := &SegmentInfo{
		Class: class, Pages: st.Pages, LiveRecords: st.Records,
		LiveBytes: st.Bytes, Mutations: st.Mutations,
	}
	if info.Pages > 0 {
		info.Occupancy = min(1, float64(info.LiveBytes)/float64(info.Pages*MaxRecord))
	}
	return info
}

// RewriteSegment copies every live, current record of the class into a
// fresh heap in physical scan order and swaps the fresh heap in. The copy
// streams: each record goes into the fresh heap as the scan hands it over,
// so the live set is never held in memory. The old segment is returned
// detached — its pages (and the old overflow chains) are still allocated;
// the caller frees them with FreeDetached once the metadata that stopped
// naming them is durable.
//
// Concurrency contract: the caller must exclude writers of the class for
// the duration (core.CompactClass holds the class write lock under the DDL
// mutex). Lock-free readers that resolved an RID before the swap keep
// reading the old heap's pages, which stay intact until FreeDetached;
// FreeDetached turns away the ones that have not reached the heap latch yet
// and they resolve again, to the fresh heap (see Heap.detach).
//
// visit, when non-nil, observes each copied record — the statistics
// collector rides along on the sweep so compaction and ANALYZE share one
// pass. data is the scan's own buffer (see Heap.Scan): it is valid only
// until visit returns, and a visitor that keeps it clones it. An error from
// visit abandons the rewrite and is returned.
//
// Records the directory does not name at their scanned RID are dropped:
// dead slots, and stale duplicates a crash can leave behind (an update
// torn between its delete and insert halves replays into one directory
// entry, but both physical copies survive rebuild). Compaction is thus
// also the dedup pass for such slots.
func (s *Store) RewriteSegment(class model.ClassID, visit func(oid model.OID, data []byte) error) (*DetachedSegment, *CompactResult, error) {
	s.mu.RLock()
	old, ok := s.heaps[class]
	cur := make(map[model.OID]RID)
	for oid, rid := range s.dir {
		if oid.Class() == class {
			cur[oid] = rid
		}
	}
	s.mu.RUnlock()
	if !ok {
		return nil, nil, fmt.Errorf("%w: %d", ErrNoSegment, class)
	}
	res := &CompactResult{Class: class, PagesBefore: old.Stats().Pages}

	fresh, err := NewHeap(s.pool)
	if err != nil {
		return nil, nil, err
	}
	abort := func(cause error) (*DetachedSegment, *CompactResult, error) {
		// Best-effort: return the half-built heap's pages. It was never
		// published, so freeing it cannot race anyone.
		_ = s.FreeDetached(&DetachedSegment{heap: fresh})
		return nil, nil, cause
	}
	newDir := make(map[model.OID]RID, len(cur))
	var ierr error
	err = old.Scan(func(rid RID, data []byte) bool {
		var oid model.OID
		if oid, ierr = recordOID(class, data); ierr != nil {
			return false
		}
		if r, ok := cur[oid]; !ok || r != rid {
			return true // dead or shadowed copy
		}
		var nrid RID
		if nrid, ierr = fresh.Insert(data); ierr != nil {
			return false
		}
		newDir[oid] = nrid
		res.LiveRecords++
		res.LiveBytes += int64(len(data))
		if visit != nil {
			ierr = visit(oid, data)
		}
		return ierr == nil
	})
	if err == nil {
		err = ierr
	}
	if err != nil {
		return abort(err)
	}
	res.PagesAfter = fresh.Stats().Pages
	s.mu.Lock()
	if h, ok := s.heaps[class]; !ok || h != old {
		s.mu.Unlock()
		return abort(fmt.Errorf("storage: segment for class %d changed during rewrite", class))
	}
	s.heaps[class] = fresh
	for oid, rid := range newDir {
		s.dir[oid] = rid
	}
	// Directory entries whose record the scan did not surface (a torn slot
	// the rebuild indexed anyway) would dangle into the freed old heap.
	for oid := range cur {
		if _, ok := newDir[oid]; !ok {
			delete(s.dir, oid)
		}
	}
	s.mu.Unlock()
	return &DetachedSegment{heap: old}, res, nil
}
