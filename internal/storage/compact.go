package storage

import (
	"encoding/binary"
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
	Reordered   int   // records placed at a different position than scan order
	// LockHeld is how long writers of the class were excluded: from the
	// class write lock being granted to its release after the closing
	// checkpoint. Set by core.CompactClassOrdered, which takes the lock.
	LockHeld time.Duration
}

// Placement is a compaction ordering policy: given the class's live OIDs in
// physical scan order, it returns the order records should be laid into the
// fresh segment. Placement decides layout and nothing else — the rewrite
// copies exactly the live set regardless of what the policy returns:
//
//   - OIDs absent from scanOrder (not live in this class) are ignored;
//   - duplicates keep their first position;
//   - live OIDs the policy omitted are appended afterwards in scan order.
//
// So a policy may safely return a partial or over-complete order (e.g. a
// composite DFS that only reaches part of the graph, or heat counts that
// include since-deleted objects). A nil Placement means physical scan
// order — byte-identical to an unordered rewrite. The policy runs inside
// the compaction critical section but outside all storage locks, so it may
// fetch objects through the store; it must not write.
type Placement func(scanOrder []model.OID) []model.OID

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
// fresh heap in physical scan order and swaps the fresh heap in. The old
// segment is returned detached — its pages (and the old overflow chains)
// are still allocated; the caller frees them with FreeDetached once the
// metadata that stopped naming them is durable.
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
// pass.
//
// Records the directory does not name at their scanned RID are dropped:
// dead slots, and stale duplicates a crash can leave behind (an update
// torn between its delete and insert halves replays into one directory
// entry, but both physical copies survive rebuild). Compaction is thus
// also the dedup pass for such slots.
func (s *Store) RewriteSegment(class model.ClassID, visit func(oid model.OID, data []byte)) (*DetachedSegment, *CompactResult, error) {
	return s.RewriteSegmentOrdered(class, nil, visit)
}

// RewriteSegmentOrdered is RewriteSegment with a placement policy deciding
// the physical order of the fresh segment. A nil order is physical scan
// order — the byte-identical default. See Placement for the ordering
// contract; everything else (live-set selection, crash safety, the swap
// discipline) is identical to RewriteSegment.
//
// The live records are buffered in memory for the reorder (overflow
// resolved — the same bytes the streaming path holds one at a time), then
// inserted in final order; overflow chains are re-created by Insert as
// records land. The policy callback runs after the scan with no storage
// locks held.
func (s *Store) RewriteSegmentOrdered(class model.ClassID, order Placement, visit func(oid model.OID, data []byte)) (*DetachedSegment, *CompactResult, error) {
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

	// Collect the live set in scan order. The scan's buffer is reused from
	// page to page, so each kept record is copied out of it.
	type liveRec struct {
		oid  model.OID
		data []byte
	}
	var live []liveRec
	err := old.Scan(func(rid RID, data []byte) bool {
		raw, n := binary.Uvarint(data)
		if n <= 0 {
			return true // torn record: nothing names it
		}
		oid := model.OID(raw)
		if r, ok := cur[oid]; !ok || r != rid {
			return true // dead or shadowed copy
		}
		live = append(live, liveRec{oid, append([]byte(nil), data...)})
		return true
	})
	if err != nil {
		return nil, nil, err
	}

	// Apply the placement policy: map OID → scan position, walk the
	// policy's order keeping first-seen live OIDs, append the rest in scan
	// order. final holds indexes into live.
	final := make([]int, 0, len(live))
	if order != nil {
		scanOrder := make([]model.OID, len(live))
		pos := make(map[model.OID]int, len(live))
		for i, r := range live {
			scanOrder[i] = r.oid
			pos[r.oid] = i
		}
		placed := make([]bool, len(live))
		for _, oid := range order(scanOrder) {
			if i, ok := pos[oid]; ok && !placed[i] {
				placed[i] = true
				final = append(final, i)
			}
		}
		for i := range live {
			if !placed[i] {
				final = append(final, i)
			}
		}
		for at, i := range final {
			if at != i {
				res.Reordered++
			}
		}
	} else {
		for i := range live {
			final = append(final, i)
		}
	}

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
	newDir := make(map[model.OID]RID, len(live))
	for _, i := range final {
		r := live[i]
		nrid, ierr := fresh.Insert(r.data)
		if ierr != nil {
			return abort(ierr)
		}
		newDir[r.oid] = nrid
		res.LiveRecords++
		res.LiveBytes += int64(len(r.data))
		if visit != nil {
			visit(r.oid, r.data)
		}
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
