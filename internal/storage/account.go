package storage

import (
	"encoding/binary"
)

// PageAccount is the result of a full-file reachability walk: every page is
// classified by type, and pages that no live structure names — not a heap
// chain, not a live record's overflow chain, not a system blob chain, and
// not sealed as free — are reported as leaked. Several recovery paths leak
// pages deliberately instead of risking a double-owned page (quarantined
// overflow chains, amputated pages, crashed DropClass frees); the
// accountant makes that cost visible instead of letting it accumulate
// silently.
type PageAccount struct {
	Total      uint64 // pages in the file, metadata slot(s) included
	Meta       uint64 // metadata slots at the head of the file
	Heap       uint64
	Overflow   uint64
	Blob       uint64
	Free       uint64
	Unreadable uint64 // failed checksum during the walk
	Leaked     uint64 // allocated-typed pages reachable from no root

	// LeakedPages holds the first few leaked page ids for debugging.
	LeakedPages []PageID

	// all holds every leaked page id (uncapped) — the compactor's reclaim
	// list (Store.ReclaimLeaked).
	all []PageID
}

const maxLeakedReported = 64

func (a *PageAccount) leak(id PageID) {
	a.Leaked++
	a.all = append(a.all, id)
	if len(a.LeakedPages) < maxLeakedReported {
		a.LeakedPages = append(a.LeakedPages, id)
	}
}

// AccountPages walks the whole database file and returns the page account.
// It is a debug/verification walk (the crash harness runs it after every
// recovery): it reads every page in the file through the buffer pool, so
// it is O(file size) and evicts the working set. The leaked and total
// counts are also published on the storage_account_* gauges.
//
// The walk takes each heap's latch while tracing its chain, so it is safe
// against concurrent writers, but the classification is only meaningful on
// a quiesced store.
func (s *Store) AccountPages() (*PageAccount, error) {
	reach := make(map[PageID]bool)

	// Heap chains, and overflow chains hanging off live records. The chain
	// walks are type-guarded exactly like the recovery walks: a stale link
	// into a reused page must not adopt that page.
	s.mu.RLock()
	heaps := make([]*Heap, 0, len(s.heaps))
	for _, h := range s.heaps {
		heaps = append(heaps, h)
	}
	s.mu.RUnlock()
	for _, h := range heaps {
		h.mu.RLock()
		for id := h.First; id != InvalidPage && !reach[id]; {
			p, err := s.pool.Fetch(id)
			if err != nil {
				break
			}
			if p.Type() != pageTypeHeap {
				s.pool.Unpin(id, false)
				break
			}
			reach[id] = true
			n := p.Slots()
			for slot := 0; slot < n; slot++ {
				if !p.Live(slot) {
					continue
				}
				rec, err := p.Read(slot)
				if err != nil || len(rec) == 0 || rec[0] != recOverflow {
					continue
				}
				_, n1 := binary.Uvarint(rec[1:])
				head, n2 := binary.Uvarint(rec[1+n1:])
				if n1 <= 0 || n2 <= 0 {
					continue
				}
				for ov := PageID(head); ov != InvalidPage && !reach[ov]; {
					op, err := s.pool.Fetch(ov)
					if err != nil {
						break
					}
					if op.Type() != pageTypeOverflow {
						s.pool.Unpin(ov, false)
						break
					}
					reach[ov] = true
					next := op.Next()
					s.pool.Unpin(ov, false)
					ov = next
				}
			}
			next := p.Next()
			s.pool.Unpin(id, false)
			id = next
		}
		h.mu.RUnlock()
	}

	// System blob chains (catalog, segment table, index table, statistics).
	for _, r := range []MetaRoot{RootCatalog, RootSegTable, RootIndexTable, RootStats} {
		for id := s.disk.GetRoot(r); id != InvalidPage && !reach[id]; {
			p, err := s.pool.Fetch(id)
			if err != nil {
				break
			}
			if p.Type() != pageTypeBlob {
				s.pool.Unpin(id, false)
				break
			}
			reach[id] = true
			next := p.Next()
			s.pool.Unpin(id, false)
			id = next
		}
	}

	// Classify every page. Free-sealed pages are accounted free whether or
	// not the free list still threads to them (an abandoned free list —
	// see AllocPage — leaves them sealed and harmless); an allocated-typed
	// page nothing reaches is a leak. The metadata slots are classified by
	// position, not content: a duplexed slot torn by a crash must read as
	// Meta, never as a reclaimable leak.
	acct := &PageAccount{Total: uint64(s.disk.NumPages()), Meta: MetaSlots}
	for id := PageID(MetaSlots); id < PageID(acct.Total); id++ {
		p, err := s.pool.Fetch(id)
		if err != nil {
			acct.Unreadable++
			acct.leak(id)
			continue
		}
		typ := p.Type()
		s.pool.Unpin(id, false)
		switch typ {
		case pageTypeFree:
			acct.Free++
		case pageTypeHeap:
			acct.Heap++
			if !reach[id] {
				acct.leak(id)
			}
		case pageTypeOverflow:
			acct.Overflow++
			if !reach[id] {
				acct.leak(id)
			}
		case pageTypeBlob:
			acct.Blob++
			if !reach[id] {
				acct.leak(id)
			}
		default:
			acct.leak(id)
		}
	}
	mPagesLeaked.Set(int64(acct.Leaked))
	mPagesTotal.Set(int64(acct.Total))
	return acct, nil
}
