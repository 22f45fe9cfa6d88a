package storage

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

	// Heap chains, and overflow chains hanging off live records, then the
	// system blob chains (catalog, segment table, index table, statistics).
	// The walker refuses a stale link into a reused page, so no walk adopts
	// one; each walk stops before a page already reached.
	s.mu.RLock()
	heaps := make([]*Heap, 0, len(s.heaps))
	for _, h := range s.heaps {
		heaps = append(heaps, h)
	}
	s.mu.RUnlock()
	for _, h := range heaps {
		h.mu.RLock()
		s.reachChain(reach, h.First, pageTypeHeap, func(p *Page) {
			for slot := 0; slot < p.Slots(); slot++ {
				if rec, err := p.Read(slot); err == nil && len(rec) > 0 && rec[0] == recOverflow {
					if _, head, ok := overflowStub(rec); ok {
						s.reachChain(reach, head, pageTypeOverflow, nil)
					}
				}
			}
		})
		h.mu.RUnlock()
	}
	for _, r := range []MetaRoot{RootCatalog, RootSegTable, RootIndexTable, RootStats} {
		s.reachChain(reach, s.disk.GetRoot(r), pageTypeBlob, nil)
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

// reachChain marks the pages of the chain at head reached, up to the first
// page already reached or refused by the walker, and hands each one, still
// pinned, to visit when it is set.
func (s *Store) reachChain(reach map[PageID]bool, head PageID, typ byte, visit func(*Page)) {
	for w := s.pool.walkChain(head, typ); !reach[w.id]; {
		id, p, _ := w.step()
		if p == nil {
			return
		}
		reach[id] = true
		if visit != nil {
			visit(p)
		}
		s.pool.Unpin(id, false)
	}
}
