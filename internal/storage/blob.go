package storage

import "fmt"

// System blobs. The catalog image, the segment table and the index table
// are variable-length byte strings stored in chains of blob pages whose
// heads live in the metadata page. Blobs are rewritten whole — they change
// only at DDL and checkpoint time.

// WriteBlob stores data in a fresh page chain and returns the head.
func (bp *BufferPool) WriteBlob(data []byte) (PageID, error) {
	return bp.writeChain(pageTypeBlob, data)
}

// ReadBlob reassembles a blob from its chain head.
func (bp *BufferPool) ReadBlob(head PageID) ([]byte, error) {
	return bp.appendChain(nil, head, pageTypeBlob)
}

// FreeBlob returns a blob chain's pages to the free list; a page it cannot
// verify ends the free and the rest leaks (freeChain).
func (bp *BufferPool) FreeBlob(head PageID) error {
	_, err := bp.freeChain(head, pageTypeBlob)
	return err
}

// swapRootOrder fixes the order in which SwapBlobs writes and frees chains.
// The order is load-bearing for the crash harness: schedules are replayed
// by global I/O op index, so the checkpoint's I/O sequence must be
// identical across runs.
var swapRootOrder = []MetaRoot{RootCatalog, RootSegTable, RootIndexTable, RootStats}

// SwapBlobs replaces several system blobs as one atomic transition: every
// new chain is written and made durable first, then all roots are flipped
// with a single metadata write (SetRoots), the flip is synced, and only
// then are the old chains freed. One root write for all of them leaves no
// metadata-swap window — flipping the catalog and the segment table
// separately, a crash between the two could reopen with a segment whose
// class was gone from the catalog (readable orphan rows). With one root
// write there is no between: a crash leaves either
// every old root or every new one, and the not-yet-referenced (or
// no-longer-freed) chains merely leak pages, which the accountant counts
// and the compactor reclaims.
func (bp *BufferPool) SwapBlobs(blobs map[MetaRoot][]byte) error {
	roots := make(map[MetaRoot]PageID, len(blobs))
	olds := make([]PageID, 0, len(blobs))
	for _, r := range swapRootOrder {
		data, ok := blobs[r]
		if !ok {
			continue
		}
		head, err := bp.WriteBlob(data)
		if err != nil {
			return err
		}
		if err := bp.FlushChain(head); err != nil {
			return err
		}
		roots[r] = head
		if old := bp.disk.GetRoot(r); old != InvalidPage {
			olds = append(olds, old)
		}
	}
	if len(roots) != len(blobs) {
		return fmt.Errorf("storage: SwapBlobs: unknown meta root in request")
	}
	if len(roots) == 0 {
		return nil
	}
	if err := bp.disk.SetRoots(roots); err != nil {
		return err
	}
	// The flip must be durable before any old chain page is destroyed in
	// place: a crash can lose the root write, and the surviving old roots
	// would then lead into free-sealed or reused pages.
	if err := bp.disk.Sync(); err != nil {
		return err
	}
	for _, old := range olds {
		if err := bp.FreeBlob(old); err != nil {
			return err
		}
	}
	return nil
}
