package storage

import (
	"fmt"

	"oodb/internal/model"
)

// Page chains. A heap segment, an overflow record and a system blob are
// each a chain of pages of one type threaded by their Next links. This file
// holds the one writer, the one walker, and the reader and the free built
// on the walker; nothing else in the package follows a Next link through
// the pool (TestOnlyTheWalkerFollowsNext checks it).

// The walker's refusals. Each wraps model.ErrCorrupt.
var (
	errChainRange = fmt.Errorf("%w: chain link out of range", model.ErrCorrupt)
	errChainType  = fmt.Errorf("%w: chain link to a page of another type", model.ErrCorrupt)
	errChainLoop  = fmt.Errorf("%w: chain longer than the file", model.ErrCorrupt)
)

// writeChain stores data in a fresh chain of typ pages, maxInline bytes to
// a page and at least one page (an empty blob still needs one, so a root
// tells "empty" from "absent"), and returns the head.
func (bp *BufferPool) writeChain(typ byte, data []byte) (PageID, error) {
	var head, prev PageID
	for off := 0; off < len(data) || head == InvalidPage; {
		chunk := min(len(data)-off, maxInline)
		id, p, err := bp.FetchNew(typ)
		if err != nil {
			return InvalidPage, err
		}
		if _, err := p.Insert(data[off : off+chunk]); err != nil {
			bp.Unpin(id, false)
			return InvalidPage, err
		}
		bp.Unpin(id, true)
		if head == InvalidPage {
			head = id
		} else {
			pp, err := bp.Fetch(prev)
			if err != nil {
				return InvalidPage, err
			}
			pp.SetNext(id)
			bp.Unpin(prev, true)
		}
		prev = id
		off += chunk
	}
	return head, nil
}

// chainWalk follows one chain, a page per step. Before it fetches a page it
// refuses an id below MetaSlots or at or past NumPages (errChainRange), and
// a walk that has already taken NumPages steps, which only a loop can need
// (errChainLoop); after the fetch it refuses a page of another type
// (errChainType). So a damaged chain ends the walk with an error wrapping
// model.ErrCorrupt, and the bound costs a counter, not a visited set.
type chainWalk struct {
	bp    *BufferPool
	typ   byte
	id    PageID // the page the next step pins; InvalidPage past the end
	steps PageID
}

func (bp *BufferPool) walkChain(head PageID, typ byte) chainWalk {
	return chainWalk{bp: bp, typ: typ, id: head}
}

// step pins and returns the walk's next page; the page is nil at the end of
// the chain and on an error. The caller unpins id. step has already copied
// the page's Next link (the use-after-unpin rule), so it reads the link
// inside the step: a caller whose chain has writers holds their latch
// across the step and its own read of the page, as Heap.scan does.
func (w *chainWalk) step() (PageID, *Page, error) {
	id, n := w.id, w.bp.disk.NumPages()
	switch {
	case id == InvalidPage:
		return id, nil, nil
	case id < MetaSlots || id >= n:
		return id, nil, fmt.Errorf("%w: page %d of %d", errChainRange, id, n)
	case w.steps >= n:
		return id, nil, fmt.Errorf("%w: page %d after %d steps", errChainLoop, id, w.steps)
	}
	w.steps++
	p, err := w.bp.Fetch(id)
	if err != nil {
		return id, nil, err
	}
	if typ := p.Type(); typ != w.typ {
		w.bp.Unpin(id, false)
		return id, nil, fmt.Errorf("%w: page %d has type %d, want %d", errChainType, id, typ, w.typ)
	}
	w.id = p.Next()
	return id, p, nil
}

// appendChain appends the record each page of the chain holds to dst.
func (bp *BufferPool) appendChain(dst []byte, head PageID, typ byte) ([]byte, error) {
	for w := bp.walkChain(head, typ); ; {
		id, p, err := w.step()
		if p == nil {
			return dst, err
		}
		chunk, err := p.Read(0)
		dst = append(dst, chunk...)
		bp.Unpin(id, false)
		if err != nil {
			return dst, fmt.Errorf("%w: chain page %d: %v", model.ErrCorrupt, id, err)
		}
	}
}

// freeChain returns a chain's pages to the free list, each one dropped and
// freed after its unpin and before the next fetch. A page the walk refuses
// or cannot read ends the free, and the rest of the chain leaks: after a
// crash a stale link can lead into a page that was freed and reused, and
// freeing it would hand one page to two owners. The leak is reported, not
// returned; the accountant counts it and ReclaimLeaked returns it. The
// error is a failed FreePage.
func (bp *BufferPool) freeChain(head PageID, typ byte) (leaked bool, err error) {
	for w := bp.walkChain(head, typ); ; {
		id, p, werr := w.step()
		if p == nil {
			return werr != nil, nil
		}
		bp.Unpin(id, false)
		bp.Drop(id)
		if err := bp.FreePage(id); err != nil {
			return false, err
		}
	}
}
