package fault

import (
	"bytes"
	"math/rand"
	"os"
	"sort"
	"sync"

	"oodb/internal/storage"
)

// Disk wraps a storage.Disk with a failpoint at every page-I/O site and a
// durability model for simulated crashes: it remembers the pre-write
// content of every page written since the last honest fsync, and when the
// crash fires each such write independently survives, vanishes (the page
// reverts to its durable content), or tears (half new, half old) — decided
// by the schedule's seeded RNG, applied to the real file so a plain reopen
// observes exactly what a power cut could have left.
//
// The duplexed metadata slots (pages 0 and 1) get the same treatment: the
// wrapper snapshots both slots at every honest fsync, and at crash time a
// slot that changed since then independently survives or reverts — and
// the newest changed slot may additionally tear, which is
// precisely the failure the A/B design absorbs (the torn slot's twin holds
// the state one metadata write earlier). The metadata is therefore no
// longer modeled durable-at-write. The one write still treated as durable
// is the zero page the disk manager appends when extending the file; its
// loss is indistinguishable from the file simply being shorter.
type Disk struct {
	inj     *Injector
	under   storage.Disk
	raw     *os.File
	initErr error

	mu         sync.Mutex
	unsynced   map[storage.PageID][]byte // pre-write durable image; nil = absent
	metaBefore [storage.MetaSlots][]byte // slot content at last honest fsync
}

// WrapDisk returns an Options.WrapDisk hook that injects faults through inj
// for the database file at path (the wrapper needs its own descriptor to
// rewind pages at crash time).
func WrapDisk(inj *Injector, path string) func(storage.Disk) storage.Disk {
	return func(under storage.Disk) storage.Disk {
		d := &Disk{inj: inj, under: under, unsynced: make(map[storage.PageID][]byte)}
		d.raw, d.initErr = os.OpenFile(path, os.O_RDWR, 0o644)
		if d.initErr == nil {
			d.snapshotMeta()
		}
		inj.OnCrash(d.applyCrash)
		return d
	}
}

// snapshotMeta records the metadata slots' current file content as their
// durable baseline. Called at wrap time and after every honest fsync;
// caller holds d.mu (or is single-threaded at wrap time).
func (d *Disk) snapshotMeta() {
	for slot := 0; slot < storage.MetaSlots; slot++ {
		buf := make([]byte, storage.PageSize)
		if _, err := d.raw.ReadAt(buf, int64(slot)*storage.PageSize); err != nil {
			d.metaBefore[slot] = nil
			continue
		}
		d.metaBefore[slot] = buf
	}
}

func (d *Disk) ReadPage(id storage.PageID, p *storage.Page) error {
	if d.initErr != nil {
		return d.initErr
	}
	switch d.inj.begin(OpDiskRead) {
	case decError:
		return ErrInjected
	case decOK:
		return d.under.ReadPage(id, p)
	default:
		return ErrCrashed
	}
}

func (d *Disk) WritePage(id storage.PageID, p *storage.Page) error {
	if d.initErr != nil {
		return d.initErr
	}
	dec := d.inj.begin(OpDiskWrite)
	switch dec {
	case decError:
		return ErrInjected
	case decCrash:
		return ErrCrashed
	}
	d.captureBefore(id)
	if dec == decTorn {
		// The crashing write itself: the first half of the new page reaches
		// the platter, the rest (including nothing that fixes the now-stale
		// checksum unless the halves happen to agree) does not.
		img := *p
		img.Seal()
		torn := make([]byte, storage.PageSize)
		d.mu.Lock()
		if before := d.unsynced[id]; before != nil {
			copy(torn, before)
		}
		d.mu.Unlock()
		copy(torn[:storage.PageSize/2], img.Bytes()[:storage.PageSize/2])
		d.raw.WriteAt(torn, int64(id)*storage.PageSize)
		d.inj.Crash()
		return ErrCrashed
	}
	return d.under.WritePage(id, p)
}

func (d *Disk) AllocPage() (storage.PageID, error) {
	if d.initErr != nil {
		return storage.InvalidPage, d.initErr
	}
	switch d.inj.begin(OpDiskAlloc) {
	case decError:
		return storage.InvalidPage, ErrInjected
	case decOK:
		return d.under.AllocPage()
	default:
		return storage.InvalidPage, ErrCrashed
	}
}

func (d *Disk) FreePage(id storage.PageID) error {
	if d.initErr != nil {
		return d.initErr
	}
	switch d.inj.begin(OpDiskFree) {
	case decError:
		return ErrInjected
	case decOK:
		// FreePage rewrites the page as a free-list link: track it like any
		// other page write so the crash model can lose it.
		d.captureBefore(id)
		return d.under.FreePage(id)
	default:
		return ErrCrashed
	}
}

func (d *Disk) Sync() error {
	if d.initErr != nil {
		return d.initErr
	}
	switch d.inj.begin(OpDiskSync) {
	case decError:
		return ErrInjected
	case decLie:
		return nil // acknowledged, not durable: unsynced stays tracked
	case decCrash, decTorn:
		return ErrCrashed
	}
	if err := d.under.Sync(); err != nil {
		return err
	}
	d.mu.Lock()
	d.unsynced = make(map[storage.PageID][]byte)
	d.snapshotMeta()
	d.mu.Unlock()
	return nil
}

// GetRoot is read-only against in-memory metadata: not an I/O site.
func (d *Disk) GetRoot(r storage.MetaRoot) storage.PageID {
	return d.under.GetRoot(r)
}

// SetRoots is one metadata write no matter how many roots it carries, so
// it costs one injectable op — the single-root-swap checkpoint relies on
// the whole batch having exactly one crash point.
func (d *Disk) SetRoots(roots map[storage.MetaRoot]storage.PageID) error {
	if d.initErr != nil {
		return d.initErr
	}
	switch d.inj.begin(OpDiskRoot) {
	case decError:
		return ErrInjected
	case decOK:
		return d.under.SetRoots(roots)
	default:
		return ErrCrashed
	}
}

func (d *Disk) NumPages() storage.PageID { return d.under.NumPages() }

func (d *Disk) Close() error {
	if d.raw != nil {
		d.raw.Close()
	}
	return d.under.Close()
}

// captureBefore snapshots the page's current on-disk content the first time
// it is written since the last honest fsync — the state it reverts to if
// the crash decides the write never happened.
func (d *Disk) captureBefore(id storage.PageID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.unsynced[id]; ok {
		return
	}
	buf := make([]byte, storage.PageSize)
	if _, err := d.raw.ReadAt(buf, int64(id)*storage.PageSize); err != nil {
		d.unsynced[id] = nil // the page did not durably exist yet
		return
	}
	d.unsynced[id] = buf
}

// applyCrash rewrites the real file to one state a power cut could have
// produced: every page written since the last honest fsync independently
// survives, reverts, or tears, and the duplexed metadata slots get the
// same treatment (see applyMetaCrash). Deterministic: pages are visited in
// sorted order and all randomness comes from the schedule RNG.
func (d *Disk) applyCrash(rng *rand.Rand) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.raw == nil {
		return
	}
	ids := make([]storage.PageID, 0, len(d.unsynced))
	for id := range d.unsynced {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		before := d.unsynced[id]
		off := int64(id) * storage.PageSize
		switch rng.Intn(3) {
		case 0:
			// The write made it to the platter.
		case 1:
			// The write was lost entirely.
			if before == nil {
				before = make([]byte, storage.PageSize)
			}
			d.raw.WriteAt(before, off)
		case 2:
			// Torn: the first half made it, the second half did not.
			cur := make([]byte, storage.PageSize)
			if _, err := d.raw.ReadAt(cur, off); err != nil {
				continue
			}
			if before == nil {
				before = make([]byte, storage.PageSize)
			}
			copy(cur[storage.PageSize/2:], before[storage.PageSize/2:])
			d.raw.WriteAt(cur, off)
		}
	}
	d.applyMetaCrash(rng)
	d.unsynced = make(map[storage.PageID][]byte)
	d.snapshotMeta()
	d.raw.Sync()
}

// applyMetaCrash simulates lost and torn metadata writes. Every slot that changed since the last honest fsync independently
// survives or reverts to its fsync-time content; the slot carrying the
// newest epoch may additionally tear (half new, half old — almost surely
// failing its checksum), which models the one write that can be in flight
// when the power cuts. At most one slot tears, so a valid slot always
// survives: either the twin's last write (one metadata write earlier) or
// the fsync-point state — both transitions the metadata protocol is
// designed to lose safely (the free list leaks or abandons; roots only
// move with a sync barrier before the old chains are freed).
func (d *Disk) applyMetaCrash(rng *rand.Rand) {
	type slotState struct {
		cur     []byte
		changed bool
		epoch   uint64
	}
	var slots [storage.MetaSlots]slotState
	newest, newestEpoch := -1, uint64(0)
	for i := 0; i < storage.MetaSlots; i++ {
		cur := make([]byte, storage.PageSize)
		if _, err := d.raw.ReadAt(cur, int64(i)*storage.PageSize); err != nil {
			continue
		}
		slots[i].cur = cur
		slots[i].changed = d.metaBefore[i] != nil && !bytes.Equal(cur, d.metaBefore[i])
		if _, epoch, ok := storage.MetaSlotInfo(cur); ok {
			slots[i].epoch = epoch
			if newest < 0 || epoch > newestEpoch {
				newest, newestEpoch = i, epoch
			}
		}
	}
	for i := 0; i < storage.MetaSlots; i++ {
		if !slots[i].changed {
			continue
		}
		off := int64(i) * storage.PageSize
		fates := 2
		if i == newest {
			fates = 3
		}
		switch rng.Intn(fates) {
		case 0:
			// The metadata write made it to the platter.
		case 1:
			// Lost: the slot reverts to its content at the last fsync.
			d.raw.WriteAt(d.metaBefore[i], off)
		case 2:
			// Torn mid-write (newest slot only).
			torn := append([]byte(nil), slots[i].cur...)
			copy(torn[storage.PageSize/2:], d.metaBefore[i][storage.PageSize/2:])
			d.raw.WriteAt(torn, off)
		}
	}
}
