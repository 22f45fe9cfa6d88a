package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// readSlot reads one metadata slot's raw image from the file.
func readSlot(t *testing.T, path string, slot int64) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, PageSize)
	if _, err := f.ReadAt(buf, slot*PageSize); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestMetaSlotAlternation verifies the A/B write protocol: every metadata
// write bumps the epoch and lands in the slot not holding the current
// state, so the previous state always survives a torn write.
func TestMetaSlotAlternation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.kdb")
	d, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh format: both slots valid at epoch 1.
	for slot := int64(0); slot < MetaSlots; slot++ {
		v, e, ok := MetaSlotInfo(readSlot(t, path, slot))
		if !ok || v != diskVersion || e != 1 {
			t.Fatalf("fresh slot %d: version=%d epoch=%d ok=%v, want version=%d epoch=1", slot, v, e, ok, diskVersion)
		}
	}
	// Each write alternates slots and bumps the epoch.
	wantEpoch := uint64(1)
	for i := 1; i <= 5; i++ {
		if err := d.SetRoots(map[MetaRoot]PageID{RootCatalog: PageID(100 + i)}); err != nil {
			t.Fatal(err)
		}
		wantEpoch++
		_, e0, ok0 := MetaSlotInfo(readSlot(t, path, 0))
		_, e1, ok1 := MetaSlotInfo(readSlot(t, path, 1))
		if !ok0 || !ok1 {
			t.Fatalf("after write %d: slot invalid (ok0=%v ok1=%v)", i, ok0, ok1)
		}
		newest := e0
		if e1 > e0 {
			newest = e1
		}
		if newest != wantEpoch {
			t.Fatalf("after write %d: newest epoch %d, want %d", i, newest, wantEpoch)
		}
		if e0 == e1 {
			t.Fatalf("after write %d: both slots at epoch %d — writes are not alternating", i, e0)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen adopts the newest slot.
	d2, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.GetRoot(RootCatalog); got != 105 {
		t.Fatalf("reopened root = %d, want 105", got)
	}
}

// TestMetaTornNewestSlotFallsBack destroys the newest slot (the torn-write
// case the duplexing exists for) and verifies open falls back to the
// previous metadata state instead of failing.
func TestMetaTornNewestSlotFallsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.kdb")
	d, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetRoots(map[MetaRoot]PageID{RootCatalog: 7}); err != nil {
		t.Fatal(err)
	}
	if err := d.SetRoots(map[MetaRoot]PageID{RootCatalog: 9}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Find the newest slot and tear it: scribble over its second half so
	// the checksum fails, as a power cut mid-write would leave it.
	_, e0, _ := MetaSlotInfo(readSlot(t, path, 0))
	_, e1, _ := MetaSlotInfo(readSlot(t, path, 1))
	newest := int64(0)
	if e1 > e0 {
		newest = 1
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	junk := make([]byte, PageSize/2)
	for i := range junk {
		junk[i] = 0xA5
	}
	if _, err := f.WriteAt(junk, newest*PageSize+PageSize/2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	before := mMetaSlotFallback.Value()
	d2, err := OpenDisk(path)
	if err != nil {
		t.Fatalf("open with torn newest slot: %v", err)
	}
	defer d2.Close()
	if got := d2.GetRoot(RootCatalog); got != 7 {
		t.Fatalf("fallback root = %d, want 7 (the state one metadata write earlier)", got)
	}
	if mMetaSlotFallback.Value() == before {
		t.Fatal("storage_meta_slot_fallbacks did not count the fallback")
	}
}

// TestMetaBothSlotsDestroyed verifies the failure mode duplexing cannot
// absorb — no valid slot at all — still fails loudly instead of opening an
// empty database over real data.
func TestMetaBothSlotsDestroyed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.kdb")
	d, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	junk := make([]byte, PageSize)
	for i := range junk {
		junk[i] = 0x5A
	}
	for slot := int64(0); slot < MetaSlots; slot++ {
		if _, err := f.WriteAt(junk, slot*PageSize); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	if _, err := OpenDisk(path); err == nil {
		t.Fatal("open accepted a file with no valid metadata slot")
	}
}

// TestMetaLegacySingleSlot synthesizes a format-version-1 file (single
// metadata slot at page 0, rewritten in place) and verifies open refuses it
// with a typed error wrapping ErrNotADatabase, leaving the file untouched.
func TestMetaLegacySingleSlot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.kdb")
	var p Page
	p.Init(pageTypeMeta)
	binary.BigEndian.PutUint32(p.buf[metaOffMagic:], diskMagic)
	binary.BigEndian.PutUint32(p.buf[metaOffVersion:], 1)
	p.Seal()
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(p.buf[:], 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d, err := OpenDisk(path)
	if err == nil {
		d.Close()
		t.Fatal("open accepted a format-version-1 file")
	}
	var ufe *UnsupportedFormatError
	if !errors.As(err, &ufe) || ufe.Version != 1 || !errors.Is(err, ErrNotADatabase) {
		t.Fatalf("open of a v1 file = %v, want an UnsupportedFormatError{1} wrapping ErrNotADatabase", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, p.buf[:]) {
		t.Fatalf("refused open changed the file (err %v)", err)
	}
}

// TestMetaSlotInfo pins the helper the fault layer's crash model depends
// on: valid slots report their version and epoch, anything else reports
// not-ok.
func TestMetaSlotInfo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.kdb")
	d, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	v, e, ok := MetaSlotInfo(readSlot(t, path, 0))
	if !ok || v != diskVersion || e != 1 {
		t.Fatalf("MetaSlotInfo(valid slot) = (%d, %d, %v), want (%d, 1, true)", v, e, ok, diskVersion)
	}
	if _, _, ok := MetaSlotInfo(make([]byte, PageSize)); ok {
		t.Fatal("MetaSlotInfo accepted an all-zero page")
	}
	if _, _, ok := MetaSlotInfo(nil); ok {
		t.Fatal("MetaSlotInfo accepted a short buffer")
	}
	// A sealed heap page is checksum-valid but not a metadata slot.
	var hp Page
	hp.Init(pageTypeHeap)
	hp.Seal()
	if _, _, ok := MetaSlotInfo(hp.buf[:]); ok {
		t.Fatal("MetaSlotInfo accepted a heap page")
	}
}
