package storage

import (
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestReadPageTakesNoDiskLock is TestFetchHitDoesNotBlockOnMiss one layer
// down: with the disk manager's exclusive lock held — standing in for a
// write, an allocation or (before reads left the lock) another read in
// flight — two ReadPage calls must still both complete.
func TestReadPageTakesNoDiskLock(t *testing.T) {
	d, err := OpenDisk(filepath.Join(t.TempDir(), "d.kdb"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ids := seedPages(t, d, 2)

	d.mu.Lock()
	defer d.mu.Unlock()
	done := make(chan error, len(ids))
	for _, id := range ids {
		go func(id PageID) {
			var p Page
			done <- d.ReadPage(id, &p)
		}(id)
	}
	for range ids {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("read: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("ReadPage queued on the disk manager's mutex")
		}
	}
}

// TestReadRacesFileGrowth reads every page id the moment AllocPage hands it
// out, from other goroutines: the size check in ReadPage is a bare atomic
// load, so the id must already be in bounds and its zero page on disk.
func TestReadRacesFileGrowth(t *testing.T) {
	d, err := OpenDisk(filepath.Join(t.TempDir(), "d.kdb"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	handed := make(chan PageID)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var p Page
			for id := range handed {
				if err := d.ReadPage(id, &p); err != nil {
					t.Errorf("read of freshly allocated page %d: %v", id, err)
				} else if p.Type() != pageTypeFree {
					t.Errorf("page %d: type %d, want the zero page", id, p.Type())
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		id, err := d.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		handed <- id
	}
	close(handed)
	wg.Wait()
}
