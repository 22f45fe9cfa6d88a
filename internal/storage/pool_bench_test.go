package storage

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// BenchmarkPoolMiss and BenchmarkPoolHit time one Fetch+Unpin against a
// pool a quarter the size of the page set, from 1 and 2 goroutines. Miss:
// each goroutine walks its own share of the set cyclically, which under LRU
// never hits (a share passes at least twice a shard's capacity through
// every shard between two visits of one page) — every fetch evicts, rekeys
// a frame and reads a page. Hit: all walk the quarter that is resident.
//
// Run with (also part of `make bench`):
//
//	go test ./internal/storage -run '^$' -bench BenchmarkPool -benchmem
func BenchmarkPoolMiss(b *testing.B) { benchPool(b, false) }
func BenchmarkPoolHit(b *testing.B)  { benchPool(b, true) }

func benchPool(b *testing.B, hit bool) {
	const pages, poolPages = 1024, 256
	recycleHook = nil // the tests' poisoning is not what is timed
	defer func() { recycleHook = poison }()
	d, err := OpenDisk(filepath.Join(b.TempDir(), "bench.kdb"))
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	pre := NewBufferPool(d, pages+1)
	ids := make([]PageID, pages)
	for i := range ids {
		id, _, err := pre.FetchNew(pageTypeHeap)
		if err != nil {
			b.Fatal(err)
		}
		pre.Unpin(id, true)
		ids[i] = id
	}
	if err := pre.FlushAll(); err != nil {
		b.Fatal(err)
	}
	set := ids
	if hit {
		set = ids[:poolPages]
	}
	for _, g := range []int{1, 2} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			bp := NewBufferPool(d, poolPages)
			walk := func(part []PageID, n int) {
				for i := 0; i < n; i++ {
					id := part[i%len(part)]
					if _, err := bp.Fetch(id); err != nil {
						b.Error(err)
						return
					}
					bp.Unpin(id, false)
				}
			}
			walk(set, len(set)) // fill the pool
			h0, m0 := bp.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				part := set
				if !hit {
					part = set[w*len(set)/g : (w+1)*len(set)/g]
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					walk(part, b.N/g)
				}()
			}
			wg.Wait()
			b.StopTimer()
			h1, m1 := bp.Stats()
			wrong := h1 - h0 // a miss walk must never hit
			if hit {
				wrong = m1 - m0
			}
			if wrong != 0 {
				b.Fatalf("%d of %d fetches took the other path", wrong, b.N)
			}
		})
	}
}
