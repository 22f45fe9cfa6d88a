package storage

import (
	"errors"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Every test of this package runs with recycled frames poisoned: code that
// keeps a *Page past its Unpin then reads poisonByte — a checksum or decode
// failure — instead of another page's plausible content.
func init() { recycleHook = poison }

const poisonByte = 0xDB

func poison(p *Page) {
	for i := range p.buf {
		p.buf[i] = poisonByte
	}
}

// slowDisk wraps the real disk manager, parking reads of designated pages
// on a gate channel so tests can hold a miss in flight while probing the
// pool from other goroutines.
type slowDisk struct {
	*DiskManager
	mu      sync.Mutex
	slow    map[PageID]bool
	gate    chan struct{} // reads of slow pages block until this closes
	entered chan PageID   // signals a slow read has started
	reads   map[PageID]int
	fail    map[PageID]error
}

func newSlowDisk(d *DiskManager) *slowDisk {
	return &slowDisk{
		DiskManager: d,
		slow:        make(map[PageID]bool),
		gate:        make(chan struct{}),
		entered:     make(chan PageID, 16),
		reads:       make(map[PageID]int),
		fail:        make(map[PageID]error),
	}
}

func (sd *slowDisk) ReadPage(id PageID, p *Page) error {
	sd.mu.Lock()
	sd.reads[id]++
	isSlow := sd.slow[id]
	ferr := sd.fail[id]
	sd.mu.Unlock()
	if isSlow {
		sd.entered <- id
		<-sd.gate
	}
	if ferr != nil {
		return ferr
	}
	return sd.DiskManager.ReadPage(id, p)
}

func (sd *slowDisk) readCount(id PageID) int {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	return sd.reads[id]
}

// seedPages writes n heap pages through a throwaway pool and flushes them,
// returning their ids: fodder for cold-cache fetch tests.
func seedPages(t *testing.T, d *DiskManager, n int) []PageID {
	t.Helper()
	bp := NewBufferPool(d, n+1)
	ids := make([]PageID, n)
	for i := range ids {
		id, p, err := bp.FetchNew(pageTypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Insert([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		bp.Unpin(id, true)
		ids[i] = id
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestFetchHitDoesNotBlockOnMiss is the regression test for the seed bug
// where Fetch held the pool mutex across disk I/O: a cache hit must
// complete while another page's (arbitrarily slow) disk read is in flight.
func TestFetchHitDoesNotBlockOnMiss(t *testing.T) {
	d, err := OpenDisk(filepath.Join(t.TempDir(), "b.kdb"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ids := seedPages(t, d, 2)
	slowPage, hotPage := ids[0], ids[1]

	sd := newSlowDisk(d)
	// One shard on purpose: the hit and the miss share a stripe, so only
	// the I/O-outside-the-lock protocol can keep the hit fast.
	bp := NewShardedBufferPool(sd, 8, 1)

	// Warm the hot page.
	if _, err := bp.Fetch(hotPage); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(hotPage, false)

	sd.mu.Lock()
	sd.slow[slowPage] = true
	sd.mu.Unlock()

	missDone := make(chan error, 1)
	go func() {
		_, err := bp.Fetch(slowPage)
		if err == nil {
			bp.Unpin(slowPage, false)
		}
		missDone <- err
	}()
	<-sd.entered // the miss is now parked inside disk I/O

	hitDone := make(chan error, 1)
	go func() {
		_, err := bp.Fetch(hotPage)
		if err == nil {
			bp.Unpin(hotPage, false)
		}
		hitDone <- err
	}()
	select {
	case err := <-hitDone:
		if err != nil {
			t.Fatalf("cache hit failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cache hit blocked behind another page's disk read")
	}

	close(sd.gate)
	if err := <-missDone; err != nil {
		t.Fatalf("slow fetch failed: %v", err)
	}
}

// TestFetchCoalescesConcurrentMisses asserts that concurrent fetchers of
// the same absent page share one disk read instead of duplicating I/O.
func TestFetchCoalescesConcurrentMisses(t *testing.T) {
	d, err := OpenDisk(filepath.Join(t.TempDir(), "b.kdb"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	id := seedPages(t, d, 1)[0]

	sd := newSlowDisk(d)
	sd.slow[id] = true
	bp := NewBufferPool(sd, 8)

	const fetchers = 8
	var wg sync.WaitGroup
	var ok atomic.Int64
	for i := 0; i < fetchers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := bp.Fetch(id)
			if err != nil {
				t.Errorf("fetch: %v", err)
				return
			}
			if got, err := p.Read(0); err != nil || got[0] != 0 {
				t.Errorf("page content: %v %v", got, err)
			}
			bp.Unpin(id, false)
			ok.Add(1)
		}()
	}
	<-sd.entered // exactly one fetcher reached the disk
	close(sd.gate)
	wg.Wait()
	if ok.Load() != fetchers {
		t.Fatalf("%d/%d fetchers succeeded", ok.Load(), fetchers)
	}
	if n := sd.readCount(id); n != 1 {
		t.Fatalf("page read from disk %d times; want 1 (coalesced)", n)
	}
	if h, m := bp.Stats(); m != 1 || h < fetchers-1 {
		t.Errorf("hits=%d misses=%d; want 1 miss and >=%d hits", h, m, fetchers-1)
	}
}

// TestFetchLoadFailurePropagates asserts a failed load reaches the loader
// and every coalesced waiter, that the frame leaves the table so a later
// fetch retries the disk, and that it is recycled — by that very fetch —
// once the last waiter has read the error.
func TestFetchLoadFailurePropagates(t *testing.T) {
	d, err := OpenDisk(filepath.Join(t.TempDir(), "b.kdb"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	id := seedPages(t, d, 1)[0]

	sd := newSlowDisk(d)
	sd.slow[id] = true
	boom := errors.New("injected read failure")
	sd.fail[id] = boom
	bp := NewBufferPool(sd, 8)
	sh := bp.shard(id)

	const fetchers = 8
	errsCh := make(chan error, fetchers)
	for i := 0; i < fetchers; i++ {
		go func() {
			_, err := bp.Fetch(id)
			errsCh <- err
		}()
	}
	<-sd.entered
	// Hold the read until every other fetcher has pinned the loading frame.
	var failed *frame
	for pins := 0; pins < fetchers; runtime.Gosched() {
		sh.mu.Lock()
		if failed = sh.frames[id]; failed != nil {
			pins = failed.pins
		}
		sh.mu.Unlock()
	}
	close(sd.gate)
	for i := 0; i < fetchers; i++ {
		if err := <-errsCh; !errors.Is(err, boom) {
			t.Fatalf("fetcher error = %v, want %v", err, boom)
		}
	}
	if n := sd.readCount(id); n != 1 {
		t.Fatalf("page read from disk %d times; want 1 (all waiters coalesced)", n)
	}
	if bp.Len() != 0 {
		t.Fatalf("failed frame still resident (%d frames)", bp.Len())
	}
	sh.mu.Lock()
	if sh.free != failed || failed.next != nil || failed.pins != 0 {
		t.Errorf("failed frame not parked on the free list (free=%p frame=%p pins=%d)", sh.free, failed, failed.pins)
	}
	sh.mu.Unlock()

	// Clear the fault: the next fetch must retry the disk and succeed.
	sd.mu.Lock()
	delete(sd.fail, id)
	delete(sd.slow, id)
	sd.mu.Unlock()
	p, err := bp.Fetch(id)
	if err != nil {
		t.Fatalf("fetch after fault cleared: %v", err)
	}
	if got, err := p.Read(0); err != nil || got[0] != 0 {
		t.Fatalf("page content after retry: %v %v", got, err)
	}
	if p != &failed.page || sh.free != nil {
		t.Errorf("retry did not recycle the failed frame")
	}
	bp.Unpin(id, false)
}

// TestShardedPoolStripes sanity-checks shard-count normalization.
func TestShardedPoolStripes(t *testing.T) {
	d, err := OpenDisk(filepath.Join(t.TempDir(), "b.kdb"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cases := []struct {
		capacity, shards, want int
	}{
		{1024, 16, 16},
		{1024, 0, 1},   // clamped up to 1
		{1024, 24, 16}, // rounded down to a power of two
		{128, 16, 16},
		{64, 16, 8},  // clamped to 8 frames a shard
		{100, 16, 8}, // clamped to 12, rounded down
		{16, 16, 2},
		{4, 16, 1}, // smaller than one shard's minimum
		{1, 16, 1},
	}
	for _, c := range cases {
		bp := NewShardedBufferPool(d, c.capacity, c.shards)
		if got := bp.ShardCount(); got != c.want {
			t.Errorf("shards(cap=%d, req=%d) = %d, want %d", c.capacity, c.shards, got, c.want)
		}
	}
}

// TestPoolHoldsMinFramesPinned pins the rule the shard count is derived
// from: a pool of capacity C holds min(C, 8) pages pinned at once whatever
// their ids — here ids 16 apart, which share a shard under any striping the
// pool can choose.
func TestPoolHoldsMinFramesPinned(t *testing.T) {
	d, err := OpenDisk(filepath.Join(t.TempDir(), "b.kdb"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const pins = 8
	ids := seedPages(t, d, 16*pins)
	for _, capacity := range []int{1, 4, 8, 16, 32, 100, 128, 1024} {
		bp := NewBufferPool(d, capacity)
		for i := 0; i < min(capacity, pins); i++ {
			if _, err := bp.Fetch(ids[16*i]); err != nil {
				t.Fatalf("capacity %d: pin %d of %d (page %d): %v", capacity, i+1, min(capacity, pins), ids[16*i], err)
			}
		}
	}
}

// TestConcurrentFetchStress hammers a small sharded pool from many
// goroutines (run under -race): hits, misses, evictions and pins all
// interleave, every frame is recycled many times over (poisoned each time,
// see init), and every fetch must still show its own page's record. Eight
// goroutines pin one page each, so no shard can run out of frames.
func TestConcurrentFetchStress(t *testing.T) {
	d, err := OpenDisk(filepath.Join(t.TempDir(), "b.kdb"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ids := seedPages(t, d, 32)
	bp := NewShardedBufferPool(d, 16, 4) // smaller than the working set: constant eviction

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				n := (w*13 + i) % len(ids)
				id := ids[n]
				p, err := bp.Fetch(id)
				if err != nil {
					t.Errorf("fetch %d: %v", id, err)
					return
				}
				if got, err := p.Read(0); err != nil || got[0] != byte(n) {
					t.Errorf("read %d: %v %v, want [%d]", id, got, err, n)
				}
				bp.Unpin(id, false)
			}
		}(w)
	}
	wg.Wait()
	if h, m := bp.Stats(); h+m == 0 {
		t.Error("counters never moved")
	}
}

// TestPoisonOnRecycle shows the hook the rest of the suite relies on: a
// page pointer kept past Unpin reads poison, not the evicted page's bytes,
// while its frame is being reloaded.
func TestPoisonOnRecycle(t *testing.T) {
	d, err := OpenDisk(filepath.Join(t.TempDir(), "b.kdb"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ids := seedPages(t, d, 2)
	sd := newSlowDisk(d)
	bp := NewShardedBufferPool(sd, 1, 1)

	stale, err := bp.Fetch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(ids[0], false)

	sd.mu.Lock()
	sd.slow[ids[1]] = true
	sd.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		_, err := bp.Fetch(ids[1])
		if err == nil {
			bp.Unpin(ids[1], false)
		}
		done <- err
	}()
	<-sd.entered // the one frame is rekeyed and its read is parked
	verr, typ := stale.Verify(), stale.Type()
	if !errors.Is(verr, ErrBadChecksum) || typ != poisonByte {
		t.Errorf("stale page after recycle: Verify=%v type=%#x, want poison", verr, typ)
	}
	close(sd.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// refLRU is the specification the pool is held to: exact LRU over at most
// cap pages, with pinned pages passed over by eviction.
type refLRU struct {
	cap          int
	order        []PageID // most recently used first
	hits, misses uint64
}

func (r *refLRU) fetch(id PageID, pins map[PageID]int) error {
	if i := slices.Index(r.order, id); i >= 0 {
		r.hits++
		r.order = slices.Insert(slices.Delete(r.order, i, i+1), 0, id)
		return nil
	}
	r.misses++
	if len(r.order) >= r.cap {
		i := len(r.order) - 1
		for i >= 0 && pins[r.order[i]] > 0 {
			i--
		}
		if i < 0 {
			return ErrPoolExhausted
		}
		r.order = slices.Delete(r.order, i, i+1) // the victim
	}
	r.order = slices.Insert(r.order, 0, id)
	return nil
}

func (r *refLRU) drop(id PageID) {
	if i := slices.Index(r.order, id); i >= 0 {
		r.order = slices.Delete(r.order, i, i+1)
	}
}

// TestPoolMatchesReferenceLRU drives one seeded trace of fetches (some
// held pinned for a while), unpins (some dirty) and drops through the pool
// and through refLRU, and after every step requires each shard to hold the
// same pages in the same recency order with the same hit and miss counts —
// hence the same victim at every eviction. Every fetched page must also
// show its own record, whatever frame it landed in.
func TestPoolMatchesReferenceLRU(t *testing.T) {
	d, err := OpenDisk(filepath.Join(t.TempDir(), "b.kdb"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ids := seedPages(t, d, 64)
	index := make(map[PageID]int, len(ids))
	for i, id := range ids {
		index[id] = i
	}
	bp := NewShardedBufferPool(d, 16, 4)
	refs := make([]*refLRU, bp.ShardCount())
	for i := range refs {
		refs[i] = &refLRU{cap: bp.shards[i].cap}
	}
	ref := func(id PageID) *refLRU { return refs[uint64(id)&bp.mask] }

	rng := rand.New(rand.NewSource(16))
	pins := make(map[PageID]int)
	var held []PageID
	for step := 0; step < 20000; step++ {
		switch k := rng.Intn(10); {
		case k < 7: // fetch; one in four stays pinned for a while
			id := ids[rng.Intn(len(ids))]
			p, err := bp.Fetch(id)
			if want := ref(id).fetch(id, pins); !errors.Is(err, want) {
				t.Fatalf("step %d: fetch %d = %v, reference says %v", step, id, err, want)
			}
			if err != nil {
				break
			}
			if got, err := p.Read(0); err != nil || got[0] != byte(index[id]) {
				t.Fatalf("step %d: page %d shows %v %v", step, id, got, err)
			}
			if pins[id]++; rng.Intn(4) == 0 && len(held) < 8 {
				held = append(held, id)
			} else {
				pins[id]--
				bp.Unpin(id, rng.Intn(3) == 0)
			}
		case k < 9: // release a held pin
			if len(held) > 0 {
				i := rng.Intn(len(held))
				pins[held[i]]--
				bp.Unpin(held[i], rng.Intn(3) == 0)
				held = slices.Delete(held, i, i+1)
			}
		default: // drop an unpinned page, resident or not
			if id := ids[rng.Intn(len(ids))]; pins[id] == 0 {
				bp.Drop(id)
				ref(id).drop(id)
			}
		}
		for i, sh := range bp.shards {
			var order []PageID
			for f := sh.lru.next; f != &sh.lru; f = f.next {
				order = append(order, f.id)
			}
			r := refs[i]
			if !slices.Equal(order, r.order) || sh.hits != r.hits || sh.misses != r.misses || len(sh.frames) != len(order) {
				t.Fatalf("step %d shard %d:\n pool %v hits=%d misses=%d table=%d\n ref  %v hits=%d misses=%d",
					step, i, order, sh.hits, sh.misses, len(sh.frames), r.order, r.hits, r.misses)
			}
		}
	}
	if h, m := bp.Stats(); h == 0 || m == 0 {
		t.Errorf("trace never hit or never missed (hits=%d misses=%d)", h, m)
	}
}

// TestFetchAllocatesNothing pins the point of recycling: once a shard holds
// its capacity in frames, neither a miss (evict, rekey, read) nor a hit
// allocates.
func TestFetchAllocatesNothing(t *testing.T) {
	d, err := OpenDisk(filepath.Join(t.TempDir(), "b.kdb"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ids := seedPages(t, d, 64)
	bp := NewBufferPool(d, 16)
	i := 0
	fetch := func(set []PageID) func() {
		return func() {
			id := set[i%len(set)]
			i++
			if _, err := bp.Fetch(id); err != nil {
				t.Fatal(err)
			}
			bp.Unpin(id, false)
		}
	}
	miss := fetch(ids) // a cyclic walk over 4x the pool never hits under LRU
	for range ids {
		miss() // grow every shard to capacity
	}
	_, m0 := bp.Stats()
	if n := testing.AllocsPerRun(1000, miss); n != 0 {
		t.Errorf("steady-state miss allocates %v objects", n)
	}
	if _, m1 := bp.Stats(); m1-m0 < 1000 {
		t.Fatalf("only %d of 1000 fetches missed", m1-m0)
	}
	h0, _ := bp.Stats()
	if n := testing.AllocsPerRun(1000, fetch(ids[:1])); n != 0 {
		t.Errorf("hit allocates %v objects", n)
	}
	if h1, _ := bp.Stats(); h1-h0 < 1000 {
		t.Fatalf("only %d of 1000 fetches hit", h1-h0)
	}
}
