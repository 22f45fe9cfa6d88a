package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"oodb/internal/model"
)

// recount is the full-scan reference for Heap.Stats: it walks the chain and
// counts pages, live slots and their stored bytes.
func recount(t *testing.T, h *Heap) HeapStats {
	t.Helper()
	var st HeapStats
	for id := h.First; id != InvalidPage; {
		p, err := h.pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		st.Pages++
		for slot := 0; slot < p.Slots(); slot++ {
			if n := p.recLen(slot); n > 0 {
				st.Records++
				st.Bytes += int64(n)
			}
		}
		next := p.Next()
		h.pool.Unpin(id, false)
		id = next
	}
	return st
}

// TestSegmentCountersMatchScan: under a random mix of inserts, updates that
// shrink, grow in place, relocate and cross the overflow boundary, deletes,
// undos (the before-image put back, or a fresh insert deleted again, as an
// abort does), segment rewrites and reopens, the incremental counters equal
// a full recount of the chain, and the record count equals the directory's.
func TestSegmentCountersMatchScan(t *testing.T) {
	const class = model.ClassID(70)
	run := func(seed int64) bool {
		s, path := openTestStore(t, 64)
		defer func() { s.Close() }()
		if err := s.CreateSegment(class); err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed))
		payload := func() string {
			switch r.Intn(5) {
			case 0:
				return strings.Repeat("a", r.Intn(40))
			case 1:
				return strings.Repeat("b", 300+r.Intn(900))
			case 2:
				return strings.Repeat("c", maxInline-40+r.Intn(40)) // straddles inline/overflow
			case 3:
				return strings.Repeat("d", PageSize+r.Intn(2*PageSize))
			default:
				return strings.Repeat("e", 100+r.Intn(100))
			}
		}
		live := map[model.OID]string{}
		var oids []model.OID
		check := func(step int, what string) bool {
			h := s.heaps[class]
			got, want := h.Stats(), recount(t, h)
			want.Mutations = got.Mutations
			if got != want {
				t.Errorf("seed %d step %d (%s): counters %+v, recount %+v", seed, step, what, got, want)
				return false
			}
			if got.Records != len(live) || s.Count(class) != len(live) {
				t.Errorf("seed %d step %d (%s): %d records, directory %d, model %d",
					seed, step, what, got.Records, s.Count(class), len(live))
				return false
			}
			info := s.SegmentInfo(class)
			if info.Pages != got.Pages || info.LiveRecords != got.Records || info.LiveBytes != got.Bytes {
				t.Errorf("seed %d step %d: SegmentInfo %+v disagrees with %+v", seed, step, info, got)
				return false
			}
			return true
		}
		for step := 0; step < 400; step++ {
			what := ""
			switch k := r.Intn(20); {
			case len(oids) == 0 || k < 6:
				what = "insert"
				oid, err := s.NewOID(class)
				if err != nil {
					t.Fatal(err)
				}
				pl := payload()
				if err := s.Put(oid, img(oid, pl)); err != nil {
					t.Fatal(err)
				}
				live[oid], oids = pl, append(oids, oid)
				if r.Intn(4) == 0 { // aborted insert
					what = "insert+undo"
					if err := s.Delete(oid); err != nil {
						t.Fatal(err)
					}
					delete(live, oid)
					oids = oids[:len(oids)-1]
				}
			case k < 12:
				what = "update"
				oid := oids[r.Intn(len(oids))]
				before, pl := live[oid], payload()
				if err := s.Put(oid, img(oid, pl)); err != nil {
					t.Fatal(err)
				}
				live[oid] = pl
				if r.Intn(4) == 0 { // aborted update
					what = "update+undo"
					if err := s.Put(oid, img(oid, before)); err != nil {
						t.Fatal(err)
					}
					live[oid] = before
				}
			case k < 17:
				what = "delete"
				i := r.Intn(len(oids))
				oid := oids[i]
				before := live[oid]
				if err := s.Delete(oid); err != nil {
					t.Fatal(err)
				}
				delete(live, oid)
				oids = append(oids[:i], oids[i+1:]...)
				if r.Intn(4) == 0 { // aborted delete
					what = "delete+undo"
					if err := s.Put(oid, img(oid, before)); err != nil {
						t.Fatal(err)
					}
					live[oid], oids = before, append(oids, oid)
				}
			case k < 18:
				what = "rewrite"
				d, _, err := s.RewriteSegment(class, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.FreeDetached(d); err != nil {
					t.Fatal(err)
				}
			default:
				what = "reopen"
				if err := checkpoint(s); err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				var err error
				if s, err = Open(path, Options{PoolPages: 64}); err != nil {
					t.Fatal(err)
				}
			}
			if !check(step, what) {
				return false
			}
		}
		for oid, pl := range live {
			got, err := get(s, oid)
			if err != nil || !bytes.Equal(got, img(oid, pl)) {
				t.Errorf("seed %d: %s reads back wrong (%v)", seed, oid, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentInfoNoPageIO pins the O(1) claim: on a segment several times
// the pool, SegmentInfo moves neither the hit nor the miss counter.
func TestSegmentInfoNoPageIO(t *testing.T) {
	s, _ := openTestStore(t, 16)
	defer s.Close()
	oids := fillSegment(t, s, compactTestClass, 2000, 50)
	for i, oid := range oids {
		if i%3 != 0 {
			if err := s.Delete(oid); err != nil {
				t.Fatal(err)
			}
		}
	}
	hits0, misses0 := s.PoolStats()
	var info *SegmentInfo
	for i := 0; i < 100; i++ {
		info = s.SegmentInfo(compactTestClass)
	}
	if hits, misses := s.PoolStats(); hits != hits0 || misses != misses0 {
		t.Fatalf("SegmentInfo fetched pages: hits %d -> %d, misses %d -> %d", hits0, hits, misses0, misses)
	}
	if info.Pages <= 16 || info.LiveRecords != (len(oids)+2)/3 || info.Occupancy >= 0.5 {
		t.Fatalf("info = %+v", info)
	}
}

// TestDetachedHeapTurnsReadersAway is the reader-vs-FreeDetached race made
// deterministic. A reader that resolved the old heap before a rewrite and
// reaches it after its pages were freed gets the sentinel, not a freed
// page; Store.View and ScanImages resolve again and answer from the fresh
// heap; and a scan that was already inside the old heap holds the free back
// until it has finished on intact pages.
func TestDetachedHeapTurnsReadersAway(t *testing.T) {
	s, _ := openTestStore(t, 64)
	defer s.Close()
	oids := fillSegment(t, s, compactTestClass, 400, 25)
	for i, oid := range oids {
		if i%4 != 0 {
			if err := s.Delete(oid); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The stale reader's view: heap and RID resolved before the rewrite.
	old := s.heaps[compactTestClass]
	staleRID := s.dir[oids[0]]

	// A scan enters the old heap and stalls in its callback.
	entered, release := make(chan struct{}), make(chan struct{})
	scanned := make(chan int)
	go func() {
		n := 0
		err := old.Scan(func(RID, []byte) bool {
			if n == 0 {
				close(entered)
				<-release
			}
			n++
			return true
		})
		if err != nil {
			n = -1
		}
		scanned <- n
	}()
	<-entered

	d, res, err := s.RewriteSegment(compactTestClass, nil)
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan error)
	go func() { freed <- s.FreeDetached(d) }()
	select {
	case err := <-freed:
		t.Fatalf("FreeDetached did not wait for the scan inside the heap (err %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if n := <-scanned; n != res.LiveRecords {
		t.Fatalf("the scan inside the detached heap saw %d records, want %d", n, res.LiveRecords)
	}
	if err := <-freed; err != nil {
		t.Fatal(err)
	}

	if _, err := read(old, staleRID); err != errHeapDetached {
		t.Fatalf("read through a freed heap: %v, want the detached sentinel", err)
	}
	if err := old.Scan(func(RID, []byte) bool { return true }); err != errHeapDetached {
		t.Fatalf("scan of a freed heap: %v, want the detached sentinel", err)
	}
	for i, oid := range oids {
		got, err := get(s, oid)
		if i%4 != 0 {
			if err == nil {
				t.Fatalf("deleted %s still readable", oid)
			}
			continue
		}
		want := strings.Repeat("p", 100)
		if i%25 == 0 {
			want = strings.Repeat("B", 3*PageSize)
		}
		if err != nil || !bytes.Equal(got, img(oid, want)) {
			t.Fatalf("%s after the rewrite: %v", oid, err)
		}
	}
	n := 0
	if err := s.ScanImages(compactTestClass, func(model.OID, []byte) bool { n++; return true }); err != nil || n != res.LiveRecords {
		t.Fatalf("scan after the rewrite: %d records (%v), want %d", n, err, res.LiveRecords)
	}
	if acct, err := s.AccountPages(); err != nil || acct.Leaked != 0 {
		t.Fatalf("leaked pages after the free: %s", fmt.Sprint(acct, err))
	}
}
