package oodb_test

// The self-maintaining heap seen from the front door: a database opened with
// oodb.Open compacts a mostly-dead segment on its own, once, after the load
// that killed it has ended (DESIGN §11), and the rewrite is safe beside the
// lock-free readers it now runs next to.

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"oodb"
	"oodb/internal/bench"
	"oodb/internal/core"
	"oodb/internal/obs"
)

func autoCompactions() uint64 {
	return obs.TakeSnapshot().Counters["maint_auto_compactions_total"]
}

// TestAutoCompactOnceAfterBulkDelete is perfbench's embed.traverse set-up in
// small: the OO1 build (insert parts and noise, delete the noise, wire the
// connections) and one Checkpoint, with nobody asking for maintenance. The
// Part segment must end dense, by exactly one automatic rewrite — not one
// per checkpoint the load passed through, and none while it was writing —
// with every part still fetchable and the graph unchanged.
func TestAutoCompactOnceAfterBulkDelete(t *testing.T) {
	db, err := oodb.Open(t.TempDir(), oodb.Options{NoSync: true, CheckpointBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	runs0 := autoCompactions()
	g, err := bench.BuildOO1(db, 4000, 3, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cls, err := db.ClassByName("Part")
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := db.Engine().SegmentInfo(cls.ID)
	if err != nil {
		t.Fatal(err)
	}
	wantHash, err := g.GraphHash(db)
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for autoCompactions() == runs0 {
		if time.Now().After(deadline) {
			t.Fatalf("no automatic compaction; the segment stands at %+v", loaded)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Let a second one happen if it is going to.
	time.Sleep(time.Second)
	if n := autoCompactions() - runs0; n != 1 {
		t.Fatalf("%d automatic compactions for one load-then-delete, want exactly 1", n)
	}
	info, err := db.Engine().SegmentInfo(cls.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Occupancy < 0.8 || info.Pages >= loaded.Pages || info.LiveRecords != len(g.Parts) {
		t.Fatalf("Part segment after the rewrite: %+v (after the load: %+v)", info, loaded)
	}
	if _, ok := db.Maintenance().LastAutoCompaction(cls.ID); !ok {
		t.Fatal("the manager Maintenance returns is not the one that compacted")
	}
	for pid, oid := range g.Parts {
		if _, err := db.Fetch(oid); err != nil {
			t.Fatalf("part %d (%s) after the rewrite: %v", pid, oid, err)
		}
	}
	if got, err := g.GraphHash(db); err != nil || got != wantHash {
		t.Fatalf("graph fingerprint %x (%v) after the rewrite, want %x", got, err, wantHash)
	}
}

// TestFetchDuringCompaction is the reader-vs-FreeDetached race under the
// race detector: lock-free Fetch and snapshot scans run while the segment
// is rewritten over and over through a pool far smaller than it, so freed
// pages are sealed and handed out again at once. Every read must return the
// model's values, or the typed not-found for an OID that was deleted —
// never another record's bytes, never a page-type or decode error.
func TestFetchDuringCompaction(t *testing.T) {
	db, err := oodb.Open(t.TempDir(), oodb.Options{NoSync: true, PoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Maintenance().Stop() // the test drives the rewrites itself, back to back
	if _, err := db.DefineClass("P", nil,
		oodb.Attr{Name: "n", Domain: "Integer"},
		oodb.Attr{Name: "pad", Domain: "String"}); err != nil {
		t.Fatal(err)
	}
	const total = 3000
	pad := func(i int) string {
		if i%97 == 0 {
			return strings.Repeat("L", 9000) // overflow chain
		}
		return strings.Repeat(string(rune('a'+i%26)), 150+i%100)
	}
	oids := make([]oodb.OID, total)
	if err := db.Do(func(tx *oodb.Tx) error {
		for i := range oids {
			oid, err := tx.Insert("P", oodb.Attrs{"n": oodb.Int(int64(i)), "pad": oodb.String(pad(i))})
			if err != nil {
				return err
			}
			oids[i] = oid
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	live := func(i int) bool { return i%3 == 0 }
	nLive := 0
	if err := db.Do(func(tx *oodb.Tx) error {
		for i, oid := range oids {
			if live(i) {
				nLive++
				continue
			}
			if err := tx.Delete(oid); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	cls, err := db.ClassByName("P")
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rnd.Intn(total)
				obj, err := db.Fetch(oids[i])
				if !live(i) {
					if !errors.Is(err, core.ErrNoObject) {
						fail(fmt.Errorf("fetch of deleted %s: %v, want the typed not-found", oids[i], err))
						return
					}
					continue
				}
				if err != nil {
					fail(fmt.Errorf("fetch of live %s: %w", oids[i], err))
					return
				}
				n, _ := db.Get(obj, "n")
				p, _ := db.Get(obj, "pad")
				if nv, _ := n.AsInt(); nv != int64(i) {
					fail(fmt.Errorf("%s: n = %v, want %d", oids[i], n, i))
					return
				}
				if pv, _ := p.AsString(); pv != pad(i) {
					fail(fmt.Errorf("%s: pad of %d bytes, want %d", oids[i], len(pv), len(pad(i))))
					return
				}
			}
		}(int64(r + 1))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := db.QuerySnapshot(`SELECT n FROM P`)
			if err != nil {
				fail(fmt.Errorf("snapshot scan: %w", err))
				return
			}
			seen := make(map[int64]bool, len(res.Rows))
			for _, row := range res.Rows {
				n, _ := row.Values[0].AsInt()
				if n < 0 || n >= total || !live(int(n)) || seen[n] {
					fail(fmt.Errorf("snapshot scan returned n = %d (dead, foreign or twice)", n))
					return
				}
				seen[n] = true
			}
			if len(seen) != nLive {
				fail(fmt.Errorf("snapshot scan saw %d objects, want %d", len(seen), nLive))
				return
			}
		}
	}()

	for round := 0; round < 25; round++ {
		if _, err := db.Engine().CompactClass(cls.ID); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-errs:
			close(stop)
			wg.Wait()
			t.Fatalf("round %d: %v", round, err)
		default:
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if acct, err := db.Engine().Store.AccountPages(); err != nil || acct.Leaked != 0 {
		t.Fatalf("page account after the rewrites: %+v (%v)", acct, err)
	}
}
