package oodb_test

// Differential suite for segment rewrites: compaction, alone or after
// composite clustering (composite.Recluster), may only change WHERE records
// live, never WHAT any reader sees. Each row compares the full logical
// state — per-object bytes, graph fingerprint, closure traversal,
// index-backed query results — before and after, and keeps a reader
// hammering closures concurrently with the compaction to pin isolation
// across the physical segment swap. The clustered row must also actually
// move records; a Recluster that silently left scan order alone would make
// the suite (and E17) vacuous.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"oodb"
	"oodb/internal/bench"
	"oodb/internal/model"
)

const (
	clParts    = 300
	clConn     = 3
	clNoisePer = 2
	clSeed     = 5
)

// clScanOrder returns Part's OIDs in physical scan order.
func clScanOrder(t *testing.T, db *oodb.DB, class model.ClassID) []model.OID {
	t.Helper()
	var order []model.OID
	if err := db.Engine().Scan([]model.ClassID{class}, func(obj *model.Object) bool {
		order = append(order, obj.OID)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return order
}

// clImages snapshots every part's encoded bytes via a snapshot scan.
func clImages(t *testing.T, db *oodb.DB, class model.ClassID) map[model.OID][]byte {
	t.Helper()
	images := make(map[model.OID][]byte)
	snap := db.BeginSnapshot()
	defer snap.Commit()
	if err := snap.Scan(class, func(obj *model.Object) bool {
		images[obj.OID] = model.EncodeObject(obj)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return images
}

func TestClusteredRewriteLogicallyInvisible(t *testing.T) {
	for _, tc := range []struct {
		name       string
		recluster  bool // composite.Recluster from part 0 before the compaction
		wantReason string
	}{
		{"none", false, "compaction must keep scan order"},
		{"composite", true, "Recluster on a decorrelated graph must move records"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := oodb.Open(dir, oodb.Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			// The physical contract below is about the one rewrite the test
			// asks for: no automatic one before it.
			db.Maintenance().Stop()
			g, err := bench.BuildOO1(db, clParts, clConn, clNoisePer, clSeed)
			if err != nil {
				t.Fatal(err)
			}
			cls, err := db.ClassByName("Part")
			if err != nil {
				t.Fatal(err)
			}
			cm, err := db.Composites()
			if err != nil {
				t.Fatal(err)
			}
			if err := cm.DeclareComposite(cls.ID, "to", false); err != nil {
				t.Fatal(err)
			}
			if err := db.CreateIndex("part_pid", "Part", []string{"pid"}, false); err != nil {
				t.Fatal(err)
			}

			// Reference state before the rewrite.
			preOrder := clScanOrder(t, db, cls.ID)
			preImages := clImages(t, db, cls.ID)
			preHash, err := g.GraphHash(db)
			if err != nil {
				t.Fatal(err)
			}
			preVisits, preClosure, err := g.Closure(db, 0)
			if err != nil {
				t.Fatal(err)
			}
			probe := func() string {
				out := ""
				for _, pid := range []int{0, clParts / 2, clParts - 1} {
					res, err := db.Query(fmt.Sprintf(`SELECT pid, x, y FROM Part WHERE pid = %d`, pid))
					if err != nil {
						t.Fatal(err)
					}
					for _, row := range res.Rows {
						out += fmt.Sprintf("%s%v;", row.OID, row.Values)
					}
				}
				return out
			}
			preProbe := probe()

			// Recluster deletes and re-puts each record, so a lock-free
			// fetch could fall between the two halves: it runs before the
			// reader starts.
			if tc.recluster {
				if err := db.Do(func(tx *oodb.Tx) error {
					_, err := cm.Recluster(tx, g.Parts[0])
					return err
				}); err != nil {
					t.Fatal(err)
				}
			}

			// Concurrent reader: closures must return the reference
			// fingerprint whether they observe the old layout, the new one,
			// or the swap in between.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			var readerErr error
			var readerMu sync.Mutex
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; ; n++ {
					select {
					case <-stop:
						if n > 0 {
							return
						}
					default:
					}
					v, h, err := g.Closure(db, n%clParts)
					if err == nil && n%clParts == 0 && (v != preVisits || h != preClosure) {
						err = fmt.Errorf("concurrent closure from root 0 saw (%d visits, %x), want (%d, %x)",
							v, h, preVisits, preClosure)
					}
					if err != nil {
						readerMu.Lock()
						readerErr = err
						readerMu.Unlock()
						return
					}
				}
			}()

			_, err = db.Engine().CompactClass(cls.ID)
			close(stop)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			readerMu.Lock()
			if readerErr != nil {
				t.Fatal(readerErr)
			}
			readerMu.Unlock()

			// Physical contract.
			postOrder := clScanOrder(t, db, cls.ID)
			if len(postOrder) != len(preOrder) {
				t.Fatalf("rewrite changed live count: %d -> %d", len(preOrder), len(postOrder))
			}
			moved := 0
			for i := range preOrder {
				if postOrder[i] != preOrder[i] {
					moved++
				}
			}
			if tc.recluster != (moved != 0) {
				t.Fatalf("%s (moved=%d)", tc.wantReason, moved)
			}

			// Logical contract: every reader path sees the identical state.
			postImages := clImages(t, db, cls.ID)
			if len(postImages) != len(preImages) {
				t.Fatalf("rewrite changed object count: %d -> %d", len(preImages), len(postImages))
			}
			for oid, want := range preImages {
				got, ok := postImages[oid]
				if !ok {
					t.Fatalf("object %s lost by %s rewrite", oid, tc.name)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("object %s bytes changed by %s rewrite", oid, tc.name)
				}
			}
			if h, err := g.GraphHash(db); err != nil || h != preHash {
				t.Fatalf("graph hash after %s rewrite: %x (err %v), want %x", tc.name, h, err, preHash)
			}
			if v, h, err := g.Closure(db, 0); err != nil || v != preVisits || h != preClosure {
				t.Fatalf("closure after %s rewrite: (%d, %x, %v), want (%d, %x)", tc.name, v, h, err, preVisits, preClosure)
			}
			if got := probe(); got != preProbe {
				t.Fatalf("index probe after %s rewrite:\n got %q\nwant %q", tc.name, got, preProbe)
			}
		})
	}
}

// TestSnapshotPinnedAcrossCompaction pins the harder isolation property: a
// snapshot BEGUN BEFORE a segment rewrite, read only AFTER it, must still
// see the pre-rewrite images even though every record has moved.
func TestSnapshotPinnedAcrossCompaction(t *testing.T) {
	dir := t.TempDir()
	db, err := oodb.Open(dir, oodb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Maintenance().Stop() // the rewrite under test is the only one
	g, err := bench.BuildOO1(db, 100, 2, 2, clSeed)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := db.ClassByName("Part")
	if err != nil {
		t.Fatal(err)
	}
	preImages := clImages(t, db, cls.ID)

	snap := db.BeginSnapshot()
	defer snap.Commit()
	if res, err := db.Engine().CompactClass(cls.ID); err != nil {
		t.Fatal(err)
	} else if res.PagesAfter >= res.PagesBefore {
		t.Fatalf("rewrite kept %d of %d pages; snapshot pinning untested", res.PagesAfter, res.PagesBefore)
	}

	seen := 0
	for _, oid := range g.Parts {
		obj, err := snap.Fetch(oid)
		if err != nil {
			t.Fatalf("pre-rewrite snapshot lost %s after rewrite: %v", oid, err)
		}
		if !bytes.Equal(model.EncodeObject(obj), preImages[oid]) {
			t.Fatalf("pre-rewrite snapshot sees post-rewrite bytes for %s", oid)
		}
		seen++
	}
	if seen != len(preImages) {
		t.Fatalf("snapshot saw %d objects, want %d", seen, len(preImages))
	}
}
