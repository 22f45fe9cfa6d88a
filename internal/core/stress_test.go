package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"oodb/internal/model"
	"oodb/internal/schema"
)

// TestConcurrentSameClassWriters hammers one class from many goroutines.
// The lock manager serializes per-object conflicts, but distinct objects
// of the same class share heap pages — this test (under -race) guards the
// heap latch that serializes page mutation.
func TestConcurrentSameClassWriters(t *testing.T) {
	db, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cl, err := db.DefineClass("P", nil,
		schema.AttrSpec{Name: "n", Domain: schema.ClassInteger},
		schema.AttrSpec{Name: "pad", Domain: schema.ClassString})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("pn", cl.ID, []string{"n"}, true); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const opsPer = 150
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			var mine []model.OID
			for i := 0; i < opsPer; i++ {
				err := db.Do(func(tx *Tx) error {
					switch {
					case len(mine) == 0 || r.Intn(3) == 0:
						oid, err := tx.InsertClass(cl.ID, map[string]model.Value{
							"n":   model.Int(int64(r.Intn(50))),
							"pad": model.String(string(make([]byte, r.Intn(300)))),
						})
						if err != nil {
							return err
						}
						mine = append(mine, oid)
						return nil
					case r.Intn(4) == 0:
						victim := mine[r.Intn(len(mine))]
						if err := tx.Delete(victim); err != nil {
							return err
						}
						for j, o := range mine {
							if o == victim {
								mine = append(mine[:j], mine[j+1:]...)
								break
							}
						}
						return nil
					default:
						return tx.Update(mine[r.Intn(len(mine))], map[string]model.Value{
							"n":   model.Int(int64(r.Intn(50))),
							"pad": model.String(string(make([]byte, r.Intn(600)))),
						})
					}
				})
				if err != nil {
					errs <- fmt.Errorf("worker %d op %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Invariant: the index agrees exactly with a scan, key by key.
	idx, err := db.Indexes.Get("pn")
	if err != nil {
		t.Fatal(err)
	}
	scanCounts := map[int64]int{}
	total := 0
	err = db.scanRaw([]model.ClassID{cl.ID}, func(obj *model.Object) bool {
		v, _ := db.AttrValue(obj, "n")
		n, _ := v.AsInt()
		scanCounts[n]++
		total++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("no objects survived the stress run")
	}
	for k := int64(0); k < 50; k++ {
		got := len(idx.Lookup(model.Int(k), nil))
		if got != scanCounts[k] {
			t.Errorf("index[n=%d] has %d entries, scan found %d", k, got, scanCounts[k])
		}
	}
	if idx.Len() != total {
		t.Errorf("index size %d != live objects %d", idx.Len(), total)
	}
}

// TestConcurrentHierarchyScansAndWriters drives the read path the parallel
// query executor uses — LockClassScan over a class hierarchy, then
// concurrent ScanLocked per class from several goroutines — while a writer
// keeps inserting into the leaf classes. Run under -race it guards the
// sharded buffer pool, the store RWMutex and the heap read latch.
func TestConcurrentHierarchyScansAndWriters(t *testing.T) {
	db, err := Open(t.TempDir(), Options{NoSync: true, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// A three-level hierarchy: Root <- Mid{0,1} <- Leaf{0,1,2,3}.
	root, err := db.DefineClass("Root", nil,
		schema.AttrSpec{Name: "n", Domain: schema.ClassInteger},
		schema.AttrSpec{Name: "pad", Domain: schema.ClassString})
	if err != nil {
		t.Fatal(err)
	}
	var leaves []model.ClassID
	for m := 0; m < 2; m++ {
		mid, err := db.DefineClass(fmt.Sprintf("Mid%d", m), []model.ClassID{root.ID})
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l < 2; l++ {
			leaf, err := db.DefineClass(fmt.Sprintf("Leaf%d_%d", m, l), []model.ClassID{mid.ID})
			if err != nil {
				t.Fatal(err)
			}
			leaves = append(leaves, leaf.ID)
		}
	}
	scope, err := db.Catalog.Descendants(root.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Seed every class in the scope; spill across pages with padding.
	const seedPerClass = 40
	err = db.Do(func(tx *Tx) error {
		for _, c := range scope {
			for i := 0; i < seedPerClass; i++ {
				if _, err := tx.InsertClass(c, map[string]model.Value{
					"n":   model.Int(int64(i)),
					"pad": model.String(string(make([]byte, 200))),
				}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	minTotal := seedPerClass * len(scope)

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	// One writer appending to the leaves (inserts only: the scan floor
	// stays valid).
	writers.Add(1)
	go func() {
		defer writers.Done()
		r := rand.New(rand.NewSource(7))
		for i := 0; i < 200; i++ {
			err := db.Do(func(tx *Tx) error {
				_, err := tx.InsertClass(leaves[r.Intn(len(leaves))], map[string]model.Value{
					"n":   model.Int(int64(i)),
					"pad": model.String(string(make([]byte, r.Intn(400)))),
				})
				return err
			})
			if err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	// Hierarchy-scoped readers: lock the scope once, then scan every class
	// from its own goroutine — the executor's fan-out, concentrated.
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := db.Do(func(tx *Tx) error {
					if err := tx.LockClassScan(scope); err != nil {
						return err
					}
					counts := make([]int, len(scope))
					var wg sync.WaitGroup
					for i, c := range scope {
						wg.Add(1)
						go func(i int, c model.ClassID) {
							defer wg.Done()
							tx.ScanLocked(c, nil, func(model.Image) bool {
								counts[i]++
								return true
							})
						}(i, c)
					}
					wg.Wait()
					total := 0
					for _, n := range counts {
						total += n
					}
					if total < minTotal {
						t.Errorf("hierarchy scan saw %d objects, want >= %d", total, minTotal)
					}
					return nil
				})
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}

// TestConcurrentReadersAndWriters mixes scans, point reads and writers on
// one class; under -race it guards reader/writer page access.
func TestConcurrentReadersAndWriters(t *testing.T) {
	db, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cl, _ := db.DefineClass("P", nil, schema.AttrSpec{Name: "n", Domain: schema.ClassInteger})
	var oids []model.OID
	db.Do(func(tx *Tx) error {
		for i := 0; i < 100; i++ {
			oid, err := tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(int64(i))})
			if err != nil {
				return err
			}
			oids = append(oids, oid)
		}
		return nil
	})

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	// Writers.
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 100; i++ {
				db.Do(func(tx *Tx) error {
					return tx.Update(oids[r.Intn(len(oids))], map[string]model.Value{
						"n": model.Int(int64(r.Intn(1000)))})
				})
			}
		}(w)
	}
	// Scanning readers.
	for w := 0; w < 3; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				db.Do(func(tx *Tx) error {
					n := 0
					if err := tx.Scan(cl.ID, func(*model.Object) bool { n++; return true }); err != nil {
						return err
					}
					if n != 100 {
						t.Errorf("scan saw %d objects, want 100", n)
					}
					return nil
				})
			}
		}()
	}
	// Point readers through the lock-free committed read.
	for w := 0; w < 3; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			r := rand.New(rand.NewSource(int64(w + 100)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Fetch(oids[r.Intn(len(oids))]); err != nil {
					t.Errorf("fetch: %v", err)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}
