package index

import (
	"fmt"
	"sync"
	"testing"

	"oodb/internal/model"
)

// scanAll drains Scan into a slice.
func scanAll(idx *Index, iv Interval, classes []model.ClassID) []model.OID {
	var out []model.OID
	idx.Scan(iv, classes, func(_ []byte, oid model.OID) bool {
		out = append(out, oid)
		return true
	})
	return out
}

func TestIntervalNarrow(t *testing.T) {
	type bound struct {
		v   int64
		inc bool
	}
	cases := []struct {
		lows, highs []bound
		want        string
		empty       bool
	}{
		{nil, nil, "(-inf,+inf)", false},
		{[]bound{{5, true}}, nil, "[5,+inf)", false},
		{nil, []bound{{9, false}}, "(-inf,9)", false},
		{[]bound{{5, true}, {7, false}, {6, true}}, []bound{{20, true}, {9, false}}, "(7,9)", false},
		{[]bound{{5, true}, {5, false}}, []bound{{9, false}, {9, true}}, "(5,9)", false}, // equal bounds: the strict one wins
		{[]bound{{5, true}}, []bound{{5, true}}, "[5,5]", false},
		{[]bound{{5, false}}, []bound{{5, true}}, "(5,5]", true},
		{[]bound{{5, true}}, []bound{{5, false}}, "[5,5)", true},
		{[]bound{{50, true}}, []bound{{10, false}}, "[50,10)", true},
	}
	for _, tc := range cases {
		var iv Interval
		for _, b := range tc.lows {
			iv.NarrowLo(model.Int(b.v), b.inc)
		}
		for _, b := range tc.highs {
			iv.NarrowHi(model.Int(b.v), b.inc)
		}
		if iv.String() != tc.want || iv.Empty() != tc.empty {
			t.Errorf("lows %v highs %v: got %s empty=%v, want %s empty=%v",
				tc.lows, tc.highs, iv, iv.Empty(), tc.want, tc.empty)
		}
	}
	if p := Point(model.Int(3)); p.String() != "[3,3]" || p.Empty() {
		t.Errorf("Point(3) = %s empty=%v", p, p.Empty())
	}
}

// TestScanOrderFilterStop: Scan yields (key, OID) order, honours both bound
// flags and the class filter, stops when told to, and an empty interval
// never descends the tree.
func TestScanOrderFilterStop(t *testing.T) {
	w := newVehicleWorld(t)
	idx, err := w.mgr.Create("vw", w.vehicle.ID, []model.AttrID{w.weight}, true)
	if err != nil {
		t.Fatal(err)
	}
	// Weights 0..199, three objects per weight (one per class), inserted in
	// an order unrelated to key or OID order.
	classes := []model.ClassID{w.truck.ID, w.vehicle.ID, w.auto.ID}
	for i := 0; i < 200; i++ {
		wt := int64(i * 7 % 200)
		for _, c := range classes {
			w.store.put(t, w.mgr, w.newVehicle(t, c, uint64(wt+1), wt, model.NilOID))
		}
	}
	weightOf := func(oid model.OID) int64 { return int64(oid.Seq()) - 1 }

	got := scanAll(idx, Interval{Lo: model.Int(10), Hi: model.Int(150), LoInc: true}, nil)
	if len(got) != 3*140 {
		t.Fatalf("[10,150): %d OIDs, want %d", len(got), 3*140)
	}
	for i, oid := range got {
		if weightOf(oid) != int64(10+i/3) {
			t.Fatalf("[10,150): position %d holds weight %d", i, weightOf(oid))
		}
		if i%3 != 0 && got[i-1] >= oid {
			t.Fatalf("[10,150): OIDs under weight %d out of order: %v", weightOf(oid), got[i-2:i+1])
		}
	}
	got = scanAll(idx, Interval{Lo: model.Int(10), Hi: model.Int(150), HiInc: true}, nil)
	if len(got) != 3*140 || weightOf(got[0]) != 11 || weightOf(got[len(got)-1]) != 150 {
		t.Fatalf("(10,150]: %d OIDs from %d to %d", len(got), weightOf(got[0]), weightOf(got[len(got)-1]))
	}
	only := []model.ClassID{w.auto.ID}
	got = scanAll(idx, Interval{}, only)
	if len(got) != 200 {
		t.Fatalf("ONLY Automobile over everything: %d OIDs", len(got))
	}
	for i, oid := range got {
		if oid.Class() != w.auto.ID || weightOf(oid) != int64(i) {
			t.Fatalf("ONLY Automobile: position %d holds %s", i, oid)
		}
	}
	// Stop mid-batch and exactly at a batch boundary.
	for _, stopAt := range []int{1, 10, scanBatch, scanBatch + 1, 3 * scanBatch} {
		n := 0
		idx.Scan(Interval{}, nil, func([]byte, model.OID) bool { n++; return n < stopAt })
		if n != stopAt {
			t.Errorf("stop after %d: callback ran %d times", stopAt, n)
		}
	}
	before := mProbes.Value()
	if got = scanAll(idx, Interval{Lo: model.Int(50), Hi: model.Int(10), LoInc: true}, nil); got != nil {
		t.Fatalf("empty interval yielded %v", got)
	}
	if d := mProbes.Value() - before; d != 0 {
		t.Errorf("empty interval descended the tree %d times", d)
	}
	before = mProbes.Value()
	if got = idx.Lookup(model.Int(63), nil); len(got) != 3 {
		t.Fatalf("Lookup(63) = %v", got)
	}
	if d := mProbes.Value() - before; d != 1 {
		t.Errorf("point lookup descended the tree %d times, want 1", d)
	}
}

// TestScanSurvivesMaintenanceBetweenBatches: the callback runs with no
// lock held, so it may itself drive index maintenance. Keys present for the
// whole scan are each seen exactly once, in order, while inserts split the
// leaves around the cursor and deletes empty them.
func TestScanSurvivesMaintenanceBetweenBatches(t *testing.T) {
	w := newVehicleWorld(t)
	idx, _ := w.mgr.Create("vw", w.vehicle.ID, []model.AttrID{w.weight}, true)
	const stable = 2000
	for i := 0; i < stable; i++ {
		// Even weights are stable; odd ones come and go during the scan.
		w.store.put(t, w.mgr, w.newVehicle(t, w.vehicle.ID, uint64(i+1), int64(2*i), model.NilOID))
	}
	splits := mLeafSplits.Value()
	var seen []int64
	churn := uint64(0)
	idx.Scan(Interval{}, []model.ClassID{w.vehicle.ID}, func(_ []byte, oid model.OID) bool {
		at := int64(oid.Seq()-1) * 2
		seen = append(seen, at)
		// Around the cursor: insert odd keys just behind and well ahead of
		// it, and delete the ones inserted a while ago.
		for _, wt := range []int64{at - 1, at + 1, at + 301, at + 303, at + 305} {
			churn++
			w.store.put(t, w.mgr, w.newVehicle(t, w.auto.ID, churn, wt, model.NilOID))
		}
		if churn > 500 {
			for d := churn - 500; d > churn-505; d-- {
				w.store.del(t, w.mgr, model.MakeOID(w.auto.ID, d))
			}
		}
		return true
	})
	if mLeafSplits.Value() == splits {
		t.Fatal("the churn split no leaf: the test does not exercise resumption")
	}
	if len(seen) != stable {
		t.Fatalf("saw %d stable keys, want %d", len(seen), stable)
	}
	for i, at := range seen {
		if at != int64(2*i) {
			t.Fatalf("position %d holds key %d, want %d (skipped or repeated)", i, at, 2*i)
		}
	}
}

// TestScanConcurrentWithMaintenance is the -race pin for the index read
// lock: readers walk a class-hierarchy index for one class while a writer
// inserts, re-keys and deletes instances of a sibling class in the same
// tree. No lock above the index orders the two (class locks are per class,
// snapshot readers take none). Every pass must see exactly the reader
// class's postings, in order.
func TestScanConcurrentWithMaintenance(t *testing.T) {
	w := newVehicleWorld(t)
	idx, _ := w.mgr.Create("vw", w.vehicle.ID, []model.AttrID{w.weight}, true)
	const trucks = 1500
	for i := 0; i < trucks; i++ {
		w.store.put(t, w.mgr, w.newVehicle(t, w.truck.ID, uint64(i+1), int64(3*i), model.NilOID))
	}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		live := map[uint64]*model.Object{}
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			seq := i%400 + 1
			next := w.newVehicle(t, w.auto.ID, seq, int64(i*31%(3*trucks)), model.NilOID)
			var err error
			if old := live[seq]; old != nil && i%5 == 0 {
				err = w.mgr.OnDelete(old)
				delete(live, seq)
			} else {
				err = w.mgr.OnPut(old, next)
				live[seq] = next
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	only := []model.ClassID{w.truck.ID}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for pass := 0; pass < 30; pass++ {
				lo := int64((r*7 + pass) % 50 * 3)
				want := uint64(lo/3) + 1
				idx.Scan(Interval{Lo: model.Int(lo), LoInc: true}, only, func(_ []byte, oid model.OID) bool {
					if oid.Class() != w.truck.ID || oid.Seq() != want {
						t.Errorf("reader %d pass %d: got %s, want truck %d", r, pass, oid, want)
						return false
					}
					want++
					return true
				})
				if want != trucks+1 {
					t.Errorf("reader %d pass %d: walk ended before truck %d", r, pass, want)
				}
				if got := idx.Lookup(model.Int(lo), only); len(got) != 1 {
					t.Errorf("reader %d pass %d: %s", r, pass, fmt.Sprint("Lookup = ", got))
				}
				_ = idx.Len()
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}
