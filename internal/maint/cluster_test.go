package maint

import (
	"testing"

	"oodb/internal/composite"
	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/obs"
	"oodb/internal/schema"
)

// scanOrder returns the class's OIDs in physical scan order.
func scanOrder(t *testing.T, db *core.DB, class model.ClassID) []model.OID {
	t.Helper()
	var order []model.OID
	if err := db.Store.ScanClass(class, func(oid model.OID, _ []byte) bool {
		order = append(order, oid)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return order
}

// buildCompositeWorld creates class "Asm" with a composite self-referencing
// "kids" set, three parents each owning three children, inserted so that
// scan order interleaves parents and children of different families.
// Returns the class and parents[i] -> children[i] structure.
func buildCompositeWorld(t *testing.T, db *core.DB) (*schema.Class, []model.OID, [][]model.OID) {
	t.Helper()
	cl, err := db.DefineClass("Asm", nil,
		schema.AttrSpec{Name: "n", Domain: schema.ClassInteger})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddAttribute(cl.ID, schema.AttrSpec{Name: "kids", Domain: cl.ID, SetValued: true}); err != nil {
		t.Fatal(err)
	}
	cm, err := composite.New(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.DeclareComposite(cl.ID, "kids", false); err != nil {
		t.Fatal(err)
	}
	const families = 3
	parents := make([]model.OID, families)
	children := make([][]model.OID, families)
	if err := db.Do(func(tx *core.Tx) error {
		for f := 0; f < families; f++ {
			oid, err := tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(int64(f))})
			if err != nil {
				return err
			}
			parents[f] = oid
		}
		// Children inserted round-robin across families: family 0's children
		// sit at scan positions 3, 6, 9 — nowhere near their parent.
		for c := 0; c < 3; c++ {
			for f := 0; f < families; f++ {
				oid, err := tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(int64(100 + f*10 + c))})
				if err != nil {
					return err
				}
				children[f] = append(children[f], oid)
			}
		}
		for f := 0; f < families; f++ {
			kids := make([]model.Value, 0, 3)
			for _, c := range children[f] {
				kids = append(kids, model.Ref(c))
			}
			if err := tx.Update(parents[f], map[string]model.Value{"kids": model.Set(kids...)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return cl, parents, children
}

// TestCompositePlacementClustersFamilies compacts under ClusterComposite
// and verifies each parent is immediately followed by its own children in
// physical order, parents in scan order.
func TestCompositePlacementClustersFamilies(t *testing.T) {
	dir := t.TempDir()
	db, err := core.Open(dir, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cl, parents, children := buildCompositeWorld(t, db)

	m := New(db, Options{Clustering: ClusterComposite})
	res, err := m.CompactClass(cl.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reordered == 0 {
		t.Fatal("composite placement moved nothing on an interleaved layout")
	}
	order := scanOrder(t, db, cl.ID)
	var expect []model.OID
	for f := range parents {
		expect = append(expect, parents[f])
		expect = append(expect, children[f]...)
	}
	if len(order) != len(expect) {
		t.Fatalf("scan sees %d objects, want %d", len(order), len(expect))
	}
	for i := range expect {
		if order[i] != expect[i] {
			t.Fatalf("position %d = %s, want %s\n got %v\nwant %v", i, order[i], expect[i], order, expect)
		}
	}
}

// TestCompositePlacementHandlesCycles builds a purely cyclic part-of graph
// (every object is someone's child, so there is no root) and verifies the
// clustered rewrite still emits every object exactly once — the
// second-sweep DFS, not the tail-append fallback, with cycle members laid
// adjacently.
func TestCompositePlacementHandlesCycles(t *testing.T) {
	dir := t.TempDir()
	db, err := core.Open(dir, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cl, err := db.DefineClass("Ring", nil,
		schema.AttrSpec{Name: "n", Domain: schema.ClassInteger})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddAttribute(cl.ID, schema.AttrSpec{Name: "next", Domain: cl.ID}); err != nil {
		t.Fatal(err)
	}
	cm, err := composite.New(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.DeclareComposite(cl.ID, "next", false); err != nil {
		t.Fatal(err)
	}
	const n = 7
	oids := make([]model.OID, n)
	if err := db.Do(func(tx *core.Tx) error {
		for i := range oids {
			oid, err := tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(int64(i))})
			if err != nil {
				return err
			}
			oids[i] = oid
		}
		for i, oid := range oids {
			if err := tx.Update(oid, map[string]model.Value{"next": model.Ref(oids[(i+1)%n])}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	m := New(db, Options{Clustering: ClusterComposite})
	if _, err := m.CompactClass(cl.ID); err != nil {
		t.Fatal(err)
	}
	order := scanOrder(t, db, cl.ID)
	if len(order) != n {
		t.Fatalf("scan sees %d objects, want %d", len(order), n)
	}
	// The DFS from the first scan OID must walk the whole ring in link
	// order: oids[0], oids[1], ..., oids[n-1].
	for i := range oids {
		if order[i] != oids[i] {
			t.Fatalf("cycle order at %d = %s, want %s", i, order[i], oids[i])
		}
	}
}

// TestHeatPlacementOrdersByFetchCount fetches a known subset with distinct
// frequencies and verifies ClusterHot lays the segment in descending fetch
// order with the cold tail in scan order, and that consuming the heat
// resets the tracker.
func TestHeatPlacementOrdersByFetchCount(t *testing.T) {
	db, cl, _ := openDB(t)
	kept := fragment(t, db, cl, 200, 10) // 20 survivors

	// Heat: kept[5] hottest, then kept[10], then kept[15].
	db.Store.ResetAccessCounts()
	for i, reps := range map[int]int{5: 9, 10: 6, 15: 3} {
		for r := 0; r < reps; r++ {
			if _, err := db.FetchObject(kept[i]); err != nil {
				t.Fatal(err)
			}
		}
	}

	m := New(db, Options{Clustering: ClusterHot})
	res, err := m.CompactClass(cl.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reordered == 0 {
		t.Fatal("heat placement moved nothing despite skewed fetch counts")
	}
	order := scanOrder(t, db, cl.ID)
	if len(order) != len(kept) {
		t.Fatalf("scan sees %d objects, want %d", len(order), len(kept))
	}
	if order[0] != kept[5] || order[1] != kept[10] || order[2] != kept[15] {
		t.Fatalf("hot head = %v, want [%s %s %s]", order[:3], kept[5], kept[10], kept[15])
	}
	// Cold tail keeps scan order (ties broken stably).
	want := 3
	for _, oid := range kept {
		if oid == kept[5] || oid == kept[10] || oid == kept[15] {
			continue
		}
		if order[want] != oid {
			t.Fatalf("cold tail at %d = %s, want %s", want, order[want], oid)
		}
		want++
	}
	// The compaction consumed the heat: tracker is reset.
	if n := len(db.Store.AccessCounts()); n != 0 {
		t.Fatalf("tracker still holds %d keys after heat-ordered compaction", n)
	}
}

// TestClusterMetrics pins the maint_cluster_* counters: a compaction under
// ClusterNone leaves them alone, one under ClusterHot counts.
func TestClusterMetrics(t *testing.T) {
	db, cl, _ := openDB(t)
	kept := fragment(t, db, cl, 200, 10)
	for r := 0; r < 5; r++ { // skewed heat so ClusterHot would reorder
		if _, err := db.FetchObject(kept[len(kept)-1]); err != nil {
			t.Fatal(err)
		}
	}

	before := obs.TakeSnapshot().Counters["maint_cluster_compactions_total"]
	if _, err := New(db, Options{}).CompactClass(cl.ID); err != nil {
		t.Fatal(err)
	}
	after := obs.TakeSnapshot().Counters["maint_cluster_compactions_total"]
	if after != before {
		t.Fatalf("ClusterNone compaction bumped maint_cluster_compactions_total (%d -> %d)", before, after)
	}

	m2 := New(db, Options{Clustering: ClusterHot})
	res, err := m2.CompactClass(cl.ID)
	if err != nil {
		t.Fatal(err)
	}
	snap := obs.TakeSnapshot().Counters
	if got := snap["maint_cluster_compactions_total"]; got != after+1 {
		t.Fatalf("maint_cluster_compactions_total = %d, want %d", got, after+1)
	}
	if res.Reordered > 0 && snap["maint_cluster_objects_reordered"] == 0 {
		t.Fatal("maint_cluster_objects_reordered not bumped")
	}
}

// TestClusterPolicyString pins the metric/report labels.
func TestClusterPolicyString(t *testing.T) {
	for p, want := range map[ClusterPolicy]string{
		ClusterNone: "none", ClusterComposite: "composite", ClusterHot: "hot",
	} {
		if got := p.String(); got != want {
			t.Fatalf("policy %d String() = %q, want %q", p, got, want)
		}
	}
}
