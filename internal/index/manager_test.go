package index

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"oodb/internal/model"
	"oodb/internal/schema"
)

// fakeStore is an in-memory object store for manager tests; its fetch is
// the manager's Fetcher.
type fakeStore struct {
	objs map[model.OID]*model.Object
}

func newFakeStore() *fakeStore { return &fakeStore{objs: map[model.OID]*model.Object{}} }

func (f *fakeStore) fetch(oid model.OID) (*model.Object, error) {
	o, ok := f.objs[oid]
	if !ok {
		return nil, errors.New("no such object")
	}
	return o, nil
}

// put mirrors the engine's write path: store the object and feed the index
// manager the old/new pair.
func (f *fakeStore) put(t *testing.T, m *Manager, o *model.Object) {
	t.Helper()
	old := f.objs[o.OID]
	f.objs[o.OID] = o
	if err := m.OnPut(old, o); err != nil {
		t.Fatal(err)
	}
}

func (f *fakeStore) del(t *testing.T, m *Manager, oid model.OID) {
	t.Helper()
	old := f.objs[oid]
	delete(f.objs, oid)
	if old != nil {
		if err := m.OnDelete(old); err != nil {
			t.Fatal(err)
		}
	}
}

// vehicleWorld builds the Figure 1 schema plus an index manager and fake
// store.
type vehicleWorld struct {
	cat                            *schema.Catalog
	mgr                            *Manager
	store                          *fakeStore
	vehicle, auto, truck, company  *schema.Class
	weight, manufacturer, location model.AttrID
}

func newVehicleWorld(t testing.TB) *vehicleWorld {
	t.Helper()
	cat := schema.NewCatalog()
	company, _ := cat.DefineClass("Company", nil,
		schema.AttrSpec{Name: "name", Domain: schema.ClassString},
		schema.AttrSpec{Name: "location", Domain: schema.ClassString})
	vehicle, _ := cat.DefineClass("Vehicle", nil,
		schema.AttrSpec{Name: "weight", Domain: schema.ClassInteger},
		schema.AttrSpec{Name: "manufacturer", Domain: company.ID})
	auto, _ := cat.DefineClass("Automobile", []model.ClassID{vehicle.ID})
	truck, _ := cat.DefineClass("Truck", []model.ClassID{vehicle.ID})
	store := newFakeStore()
	mgr := NewManager(cat, store.fetch)
	w, _ := cat.ResolveAttr(vehicle.ID, "weight")
	m, _ := cat.ResolveAttr(vehicle.ID, "manufacturer")
	l, _ := cat.ResolveAttr(company.ID, "location")
	return &vehicleWorld{
		cat: cat, mgr: mgr, store: store,
		vehicle: vehicle, auto: auto, truck: truck, company: company,
		weight: w.ID, manufacturer: m.ID, location: l.ID,
	}
}

func (w *vehicleWorld) newVehicle(t *testing.T, class model.ClassID, seq uint64, weight int64, maker model.OID) *model.Object {
	o := model.NewObject(model.MakeOID(class, seq))
	o.Set(w.weight, model.Int(weight))
	if !maker.IsNil() {
		o.Set(w.manufacturer, model.Ref(maker))
	}
	return o
}

func (w *vehicleWorld) newCompany(seq uint64, loc string) *model.Object {
	o := model.NewObject(model.MakeOID(w.company.ID, seq))
	o.Set(w.location, model.String(loc))
	return o
}

func TestClassHierarchyIndexCoversSubclasses(t *testing.T) {
	w := newVehicleWorld(t)
	idx, err := w.mgr.Create("vehicle_weight", w.vehicle.ID, []model.AttrID{w.weight}, true)
	if err != nil {
		t.Fatal(err)
	}
	w.store.put(t, w.mgr, w.newVehicle(t, w.vehicle.ID, 1, 8000, model.NilOID))
	w.store.put(t, w.mgr, w.newVehicle(t, w.auto.ID, 1, 8000, model.NilOID))
	w.store.put(t, w.mgr, w.newVehicle(t, w.truck.ID, 1, 9000, model.NilOID))

	// Hierarchy-scoped lookup: all classes.
	got := idx.Lookup(model.Int(8000), nil)
	if len(got) != 2 {
		t.Fatalf("Lookup(8000) = %v", got)
	}
	// ONLY-scoped lookup: filter to the Automobile class.
	got = idx.Lookup(model.Int(8000), []model.ClassID{w.auto.ID})
	if len(got) != 1 || got[0].Class() != w.auto.ID {
		t.Fatalf("ONLY lookup = %v", got)
	}
	// Range across the hierarchy.
	got = scanAll(idx, Interval{Lo: model.Int(8500), LoInc: true}, nil)
	if len(got) != 1 || got[0].Class() != w.truck.ID {
		t.Fatalf("Scan [8500,+inf) = %v", got)
	}
}

func TestSingleClassIndexDoesNotCoverSubclasses(t *testing.T) {
	w := newVehicleWorld(t)
	idx, _ := w.mgr.Create("veh_only", w.vehicle.ID, []model.AttrID{w.weight}, false)
	w.store.put(t, w.mgr, w.newVehicle(t, w.vehicle.ID, 1, 8000, model.NilOID))
	w.store.put(t, w.mgr, w.newVehicle(t, w.auto.ID, 1, 8000, model.NilOID))
	got := idx.Lookup(model.Int(8000), nil)
	if len(got) != 1 || got[0].Class() != w.vehicle.ID {
		t.Fatalf("SC index indexed subclasses: %v", got)
	}
}

func TestIndexUpdateAndDeleteMaintenance(t *testing.T) {
	w := newVehicleWorld(t)
	idx, _ := w.mgr.Create("vehicle_weight", w.vehicle.ID, []model.AttrID{w.weight}, true)
	v := w.newVehicle(t, w.vehicle.ID, 1, 8000, model.NilOID)
	w.store.put(t, w.mgr, v)

	v2 := v.Clone()
	v2.Set(w.weight, model.Int(7000))
	w.store.put(t, w.mgr, v2)
	if got := idx.Lookup(model.Int(8000), nil); got != nil {
		t.Fatalf("old key still indexed: %v", got)
	}
	if got := idx.Lookup(model.Int(7000), nil); len(got) != 1 {
		t.Fatalf("new key missing: %v", got)
	}

	w.store.del(t, w.mgr, v.OID)
	if got := idx.Lookup(model.Int(7000), nil); got != nil {
		t.Fatalf("deleted object still indexed: %v", got)
	}
	if idx.Len() != 0 {
		t.Errorf("Len = %d after delete", idx.Len())
	}
}

func TestNestedAttributeIndex(t *testing.T) {
	w := newVehicleWorld(t)
	idx, err := w.mgr.Create("veh_maker_loc", w.vehicle.ID,
		[]model.AttrID{w.manufacturer, w.location}, true)
	if err != nil {
		t.Fatal(err)
	}
	detroit := w.newCompany(1, "Detroit")
	tokyo := w.newCompany(2, "Tokyo")
	w.store.put(t, w.mgr, detroit)
	w.store.put(t, w.mgr, tokyo)

	v1 := w.newVehicle(t, w.vehicle.ID, 1, 8000, detroit.OID)
	v2 := w.newVehicle(t, w.truck.ID, 1, 9000, detroit.OID)
	v3 := w.newVehicle(t, w.auto.ID, 1, 7000, tokyo.OID)
	w.store.put(t, w.mgr, v1)
	w.store.put(t, w.mgr, v2)
	w.store.put(t, w.mgr, v3)

	got := idx.Lookup(model.String("Detroit"), nil)
	if len(got) != 2 {
		t.Fatalf("Lookup(Detroit) = %v", got)
	}
	got = idx.Lookup(model.String("Tokyo"), nil)
	if len(got) != 1 || got[0] != v3.OID {
		t.Fatalf("Lookup(Tokyo) = %v", got)
	}
}

func TestNestedIndexInteriorUpdate(t *testing.T) {
	// The crucial path-index property: updating the interior object
	// (Company.location) re-keys every head (Vehicle) whose path passes
	// through it, without the heads being touched.
	w := newVehicleWorld(t)
	idx, _ := w.mgr.Create("veh_maker_loc", w.vehicle.ID,
		[]model.AttrID{w.manufacturer, w.location}, true)
	detroit := w.newCompany(1, "Detroit")
	w.store.put(t, w.mgr, detroit)
	for i := uint64(1); i <= 5; i++ {
		w.store.put(t, w.mgr, w.newVehicle(t, w.vehicle.ID, i, 8000, detroit.OID))
	}
	if got := idx.Lookup(model.String("Detroit"), nil); len(got) != 5 {
		t.Fatalf("before move: %v", got)
	}
	// The company moves.
	moved := detroit.Clone()
	moved.Set(w.location, model.String("Austin"))
	w.store.put(t, w.mgr, moved)

	if got := idx.Lookup(model.String("Detroit"), nil); got != nil {
		t.Fatalf("stale keys after interior update: %v", got)
	}
	if got := idx.Lookup(model.String("Austin"), nil); len(got) != 5 {
		t.Fatalf("after move: %v", got)
	}
}

func TestNestedIndexHeadRetargets(t *testing.T) {
	w := newVehicleWorld(t)
	idx, _ := w.mgr.Create("veh_maker_loc", w.vehicle.ID,
		[]model.AttrID{w.manufacturer, w.location}, true)
	detroit := w.newCompany(1, "Detroit")
	tokyo := w.newCompany(2, "Tokyo")
	w.store.put(t, w.mgr, detroit)
	w.store.put(t, w.mgr, tokyo)
	v := w.newVehicle(t, w.vehicle.ID, 1, 8000, detroit.OID)
	w.store.put(t, w.mgr, v)

	// Head switches manufacturer.
	v2 := v.Clone()
	v2.Set(w.manufacturer, model.Ref(tokyo.OID))
	w.store.put(t, w.mgr, v2)
	if got := idx.Lookup(model.String("Detroit"), nil); got != nil {
		t.Fatalf("stale Detroit entry: %v", got)
	}
	if got := idx.Lookup(model.String("Tokyo"), nil); len(got) != 1 {
		t.Fatalf("missing Tokyo entry: %v", got)
	}
	// After the retarget, updating the old company must not disturb v.
	d2 := detroit.Clone()
	d2.Set(w.location, model.String("Flint"))
	w.store.put(t, w.mgr, d2)
	if got := idx.Lookup(model.String("Tokyo"), nil); len(got) != 1 {
		t.Fatalf("old interior update disturbed retargeted head: %v", got)
	}
}

func TestNestedIndexInteriorDelete(t *testing.T) {
	w := newVehicleWorld(t)
	idx, _ := w.mgr.Create("veh_maker_loc", w.vehicle.ID,
		[]model.AttrID{w.manufacturer, w.location}, true)
	detroit := w.newCompany(1, "Detroit")
	w.store.put(t, w.mgr, detroit)
	v := w.newVehicle(t, w.vehicle.ID, 1, 8000, detroit.OID)
	w.store.put(t, w.mgr, v)

	// Deleting the company leaves the vehicle with a dangling reference:
	// its path instantiation dead-ends, so it is unindexed.
	w.store.del(t, w.mgr, detroit.OID)
	if got := idx.Lookup(model.String("Detroit"), nil); got != nil {
		t.Fatalf("dangling path still indexed: %v", got)
	}
}

func TestSetValuedAttributeIndexed(t *testing.T) {
	cat := schema.NewCatalog()
	doc, _ := cat.DefineClass("Doc", nil,
		schema.AttrSpec{Name: "tags", Domain: schema.ClassString, SetValued: true})
	tags, _ := cat.ResolveAttr(doc.ID, "tags")
	store := newFakeStore()
	mgr := NewManager(cat, store.fetch)
	idx, _ := mgr.Create("doc_tags", doc.ID, []model.AttrID{tags.ID}, true)

	o := model.NewObject(model.MakeOID(doc.ID, 1))
	o.Set(tags.ID, model.Set(model.String("db"), model.String("oo")))
	store.put(t, mgr, o)

	if got := idx.Lookup(model.String("db"), nil); len(got) != 1 {
		t.Fatalf("member db not indexed: %v", got)
	}
	if got := idx.Lookup(model.String("oo"), nil); len(got) != 1 {
		t.Fatalf("member oo not indexed: %v", got)
	}
	// Removing a member unindexes just that member.
	o2 := o.Clone()
	o2.Set(tags.ID, model.Set(model.String("db")))
	store.put(t, mgr, o2)
	if got := idx.Lookup(model.String("oo"), nil); got != nil {
		t.Fatalf("removed member still indexed: %v", got)
	}
}

func TestNullValuesNotIndexed(t *testing.T) {
	w := newVehicleWorld(t)
	idx, _ := w.mgr.Create("vehicle_weight", w.vehicle.ID, []model.AttrID{w.weight}, true)
	o := model.NewObject(model.MakeOID(w.vehicle.ID, 1)) // no weight set
	w.store.put(t, w.mgr, o)
	if idx.Len() != 0 {
		t.Errorf("null value indexed: Len = %d", idx.Len())
	}
}

func TestCreateDuplicateAndDrop(t *testing.T) {
	w := newVehicleWorld(t)
	if _, err := w.mgr.Create("i", w.vehicle.ID, []model.AttrID{w.weight}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := w.mgr.Create("i", w.vehicle.ID, []model.AttrID{w.weight}, true); !errors.Is(err, ErrIndexExists) {
		t.Errorf("expected ErrIndexExists, got %v", err)
	}
	if _, err := w.mgr.Create("empty", w.vehicle.ID, nil, true); !errors.Is(err, ErrEmptyPath) {
		t.Errorf("expected ErrEmptyPath, got %v", err)
	}
	if err := w.mgr.Drop("i"); err != nil {
		t.Fatal(err)
	}
	if err := w.mgr.Drop("i"); !errors.Is(err, ErrNoSuchIndex) {
		t.Errorf("expected ErrNoSuchIndex, got %v", err)
	}
}

func TestDefsCodecRoundTrip(t *testing.T) {
	w := newVehicleWorld(t)
	w.mgr.Create("a", w.vehicle.ID, []model.AttrID{w.weight}, true)
	w.mgr.Create("b", w.vehicle.ID, []model.AttrID{w.manufacturer, w.location}, false)
	defs, err := DecodeDefs(EncodeDefs(w.mgr))
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != 2 {
		t.Fatalf("decoded %d defs", len(defs))
	}
	if defs[0].Name != "a" || !defs[0].Hierarchy || len(defs[0].Path) != 1 {
		t.Errorf("def a = %+v", defs[0])
	}
	if defs[1].Name != "b" || defs[1].Hierarchy || len(defs[1].Path) != 2 {
		t.Errorf("def b = %+v", defs[1])
	}
	if _, err := DecodeDefs([]byte{0x05, 0x01}); err == nil {
		t.Error("corrupt defs accepted")
	}
}

func TestThreeLevelNestedIndex(t *testing.T) {
	// Vehicle.manufacturer -> Company.division -> Division.city
	cat := schema.NewCatalog()
	division, _ := cat.DefineClass("Division", nil,
		schema.AttrSpec{Name: "city", Domain: schema.ClassString})
	company, _ := cat.DefineClass("Company", nil,
		schema.AttrSpec{Name: "division", Domain: division.ID})
	vehicle, _ := cat.DefineClass("Vehicle", nil,
		schema.AttrSpec{Name: "manufacturer", Domain: company.ID})
	city, _ := cat.ResolveAttr(division.ID, "city")
	div, _ := cat.ResolveAttr(company.ID, "division")
	man, _ := cat.ResolveAttr(vehicle.ID, "manufacturer")

	store := newFakeStore()
	mgr := NewManager(cat, store.fetch)
	idx, _ := mgr.Create("deep", vehicle.ID, []model.AttrID{man.ID, div.ID, city.ID}, true)

	d := model.NewObject(model.MakeOID(division.ID, 1))
	d.Set(city.ID, model.String("Austin"))
	store.put(t, mgr, d)
	c := model.NewObject(model.MakeOID(company.ID, 1))
	c.Set(div.ID, model.Ref(d.OID))
	store.put(t, mgr, c)
	v := model.NewObject(model.MakeOID(vehicle.ID, 1))
	v.Set(man.ID, model.Ref(c.OID))
	store.put(t, mgr, v)

	if got := idx.Lookup(model.String("Austin"), nil); len(got) != 1 || got[0] != v.OID {
		t.Fatalf("deep lookup = %v", got)
	}
	// Update at depth 2 (the division moves).
	d2 := d.Clone()
	d2.Set(city.ID, model.String("Dallas"))
	store.put(t, mgr, d2)
	if got := idx.Lookup(model.String("Dallas"), nil); len(got) != 1 {
		t.Fatalf("deep interior update lost: %v", got)
	}
	// Update at depth 1 (the company changes division).
	d3 := model.NewObject(model.MakeOID(division.ID, 2))
	d3.Set(city.ID, model.String("Houston"))
	store.put(t, mgr, d3)
	c2 := c.Clone()
	c2.Set(div.ID, model.Ref(d3.OID))
	store.put(t, mgr, c2)
	if got := idx.Lookup(model.String("Houston"), nil); len(got) != 1 {
		t.Fatalf("mid-path retarget lost: %v", got)
	}
	if got := idx.Lookup(model.String("Dallas"), nil); got != nil {
		t.Fatalf("stale mid-path key: %v", got)
	}
}

// indexState is everything an index keeps, in a form two indexes built by
// different histories can be compared in.
type indexState struct {
	Postings map[string][]model.OID            // key → OIDs
	HeadKeys map[model.OID][]string            // head → its keys, sorted
	Rev      []map[model.OID][]model.OID       // position → interior OID → heads, sorted
	Chains   map[model.OID]map[int][]model.OID // head → position → interior OIDs, sorted, deduplicated
	Unkeyed  map[model.ClassID]int
}

func stateOf(idx *Index) indexState {
	st := indexState{Postings: map[string][]model.OID{}, HeadKeys: map[model.OID][]string{},
		Chains: map[model.OID]map[int][]model.OID{}, Unkeyed: map[model.ClassID]int{}}
	idx.tree.Range(nil, nil, true, true, func(key []byte, posts []model.OID) bool {
		st.Postings[string(key)] = slices.Clone(posts)
		return true
	})
	for head, keys := range idx.headKeys {
		ks := []string{}
		for _, k := range keys {
			ks = append(ks, string(k))
		}
		slices.Sort(ks)
		st.HeadKeys[head] = ks
	}
	for i, m := range idx.rev {
		st.Rev = append(st.Rev, map[model.OID][]model.OID{})
		for oid, heads := range m {
			var hs []model.OID
			for h := range heads {
				hs = append(hs, h)
			}
			slices.Sort(hs)
			st.Rev[i][oid] = hs
		}
	}
	for head, chain := range idx.headChain {
		st.Chains[head] = map[int][]model.OID{}
		for i, oids := range chain {
			if len(oids) > 0 {
				oids = slices.Clone(oids)
				slices.Sort(oids)
				st.Chains[head][i] = slices.Compact(oids)
			}
		}
	}
	maps.Copy(st.Unkeyed, idx.unkeyed)
	return st
}

// TestIndexBookkeepingMatchesRebuild churns a one-step and a nested index —
// head inserts, updates and deletes, interior updates and deletes, and an
// aborted batch undone in reverse — and holds the tree, headKeys, the
// reverse maps, the per-head chains and the unkeyed counts to a manager
// built from scratch over the final objects.
func TestIndexBookkeepingMatchesRebuild(t *testing.T) {
	w := newVehicleWorld(t)
	weight, _ := w.mgr.Create("vw", w.vehicle.ID, []model.AttrID{w.weight}, true)
	nested, _ := w.mgr.Create("vml", w.vehicle.ID, []model.AttrID{w.manufacturer, w.location}, true)
	r := rand.New(rand.NewSource(35))
	var companies, vehicles []model.OID
	seq := uint64(0)
	live := func(oids []model.OID) []model.OID {
		var out []model.OID
		for _, oid := range oids {
			if w.store.objs[oid] != nil {
				out = append(out, oid)
			}
		}
		return out
	}
	vehicle := func(oid model.OID) *model.Object {
		o := model.NewObject(oid)
		if r.Intn(5) > 0 {
			o.Set(w.weight, model.Int(int64(r.Intn(8))))
		}
		if cs := live(companies); len(cs) > 0 && r.Intn(6) > 0 {
			o.Set(w.manufacturer, model.Ref(cs[r.Intn(len(cs))]))
		}
		return o
	}
	// step makes one random write and returns its undo: the object's prior
	// state, nil for an insert.
	step := func() (model.OID, *model.Object) {
		seq++
		switch op := r.Intn(10); {
		case op < 2 || len(companies) == 0:
			oid := model.MakeOID(w.company.ID, seq)
			companies = append(companies, oid)
			w.store.put(t, w.mgr, w.newCompany(seq, fmt.Sprint("City", r.Intn(4))))
			return oid, nil
		case op < 5 || len(vehicles) == 0:
			classes := []model.ClassID{w.vehicle.ID, w.auto.ID, w.truck.ID}
			oid := model.MakeOID(classes[r.Intn(3)], seq)
			vehicles = append(vehicles, oid)
			w.store.put(t, w.mgr, vehicle(oid))
			return oid, nil
		case op < 7: // head update
			oid := vehicles[r.Intn(len(vehicles))]
			old := w.store.objs[oid]
			if old == nil {
				return oid, nil
			}
			w.store.put(t, w.mgr, vehicle(oid))
			return oid, old
		case op < 8: // head delete
			oid := vehicles[r.Intn(len(vehicles))]
			old := w.store.objs[oid]
			w.store.del(t, w.mgr, oid)
			return oid, old
		case op < 9: // interior update
			oid := companies[r.Intn(len(companies))]
			old := w.store.objs[oid]
			if old == nil {
				return oid, nil
			}
			next := old.Clone()
			if r.Intn(4) == 0 {
				next.Set(w.location, model.Null)
			} else {
				next.Set(w.location, model.String(fmt.Sprint("City", r.Intn(4))))
			}
			w.store.put(t, w.mgr, next)
			return oid, old
		default: // interior delete
			oid := companies[r.Intn(len(companies))]
			old := w.store.objs[oid]
			w.store.del(t, w.mgr, oid)
			return oid, old
		}
	}
	for i := 0; i < 400; i++ {
		step()
	}
	// An aborted batch: its writes undone newest first, as Tx.Abort does.
	type undo struct {
		oid model.OID
		old *model.Object
	}
	var log []undo
	for i := 0; i < 60; i++ {
		oid, old := step()
		log = append(log, undo{oid, old})
	}
	for i := len(log) - 1; i >= 0; i-- {
		if u := log[i]; u.old == nil {
			w.store.del(t, w.mgr, u.oid)
		} else {
			w.store.put(t, w.mgr, u.old)
		}
	}
	for i := 0; i < 200; i++ {
		step()
	}

	fresh := NewManager(w.cat, w.store.fetch)
	for _, idx := range []*Index{weight, nested} {
		rebuilt, _ := fresh.Create(idx.Name, idx.Class, idx.Path, idx.Hierarchy)
		for _, o := range w.store.objs {
			if err := fresh.Populate(rebuilt, o); err != nil {
				t.Fatal(err)
			}
		}
		got, want := stateOf(idx), stateOf(rebuilt)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s after churn differs from a rebuild:\n got %+v\nwant %+v", idx.Name, got, want)
		}
		if len(want.HeadKeys) == 0 || len(want.Postings) == 0 {
			t.Fatalf("%s: the churn left nothing indexed", idx.Name)
		}
	}
	if len(stateOf(weight).Unkeyed) == 0 || len(stateOf(nested).Rev[1]) == 0 {
		t.Fatal("the churn left no unkeyed head or no reverse entry to compare")
	}
}
