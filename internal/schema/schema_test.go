package schema

import (
	"errors"
	"slices"
	"testing"

	"oodb/internal/model"
)

// buildVehicleSchema constructs the paper's Figure 1 schema: Vehicle with
// subclasses Automobile and Truck (Automobile specialized further), and
// Company with subclasses AutoCompany/TruckCompany, AutoCompany specialized
// to JapaneseAutoCompany; Vehicle.manufacturer has domain Company.
func buildVehicleSchema(t testing.TB) (*Catalog, map[string]*Class) {
	t.Helper()
	c := NewCatalog()
	classes := map[string]*Class{}
	mustDefine := func(name string, supers []model.ClassID, attrs ...AttrSpec) *Class {
		cl, err := c.DefineClass(name, supers, attrs...)
		if err != nil {
			t.Fatalf("DefineClass(%s): %v", name, err)
		}
		classes[name] = cl
		return cl
	}
	company := mustDefine("Company", nil,
		AttrSpec{Name: "name", Domain: ClassString},
		AttrSpec{Name: "location", Domain: ClassString},
	)
	mustDefine("AutoCompany", []model.ClassID{company.ID})
	mustDefine("TruckCompany", []model.ClassID{company.ID})
	mustDefine("JapaneseAutoCompany", []model.ClassID{classes["AutoCompany"].ID})
	vehicle := mustDefine("Vehicle", nil,
		AttrSpec{Name: "weight", Domain: ClassInteger},
		AttrSpec{Name: "manufacturer", Domain: company.ID},
	)
	mustDefine("Automobile", []model.ClassID{vehicle.ID},
		AttrSpec{Name: "drivetrain", Domain: ClassString})
	mustDefine("Truck", []model.ClassID{vehicle.ID},
		AttrSpec{Name: "payload", Domain: ClassInteger})
	mustDefine("DomesticAutomobile", []model.ClassID{classes["Automobile"].ID})
	return c, classes
}

func TestPrimitivesInstalled(t *testing.T) {
	c := NewCatalog()
	for _, name := range []string{"Object", "Integer", "Float", "Boolean", "String", "Bytes"} {
		if _, err := c.ClassByName(name); err != nil {
			t.Errorf("primitive %s missing: %v", name, err)
		}
	}
	obj, _ := c.Class(ClassObject)
	if len(obj.Supers) != 0 {
		t.Error("Object must be the root")
	}
	if !c.IsSubclassOf(ClassInteger, ClassObject) {
		t.Error("Integer should be a subclass of Object")
	}
}

func TestDefineClassAndInheritance(t *testing.T) {
	c, classes := buildVehicleSchema(t)
	auto := classes["Automobile"]

	// Automobile inherits weight and manufacturer from Vehicle.
	for _, name := range []string{"weight", "manufacturer", "drivetrain"} {
		if _, err := c.ResolveAttr(auto.ID, name); err != nil {
			t.Errorf("Automobile.%s: %v", name, err)
		}
	}
	// The inherited attribute keeps its defining class's AttrID.
	w1, _ := c.ResolveAttr(classes["Vehicle"].ID, "weight")
	w2, _ := c.ResolveAttr(auto.ID, "weight")
	if w1.ID != w2.ID {
		t.Error("inherited attribute should share the defining AttrID")
	}
	// Vehicle does not see drivetrain.
	if _, err := c.ResolveAttr(classes["Vehicle"].ID, "drivetrain"); err == nil {
		t.Error("Vehicle should not inherit downward")
	}
}

func TestIsSubclassOfAndDescendants(t *testing.T) {
	c, classes := buildVehicleSchema(t)
	if !c.IsSubclassOf(classes["DomesticAutomobile"].ID, classes["Vehicle"].ID) {
		t.Error("DomesticAutomobile should be a (transitive) subclass of Vehicle")
	}
	if c.IsSubclassOf(classes["Vehicle"].ID, classes["Automobile"].ID) {
		t.Error("Vehicle is not a subclass of Automobile")
	}
	desc, err := c.Descendants(classes["Vehicle"].ID)
	if err != nil {
		t.Fatal(err)
	}
	want := map[model.ClassID]bool{
		classes["Vehicle"].ID: true, classes["Automobile"].ID: true,
		classes["Truck"].ID: true, classes["DomesticAutomobile"].ID: true,
	}
	if len(desc) != len(want) {
		t.Fatalf("Descendants = %v", desc)
	}
	for _, id := range desc {
		if !want[id] {
			t.Errorf("unexpected descendant %d", id)
		}
	}
}

func TestMultipleInheritanceConflictResolution(t *testing.T) {
	c := NewCatalog()
	a, _ := c.DefineClass("A", nil, AttrSpec{Name: "x", Domain: ClassInteger, Default: model.Int(1)})
	b, _ := c.DefineClass("B", nil, AttrSpec{Name: "x", Domain: ClassInteger, Default: model.Int(2)})
	// AB lists A before B: A.x must win (ORION leftmost-superclass rule).
	ab, err := c.DefineClass("AB", []model.ClassID{a.ID, b.ID})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ResolveAttr(ab.ID, "x")
	if err != nil {
		t.Fatal(err)
	}
	if got.Source != a.ID {
		t.Errorf("conflict resolved to class %d, want %d (leftmost)", got.Source, a.ID)
	}
	// BA lists B first: B.x must win.
	ba, _ := c.DefineClass("BA", []model.ClassID{b.ID, a.ID})
	got, _ = c.ResolveAttr(ba.ID, "x")
	if got.Source != b.ID {
		t.Errorf("conflict resolved to class %d, want %d", got.Source, b.ID)
	}
}

func TestLocalOverrideBeatsInherited(t *testing.T) {
	c := NewCatalog()
	a, _ := c.DefineClass("Base", nil, AttrSpec{Name: "x", Domain: ClassInteger})
	sub, _ := c.DefineClass("Sub", []model.ClassID{a.ID}, AttrSpec{Name: "x", Domain: ClassString})
	got, err := c.ResolveAttr(sub.ID, "x")
	if err != nil {
		t.Fatal(err)
	}
	if got.Source != sub.ID || got.Domain != ClassString {
		t.Error("local redefinition should shadow the inherited attribute")
	}
	// The base class is unaffected.
	base, _ := c.ResolveAttr(a.ID, "x")
	if base.Domain != ClassInteger {
		t.Error("base attribute mutated by subclass override")
	}
}

// TestBindPath binds name paths over scopes where a subclass redefines a
// step, at the head and behind a reference, and where a step is no
// attribute; the reads it lists must name every class a step is read at.
func TestBindPath(t *testing.T) {
	c := NewCatalog()
	co, _ := c.DefineClass("Co", nil, AttrSpec{Name: "loc", Domain: ClassString})
	subCo, _ := c.DefineClass("SubCo", []model.ClassID{co.ID}, AttrSpec{Name: "loc", Domain: ClassString})
	a, _ := c.DefineClass("A", nil, AttrSpec{Name: "x", Domain: ClassInteger}, AttrSpec{Name: "m", Domain: co.ID},
		AttrSpec{Name: "any", Domain: ClassObject})
	b, _ := c.DefineClass("B", []model.ClassID{a.ID})
	e, _ := c.DefineClass("E", []model.ClassID{a.ID}, AttrSpec{Name: "x", Domain: ClassInteger, Default: model.Int(3)})
	attr := func(class *Class, name string) model.AttrID {
		at, err := c.ResolveAttr(class.ID, name)
		if err != nil {
			t.Fatal(err)
		}
		return at.ID
	}
	x, ex, m, loc := attr(a, "x"), attr(e, "x"), attr(a, "m"), attr(co, "loc")

	bd, err := c.BindPath([]model.ClassID{a.ID, b.ID}, []string{"x"}, nil)
	if err != nil || !bd.Uniform || !bd.Single || !slices.Equal(bd.Classes[1].Attrs, []model.AttrID{x}) {
		t.Fatalf("A, B x: %+v, %v; want uniform on A.x", bd, err)
	}
	bd, err = c.BindPath([]model.ClassID{a.ID, b.ID, e.ID}, []string{"x"}, nil)
	if err != nil || bd.Uniform || !slices.Equal(bd.Classes[2].Attrs, []model.AttrID{ex}) ||
		!bd.Classes[2].Exact || model.Compare(bd.Classes[2].Def, model.Int(3)) != 0 {
		t.Fatalf("A, B, E x: %+v, %v; want E on its own x, defaulting to 3", bd, err)
	}
	var reads []AttrRead
	bd, err = c.BindPath([]model.ClassID{a.ID, b.ID}, []string{"m", "loc"}, &reads)
	wantReads := []AttrRead{{a.ID, "m"}, {co.ID, "loc"}, {subCo.ID, "loc"}, {b.ID, "m"}}
	if err != nil || bd.Uniform || bd.Classes[0].Exact || !slices.Equal(bd.Classes[0].Attrs, []model.AttrID{m, loc}) {
		t.Fatalf("A, B m.loc: %+v, %v; want Co's ids, not exact (SubCo redefines loc)", bd, err)
	}
	if !slices.Equal(reads, wantReads) {
		t.Fatalf("A, B m.loc reads %v, want %v", reads, wantReads)
	}
	reads = nil
	bd, err = c.BindPath([]model.ClassID{a.ID}, []string{"any", "loc"}, &reads)
	if err == nil || bd.Classes[0].Attrs != nil || !slices.Contains(reads, AttrRead{subCo.ID, "loc"}) {
		t.Fatalf("A any.loc: %+v, %v; want a primitive-domain error and reads behind the Object reference", bd, err)
	}
	if _, err := c.BindPath([]model.ClassID{a.ID}, []string{"x", "loc"}, nil); err == nil {
		t.Fatal("a step past an Integer bound")
	}
	if _, err := c.BindPath([]model.ClassID{a.ID}, []string{"nosuch"}, nil); !errors.Is(err, ErrNoSuchAttribute) {
		t.Fatalf("unknown step: %v, want ErrNoSuchAttribute", err)
	}
}

func TestLateBindingMethodResolution(t *testing.T) {
	c := NewCatalog()
	shape, _ := c.DefineClass("Shape", nil)
	tri, _ := c.DefineClass("Triangle", []model.ClassID{shape.ID})
	displayed := ""
	if _, err := c.AddMethod(shape.ID, "display", func(MethodEngine, *model.Object, []model.Value) (model.Value, error) {
		displayed = "shape"
		return model.Null, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Triangle has no display of its own; resolution walks up (late binding).
	m, err := c.ResolveMethod(tri.ID, "display")
	if err != nil {
		t.Fatal(err)
	}
	if m.Source != shape.ID {
		t.Errorf("resolved on class %d, want %d", m.Source, shape.ID)
	}
	if _, err := m.Impl(nil, nil, nil); err != nil || displayed != "shape" {
		t.Error("inherited method body did not run")
	}
	// Override on Triangle shadows it.
	if _, err := c.AddMethod(tri.ID, "display", func(MethodEngine, *model.Object, []model.Value) (model.Value, error) {
		displayed = "triangle"
		return model.Null, nil
	}); err != nil {
		t.Fatal(err)
	}
	m, _ = c.ResolveMethod(tri.ID, "display")
	if m.Source != tri.ID {
		t.Error("local method should shadow inherited")
	}
}

func TestCycleRejected(t *testing.T) {
	c := NewCatalog()
	a, _ := c.DefineClass("A", nil)
	b, _ := c.DefineClass("B", []model.ClassID{a.ID})
	d, _ := c.DefineClass("C", []model.ClassID{b.ID})
	if _, err := c.AddSuperclass(a.ID, d.ID); !errors.Is(err, ErrCycle) {
		t.Errorf("expected ErrCycle, got %v", err)
	}
	if _, err := c.AddSuperclass(a.ID, a.ID); !errors.Is(err, ErrCycle) {
		t.Errorf("self edge: expected ErrCycle, got %v", err)
	}
}

func TestAddDropAttributeEvolution(t *testing.T) {
	c, classes := buildVehicleSchema(t)
	veh := classes["Vehicle"]
	attr, change, err := c.AddAttribute(veh.ID, AttrSpec{Name: "color", Domain: ClassString, Default: model.String("white")})
	if err != nil {
		t.Fatal(err)
	}
	if change.Kind != ChangeAddAttribute {
		t.Error("wrong change kind")
	}
	// Affected must include Vehicle and all descendants.
	if len(change.Affected) != 4 {
		t.Errorf("Affected = %v", change.Affected)
	}
	// Subclasses see the new attribute immediately.
	got, err := c.ResolveAttr(classes["Truck"].ID, "color")
	if err != nil || got.ID != attr.ID {
		t.Errorf("Truck.color: %v", err)
	}
	// Default value is the lazy-fill contract.
	if s, _ := got.Default.AsString(); s != "white" {
		t.Error("default not carried")
	}

	if _, err := c.DropAttribute(veh.ID, "color"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ResolveAttr(classes["Truck"].ID, "color"); err == nil {
		t.Error("dropped attribute still resolvable")
	}
	// Dropping an inherited attribute from the subclass is rejected.
	if _, err := c.DropAttribute(classes["Truck"].ID, "weight"); err == nil {
		t.Error("dropping inherited attribute should fail")
	}
}

func TestRenameAttribute(t *testing.T) {
	c, classes := buildVehicleSchema(t)
	veh := classes["Vehicle"]
	before, _ := c.ResolveAttr(veh.ID, "weight")
	if _, err := c.RenameAttribute(veh.ID, "weight", "grossWeight"); err != nil {
		t.Fatal(err)
	}
	after, err := c.ResolveAttr(veh.ID, "grossWeight")
	if err != nil {
		t.Fatal(err)
	}
	if after.ID != before.ID {
		t.Error("rename must preserve AttrID (stored instances key by it)")
	}
	if _, err := c.ResolveAttr(classes["Truck"].ID, "grossWeight"); err != nil {
		t.Error("rename not visible in subclass")
	}
}

func TestDropClassRelinksSubclasses(t *testing.T) {
	c := NewCatalog()
	a, _ := c.DefineClass("A", nil, AttrSpec{Name: "x", Domain: ClassInteger})
	b, _ := c.DefineClass("B", []model.ClassID{a.ID}, AttrSpec{Name: "y", Domain: ClassInteger})
	d, _ := c.DefineClass("D", []model.ClassID{b.ID})
	if _, err := c.DropClass(b.ID); err != nil {
		t.Fatal(err)
	}
	// D now inherits directly from A (Banerjee re-linking).
	if !c.IsSubclassOf(d.ID, a.ID) {
		t.Error("D should be re-linked under A")
	}
	if _, err := c.ResolveAttr(d.ID, "x"); err != nil {
		t.Error("D should still inherit A.x")
	}
	// B's own attribute is gone.
	if _, err := c.ResolveAttr(d.ID, "y"); err == nil {
		t.Error("dropped class's attribute should vanish from descendants")
	}
}

func TestDropSuperclassKeepsRoot(t *testing.T) {
	c := NewCatalog()
	a, _ := c.DefineClass("A", nil)
	b, _ := c.DefineClass("B", nil)
	ab, _ := c.DefineClass("AB", []model.ClassID{a.ID, b.ID})
	if _, err := c.DropSuperclass(ab.ID, a.ID); err != nil {
		t.Fatal(err)
	}
	if c.IsSubclassOf(ab.ID, a.ID) {
		t.Error("edge not dropped")
	}
	if _, err := c.DropSuperclass(ab.ID, b.ID); !errors.Is(err, ErrLastSuperclass) {
		t.Errorf("expected ErrLastSuperclass, got %v", err)
	}
}

func TestPrimitiveClassesImmutable(t *testing.T) {
	c := NewCatalog()
	if _, _, err := c.AddAttribute(ClassInteger, AttrSpec{Name: "x", Domain: ClassInteger}); !errors.Is(err, ErrPrimitive) {
		t.Errorf("expected ErrPrimitive, got %v", err)
	}
	if _, err := c.DropClass(ClassString); !errors.Is(err, ErrPrimitive) {
		t.Errorf("expected ErrPrimitive, got %v", err)
	}
}

func TestSchemaVersionBumps(t *testing.T) {
	c := NewCatalog()
	v0 := c.Version()
	a, _ := c.DefineClass("A", nil)
	if c.Version() <= v0 {
		t.Error("DefineClass should bump version")
	}
	v1 := c.Version()
	if _, _, err := c.AddAttribute(a.ID, AttrSpec{Name: "x", Domain: ClassInteger}); err != nil {
		t.Fatal(err)
	}
	if c.Version() <= v1 {
		t.Error("AddAttribute should bump version")
	}
}

func TestDuplicateClassAndAttr(t *testing.T) {
	c := NewCatalog()
	a, _ := c.DefineClass("A", nil, AttrSpec{Name: "x", Domain: ClassInteger})
	if _, err := c.DefineClass("A", nil); !errors.Is(err, ErrClassExists) {
		t.Errorf("expected ErrClassExists, got %v", err)
	}
	if _, _, err := c.AddAttribute(a.ID, AttrSpec{Name: "x", Domain: ClassInteger}); !errors.Is(err, ErrAttrExists) {
		t.Errorf("expected ErrAttrExists, got %v", err)
	}
}

func TestRecursiveDomain(t *testing.T) {
	// "The domain of an attribute of a class C may be the class C" (model 4).
	c := NewCatalog()
	cl, err := c.DefineClass("Employee", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.AddAttribute(cl.ID, AttrSpec{Name: "manager", Domain: cl.ID}); err != nil {
		t.Fatal(err)
	}
	a, _ := c.ResolveAttr(cl.ID, "manager")
	if a.Domain != cl.ID {
		t.Error("recursive domain lost")
	}
}

func TestCatalogCodecRoundTrip(t *testing.T) {
	c, classes := buildVehicleSchema(t)
	if _, err := c.AddMethod(classes["Vehicle"].ID, "describe", nil); err != nil {
		t.Fatal(err)
	}
	enc := EncodeCatalog(c)
	got, err := DecodeCatalog(enc)
	if err != nil {
		t.Fatal(err)
	}
	// Same classes by name, same hierarchy, same attribute ids.
	for name, cl := range classes {
		g, err := got.ClassByName(name)
		if err != nil {
			t.Fatalf("decoded catalog missing %s", name)
		}
		if g.ID != cl.ID {
			t.Errorf("%s: id %d != %d", name, g.ID, cl.ID)
		}
	}
	if !got.IsSubclassOf(classes["DomesticAutomobile"].ID, classes["Vehicle"].ID) {
		t.Error("hierarchy lost in round trip")
	}
	a1, _ := c.ResolveAttr(classes["Automobile"].ID, "weight")
	a2, err := got.ResolveAttr(classes["Automobile"].ID, "weight")
	if err != nil || a1.ID != a2.ID {
		t.Error("attribute ids lost in round trip")
	}
	// Method signature survives, implementation does not.
	m, err := got.ResolveMethod(classes["Truck"].ID, "describe")
	if err != nil {
		t.Fatal(err)
	}
	if m.Impl != nil {
		t.Error("method impl should not be persisted")
	}
	// Fresh ids continue after the old high-water marks.
	nc, err := got.DefineClass("New", nil, AttrSpec{Name: "n", Domain: ClassInteger})
	if err != nil {
		t.Fatal(err)
	}
	if nc.ID <= classes["DomesticAutomobile"].ID {
		t.Error("class id counter not restored")
	}
}

func TestCatalogCodecForwardSuperclassReference(t *testing.T) {
	c := NewCatalog()
	a, _ := c.DefineClass("A", nil)
	b, _ := c.DefineClass("B", nil) // higher id than A
	if _, err := c.AddSuperclass(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCatalog(EncodeCatalog(c))
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsSubclassOf(a.ID, b.ID) {
		t.Error("forward superclass edge lost")
	}
}

func TestDecodeCatalogCorrupt(t *testing.T) {
	c, _ := buildVehicleSchema(t)
	enc := EncodeCatalog(c)
	if _, err := DecodeCatalog(enc[:3]); err == nil {
		t.Error("short magic accepted")
	}
	if _, err := DecodeCatalog(enc[:len(enc)/2]); err == nil {
		t.Error("truncated catalog accepted")
	}
}

func TestCheckValueDomains(t *testing.T) {
	c, classes := buildVehicleSchema(t)
	weight, _ := c.ResolveAttr(classes["Vehicle"].ID, "weight")
	manufacturer, _ := c.ResolveAttr(classes["Vehicle"].ID, "manufacturer")

	if err := c.CheckValue(weight, model.Int(7500)); err != nil {
		t.Errorf("int into Integer: %v", err)
	}
	if err := c.CheckValue(weight, model.String("heavy")); !errors.Is(err, ErrDomain) {
		t.Errorf("string into Integer: %v", err)
	}
	if err := c.CheckValue(weight, model.Null); err != nil {
		t.Errorf("null should be legal: %v", err)
	}

	// A JapaneseAutoCompany reference satisfies a Company domain
	// (generalization interpretation of domains).
	jac := model.MakeOID(classes["JapaneseAutoCompany"].ID, 1)
	if err := c.CheckValue(manufacturer, model.Ref(jac)); err != nil {
		t.Errorf("subclass instance into superclass domain: %v", err)
	}
	// A Vehicle reference does not.
	veh := model.MakeOID(classes["Vehicle"].ID, 1)
	if err := c.CheckValue(manufacturer, model.Ref(veh)); !errors.Is(err, ErrDomain) {
		t.Errorf("unrelated class into Company domain: %v", err)
	}
}

func TestCheckValueSetValued(t *testing.T) {
	c := NewCatalog()
	cl, _ := c.DefineClass("Doc", nil, AttrSpec{Name: "tags", Domain: ClassString, SetValued: true})
	tags, _ := c.ResolveAttr(cl.ID, "tags")
	if err := c.CheckValue(tags, model.Set(model.String("a"), model.String("b"))); err != nil {
		t.Errorf("legal set rejected: %v", err)
	}
	if err := c.CheckValue(tags, model.String("a")); !errors.Is(err, ErrDomain) {
		t.Error("scalar into set-valued attribute accepted")
	}
	if err := c.CheckValue(tags, model.Set(model.Int(1))); !errors.Is(err, ErrDomain) {
		t.Error("wrong member kind accepted")
	}
}

func TestCheckValueFloatWidening(t *testing.T) {
	c := NewCatalog()
	cl, _ := c.DefineClass("P", nil, AttrSpec{Name: "f", Domain: ClassFloat})
	f, _ := c.ResolveAttr(cl.ID, "f")
	if err := c.CheckValue(f, model.Int(3)); err != nil {
		t.Errorf("int should widen into Float domain: %v", err)
	}
}

func TestMRODeterministic(t *testing.T) {
	c := NewCatalog()
	a, _ := c.DefineClass("A", nil)
	b, _ := c.DefineClass("B", []model.ClassID{a.ID})
	d, _ := c.DefineClass("D", []model.ClassID{a.ID})
	e, _ := c.DefineClass("E", []model.ClassID{b.ID, d.ID})
	mro, err := c.MRO(e.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Leftmost preorder with first-visit dedup: E, B, A, Object, D.
	want := []model.ClassID{e.ID, b.ID, a.ID, ClassObject, d.ID}
	if len(mro) != len(want) {
		t.Fatalf("MRO = %v, want %v", mro, want)
	}
	for i := range want {
		if mro[i] != want[i] {
			t.Fatalf("MRO = %v, want %v", mro, want)
		}
	}
}
