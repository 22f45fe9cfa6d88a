package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"oodb/internal/model"
	"oodb/internal/schema"
)

func TestSchemaSnapshotAndDiff(t *testing.T) {
	td := openVehicleDB(t)
	if _, err := td.SnapshotSchema("v1"); err != nil {
		t.Fatal(err)
	}
	// Evolve: add an attribute, add a class, drop an attribute.
	if _, err := td.AddAttribute(td.vehicle.ID, schema.AttrSpec{
		Name: "color", Domain: schema.ClassString}); err != nil {
		t.Fatal(err)
	}
	if _, err := td.DefineClass("Motorcycle", []model.ClassID{td.vehicle.ID}); err != nil {
		t.Fatal(err)
	}
	if err := td.DropAttribute(td.truck.ID, "payload"); err != nil {
		t.Fatal(err)
	}

	diff, err := td.DiffSchema("v1")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"+ class Motorcycle":      false,
		"+ attr Vehicle.color":    false,
		"+ attr Truck.color":      false,
		"- attr Truck.payload":    false,
		"+ attr Automobile.color": false,
	}
	for _, line := range diff {
		if _, ok := want[line]; ok {
			want[line] = true
		}
	}
	for line, seen := range want {
		if !seen {
			t.Errorf("diff missing %q (got %v)", line, diff)
		}
	}

	// The old catalog is inspectable: payload existed, color did not.
	old, err := td.CatalogAt("v1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.ResolveAttr(td.truck.ID, "payload"); err != nil {
		t.Error("snapshot lost Truck.payload")
	}
	if _, err := old.ResolveAttr(td.vehicle.ID, "color"); err == nil {
		t.Error("snapshot sees future attribute")
	}
}

func TestSchemaSnapshotsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir, Options{})
	db.DefineClass("P", nil, schema.AttrSpec{Name: "n", Domain: schema.ClassInteger})
	if _, err := db.SnapshotSchema("before"); err != nil {
		t.Fatal(err)
	}
	db.DropAttribute(mustClass(t, db, "P"), "n")
	db.Close()

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	vs, err := db2.SchemaVersions()
	if err != nil || len(vs) != 1 || vs[0].Label != "before" {
		t.Fatalf("versions = %v, %v", vs, err)
	}
	old, err := db2.CatalogAt("before")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.ResolveAttr(mustClass(t, db2, "P"), "n"); err != nil {
		t.Error("snapshot lost P.n across reopen")
	}
	diff, _ := db2.DiffSchema("before")
	found := false
	for _, line := range diff {
		if line == "- attr P.n" {
			found = true
		}
	}
	if !found {
		t.Errorf("diff = %v", diff)
	}
}

func TestSnapshotErrors(t *testing.T) {
	td := openVehicleDB(t)
	if _, err := td.CatalogAt("nope"); !errors.Is(err, ErrNoSuchSnapshot) {
		t.Fatalf("expected ErrNoSuchSnapshot, got %v", err)
	}
	if _, err := td.SnapshotSchema("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := td.SnapshotSchema("x"); err == nil {
		t.Fatal("duplicate label accepted")
	}
	vs, _ := td.SchemaVersions()
	if len(vs) != 1 {
		t.Fatalf("versions = %v", vs)
	}
}

func mustClass(t *testing.T, db *DB, name string) model.ClassID {
	t.Helper()
	cl, err := db.Catalog.ClassByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return cl.ID
}

// SchemaVersions and CatalogAt read the committed snapshots: beside an
// open transaction that inserts a snapshot record, rewrites one and
// deletes another, and again after it aborts.
func TestSchemaVersionsBesideUncommittedSnapshots(t *testing.T) {
	td := openVehicleDB(t)
	for _, label := range []string{"v1", "v2"} {
		if _, err := td.SnapshotSchema(label); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := td.SchemaVersions()
	if err != nil || len(committed) != 2 {
		t.Fatalf("versions = %v, %v", committed, err)
	}
	tx := td.Begin()
	defer tx.Abort()
	if _, err := tx.InsertClass(mustClass(t, td.DB, schemaVersionClassName), map[string]model.Value{
		"label": model.String("ghost"), "version": model.Int(1),
		"image": model.Bytes(schema.EncodeCatalog(td.Catalog)),
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(committed[0].OID, map[string]model.Value{"label": model.String("v1x")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(committed[1].OID); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		got, err := td.SchemaVersions()
		if err != nil || len(got) != 2 || got[0] != committed[0] || got[1] != committed[1] {
			t.Fatalf("%s: versions = %v, %v; want %v", when, got, err, committed)
		}
		for _, label := range []string{"v1", "v2"} {
			if _, err := td.CatalogAt(label); err != nil {
				t.Fatalf("%s: CatalogAt(%q): %v", when, label, err)
			}
		}
		for _, label := range []string{"ghost", "v1x"} {
			if _, err := td.CatalogAt(label); !errors.Is(err, ErrNoSuchSnapshot) {
				t.Fatalf("%s: CatalogAt(%q) = %v, want ErrNoSuchSnapshot", when, label, err)
			}
		}
	}
	check("beside the open transaction")
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	check("after its abort")
}

// SnapshotSchema checks its label and inserts it under one lock, so of
// eight concurrent snapshots under one label exactly one is stored.
func TestConcurrentSnapshotsStoreALabelOnce(t *testing.T) {
	td := openVehicleDB(t)
	const labels, callers = 50, 8
	for l := 0; l < labels; l++ {
		label := fmt.Sprintf("l%d", l)
		var errs [callers]error
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, errs[i] = td.SnapshotSchema(label)
			}()
		}
		close(start)
		wg.Wait()
		stored := 0
		for _, err := range errs {
			switch {
			case err == nil:
				stored++
			case !strings.Contains(err.Error(), "already exists"):
				t.Fatalf("%s: %v", label, err)
			}
		}
		if stored != 1 {
			t.Fatalf("%s: %d snapshots stored, want one", label, stored)
		}
	}
	vs, err := td.SchemaVersions()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, v := range vs {
		seen[v.Label]++
	}
	if len(vs) != labels || len(seen) != labels {
		t.Fatalf("%d snapshots under %d labels, want %d of each", len(vs), len(seen), labels)
	}
}
