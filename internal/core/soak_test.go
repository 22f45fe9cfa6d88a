package core

import (
	"math/rand"
	"testing"

	"oodb/internal/model"
	"oodb/internal/schema"
)

// TestCrashSoak runs several crash/recover rounds against a reference
// model: each round applies random committed transactions (recorded in the
// model only after Commit returns), leaves one transaction in flight, and
// "crashes" by abandoning the handle without Close. After every reopen the
// database must agree exactly with the model — committed work present,
// in-flight work gone.
func TestCrashSoak(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(31))
	expected := map[model.OID]int64{} // committed state

	var classID model.ClassID
	for round := 0; round < 6; round++ {
		db, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("round %d: open: %v", round, err)
		}
		if round == 0 {
			cl, err := db.DefineClass("S", nil,
				schema.AttrSpec{Name: "n", Domain: schema.ClassInteger})
			if err != nil {
				t.Fatal(err)
			}
			classID = cl.ID
		}

		// Verify the database matches the model exactly.
		if got := db.Store.Count(classID); got != len(expected) {
			t.Fatalf("round %d: %d objects stored, model has %d", round, got, len(expected))
		}
		for oid, want := range expected {
			obj, err := db.Fetch(oid)
			if err != nil {
				t.Fatalf("round %d: committed object %v missing: %v", round, oid, err)
			}
			v, _ := db.AttrValue(obj, "n")
			if n, _ := v.AsInt(); n != want {
				t.Fatalf("round %d: %v = %d, want %d", round, oid, n, want)
			}
		}

		// Random committed transactions.
		oids := make([]model.OID, 0, len(expected))
		for oid := range expected {
			oids = append(oids, oid)
		}
		for txi := 0; txi < 15; txi++ {
			// Stage the ops; apply to the model only after commit.
			staged := map[model.OID]int64{}
			deleted := map[model.OID]bool{}
			tx := db.Begin()
			ok := true
			for op := 0; op < 1+r.Intn(5); op++ {
				switch {
				case len(oids) == 0 || r.Intn(3) == 0:
					oid, err := tx.InsertClass(classID, map[string]model.Value{
						"n": model.Int(int64(r.Intn(1000)))})
					if err != nil {
						ok = false
						break
					}
					obj, _ := tx.Read(oid)
					v, _ := db.AttrValue(obj, "n")
					n, _ := v.AsInt()
					staged[oid] = n
					oids = append(oids, oid)
				case r.Intn(4) == 0:
					victim := oids[r.Intn(len(oids))]
					if deleted[victim] {
						continue
					}
					if err := tx.Delete(victim); err != nil {
						ok = false
						break
					}
					deleted[victim] = true
					delete(staged, victim)
				default:
					target := oids[r.Intn(len(oids))]
					if deleted[target] {
						continue
					}
					n := int64(r.Intn(1000))
					if err := tx.Update(target, map[string]model.Value{"n": model.Int(n)}); err != nil {
						ok = false
						break
					}
					staged[target] = n
				}
			}
			if !ok || r.Intn(5) == 0 {
				tx.Abort() // some transactions abort on purpose
				// Remove aborted inserts from the working oid list.
				live := oids[:0]
				for _, o := range oids {
					if _, stagedInsert := staged[o]; stagedInsert && !db.Store.Exists(o) {
						continue
					}
					live = append(live, o)
				}
				oids = live
				continue
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("round %d: commit: %v", round, err)
			}
			for oid, n := range staged {
				expected[oid] = n
			}
			for oid := range deleted {
				delete(expected, oid)
			}
		}

		// Leave one transaction in flight, touching committed objects.
		if len(oids) > 0 {
			hang := db.Begin()
			for i := 0; i < 3 && i < len(oids); i++ {
				target := oids[r.Intn(len(oids))]
				if _, exists := expected[target]; !exists {
					continue
				}
				hang.Update(target, map[string]model.Value{"n": model.Int(-999)})
			}
			// Occasionally flush dirty pages so the in-flight state hits
			// disk (the hard case for recovery).
			if r.Intn(2) == 0 {
				db.Store.Pool().FlushAll()
			}
		}
		db.Log.Sync()
		// Crash: abandon the handle.
	}

	// Final clean open and verify.
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.Store.Count(classID); got != len(expected) {
		t.Fatalf("final: %d objects, model has %d", got, len(expected))
	}
	for oid, want := range expected {
		obj, err := db.Fetch(oid)
		if err != nil {
			t.Fatalf("final: %v missing", oid)
		}
		v, _ := db.AttrValue(obj, "n")
		if n, _ := v.AsInt(); n != want {
			t.Fatalf("final: %v = %d, want %d", oid, n, want)
		}
	}
}
