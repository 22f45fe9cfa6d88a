package bench

import (
	"testing"

	"oodb"
)

// TestOO1Deterministic pins the property OO1 comparisons rely on: the same
// (nParts, conn, noisePer, seed) tuple builds the identical graph in any
// directory — equal structural fingerprint and equal closure traversal —
// so separate builds (perfbench builds one per run, for the parent and
// the change alike) are the same logical database.
// A different seed must produce a different graph, or the fingerprint is
// not actually pinning anything.
func TestOO1Deterministic(t *testing.T) {
	build := func(seed int64) (*oodb.DB, *OO1) {
		db, err := oodb.Open(t.TempDir(), oodb.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		db.Maintenance().Stop() // the fragmentation check below needs the layout left alone
		g, err := BuildOO1(db, 200, 3, 2, seed)
		if err != nil {
			t.Fatal(err)
		}
		return db, g
	}
	db1, g1 := build(17)
	db2, g2 := build(17)
	db3, g3 := build(18)

	h1, err := g1.GraphHash(db1)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := g2.GraphHash(db2)
	if err != nil {
		t.Fatal(err)
	}
	h3, err := g3.GraphHash(db3)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("same seed, different graphs: %x vs %x", h1, h2)
	}
	if h1 == h3 {
		t.Fatalf("different seeds produced the same graph hash %x; fingerprint is vacuous", h1)
	}

	for _, root := range []int{0, 50, 199} {
		v1, c1, err := g1.Closure(db1, root)
		if err != nil {
			t.Fatal(err)
		}
		v2, c2, err := g2.Closure(db2, root)
		if err != nil {
			t.Fatal(err)
		}
		if v1 != v2 || c1 != c2 {
			t.Fatalf("root %d: same seed, different traversals: (%d,%x) vs (%d,%x)", root, v1, c1, v2, c2)
		}
	}

	// The generator must actually fragment: most of the segment's records
	// were noise and are dead, so occupancy is low before compaction.
	info, err := db1.Engine().SegmentInfo(mustClass(t, db1, "Part"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Occupancy > 0.55 {
		t.Fatalf("OO1 build left occupancy %.2f; the fragmented baseline is not fragmented", info.Occupancy)
	}
}

func mustClass(t *testing.T, db *oodb.DB, name string) (id oodb.ClassID) {
	t.Helper()
	cls, err := db.ClassByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return cls.ID
}
