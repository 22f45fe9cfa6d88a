package shard

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"oodb"
	"oodb/internal/model"
	"oodb/internal/server"
	"oodb/internal/server/client"
)

// defineParts installs the shared test schema on one member.
func defineParts(t *testing.T, db *oodb.DB) {
	t.Helper()
	if _, err := db.DefineClass("Part", nil,
		oodb.Attr{Name: "name", Domain: "String"},
		oodb.Attr{Name: "weight", Domain: "Integer"},
		oodb.Attr{Name: "tag", Domain: "String"},
		oodb.Attr{Name: "mate", Domain: "Part"},
	); err != nil {
		t.Fatal(err)
	}
}

// startMembers spins n loopback kimsrv members with identical schemas
// and a router over them.
func startMembers(t *testing.T, n int, define func(*testing.T, *oodb.DB)) (*Router, []*server.Server, []*oodb.DB) {
	t.Helper()
	var srvs []*server.Server
	var dbs []*oodb.DB
	var addrs []string
	for i := 0; i < n; i++ {
		db, err := oodb.Open(t.TempDir(), oodb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		define(t, db)
		s := server.New(db, server.Options{})
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Drain(2 * time.Second) })
		srvs = append(srvs, s)
		dbs = append(dbs, db)
		addrs = append(addrs, s.Addr().String())
	}
	r, err := New(addrs, Options{Client: client.Options{Role: "app", RequestTimeout: 5 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r, srvs, dbs
}

// insertSingle autocommits one insert into an embedded database.
func insertSingle(t *testing.T, db *oodb.DB, class string, attrs map[string]model.Value) model.OID {
	t.Helper()
	var oid model.OID
	err := db.Do(func(tx *oodb.Tx) error {
		var err error
		oid, err = tx.Insert(class, attrs)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return oid
}

// partAttrs builds the i-th deterministic Part.
func partAttrs(i int) map[string]model.Value {
	return map[string]model.Value{
		"name":   model.String(fmt.Sprintf("p%03d", i)),
		"weight": model.Int(int64(i * 7 % 100)),
		"tag":    model.String([]string{"x", "y", "z"}[i%3]),
	}
}

// encodeSortedRows fingerprints a result's values order-insensitively:
// each row's values are encoded canonically, rows are sorted, and the
// concatenation compared. OIDs differ between setups, so values only.
func encodeSortedRows(rows [][]model.Value) []byte {
	enc := make([][]byte, 0, len(rows))
	for _, vals := range rows {
		var b []byte
		for _, v := range vals {
			b = model.AppendValue(b, v)
		}
		enc = append(enc, b)
	}
	sort.Slice(enc, func(a, b int) bool { return bytes.Compare(enc[a], enc[b]) < 0 })
	return bytes.Join(enc, []byte{'\n'})
}

func shardRowValues(res *Result) [][]model.Value {
	out := make([][]model.Value, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.Values
	}
	return out
}

// TestScatterParitySingleDB pins the core distribution contract: the
// same dataset, partitioned over 4 members vs loaded into one database,
// answers every query shape identically (values, not OIDs).
func TestScatterParitySingleDB(t *testing.T) {
	const n = 120
	r, _, _ := startMembers(t, 4, defineParts)

	single, err := oodb.Open(t.TempDir(), oodb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	defineParts(t, single)

	owners := make(map[int]int) // member -> objects placed
	for i := 0; i < n; i++ {
		attrs := partAttrs(i)
		g, err := r.Insert("Part", attrs)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := splitOID(g)
		owners[m]++
		insertSingle(t, single, "Part", attrs)
	}
	// The ring must actually partition: every member holds a share.
	if len(owners) != 4 {
		t.Fatalf("placement not partitioned: %v", owners)
	}

	ordered := []string{
		`SELECT name, weight FROM Part WHERE weight > 50 ORDER BY name`,
		`SELECT name FROM Part WHERE weight >= 30 AND tag = 'x' ORDER BY name DESC`,
		`SELECT name, tag FROM Part ORDER BY name LIMIT 17`,
		`SELECT name FROM Part WHERE tag = 'y' ORDER BY name LIMIT 5`,
	}
	for _, qsrc := range ordered {
		sres, err := r.Query(qsrc)
		if err != nil {
			t.Fatalf("shard %q: %v", qsrc, err)
		}
		bres, err := single.Query(qsrc)
		if err != nil {
			t.Fatalf("single %q: %v", qsrc, err)
		}
		if len(sres.Rows) == 0 {
			t.Fatalf("%q: empty result proves nothing", qsrc)
		}
		// Ordered queries must match row-for-row, not just as a set.
		if len(sres.Rows) != len(bres.Rows) {
			t.Fatalf("%q: %d vs %d rows", qsrc, len(sres.Rows), len(bres.Rows))
		}
		for i := range sres.Rows {
			for j := range sres.Rows[i].Values {
				if model.Compare(sres.Rows[i].Values[j], bres.Rows[i].Values[j]) != 0 {
					t.Fatalf("%q row %d col %d: %v vs %v", qsrc, i, j,
						sres.Rows[i].Values[j], bres.Rows[i].Values[j])
				}
			}
		}
	}

	// An ORDER BY key that ties across members, with a LIMIT that cuts
	// inside a tie: member-index order decides among equal keys (each
	// member's own order kept within it), and the cut answer is a prefix of
	// the uncut one even though every member applied the LIMIT itself.
	full, err := r.Query(`SELECT name, tag FROM Part ORDER BY tag`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(full.Rows); i++ {
		prev, cur := full.Rows[i-1], full.Rows[i]
		pm, pl := splitOID(prev.OID)
		cm, cl := splitOID(cur.OID)
		if model.Compare(prev.Values[1], cur.Values[1]) != 0 {
			continue
		}
		// Insert-only members answer ties in insertion order, i.e. by OID.
		if pm > cm || (pm == cm && pl >= cl) {
			t.Fatalf("row %d: %d/%v sorts after %d/%v within tag %v", i, cm, cl, pm, pl, cur.Values[1])
		}
	}
	cut, err := r.Query(`SELECT name, tag FROM Part ORDER BY tag LIMIT 45`) // 40 x, then 5 of 40 y
	if err != nil {
		t.Fatal(err)
	}
	if len(cut.Rows) != 45 {
		t.Fatalf("LIMIT 45: %d rows", len(cut.Rows))
	}
	for i, row := range cut.Rows {
		if row.OID != full.Rows[i].OID {
			t.Fatalf("LIMIT 45 row %d is %v, uncut answer has %v", i, row.Values, full.Rows[i].Values)
		}
	}

	unordered := []string{
		`SELECT name, weight, tag FROM Part WHERE tag = 'z'`,
		`SELECT name FROM Part WHERE weight < 20 OR weight > 80`,
	}
	for _, qsrc := range unordered {
		sres, err := r.Query(qsrc)
		if err != nil {
			t.Fatalf("shard %q: %v", qsrc, err)
		}
		bres, err := single.Query(qsrc)
		if err != nil {
			t.Fatalf("single %q: %v", qsrc, err)
		}
		bvals := make([][]model.Value, len(bres.Rows))
		for i, row := range bres.Rows {
			bvals[i] = row.Values
		}
		if !bytes.Equal(encodeSortedRows(shardRowValues(sres)), encodeSortedRows(bvals)) {
			t.Fatalf("%q: sharded result set differs from single DB", qsrc)
		}
		if len(sres.Rows) == 0 {
			t.Fatalf("%q: empty result proves nothing", qsrc)
		}
	}

	// Aggregates combine across members: COUNT/SUM add, MIN/MAX compare,
	// AVG recomputed from shipped SUM+COUNT.
	aggs := []string{
		`SELECT COUNT(*), SUM(weight), MIN(weight), MAX(weight), AVG(weight) FROM Part`,
		`SELECT COUNT(weight), AVG(weight) FROM Part WHERE tag = 'x'`,
	}
	for _, qsrc := range aggs {
		sres, err := r.Query(qsrc)
		if err != nil {
			t.Fatalf("shard %q: %v", qsrc, err)
		}
		bres, err := single.Query(qsrc)
		if err != nil {
			t.Fatalf("single %q: %v", qsrc, err)
		}
		if len(sres.Rows) != 1 || len(bres.Rows) != 1 {
			t.Fatalf("%q: aggregate row counts %d vs %d", qsrc, len(sres.Rows), len(bres.Rows))
		}
		for j := range sres.Cols {
			if sres.Cols[j] != bres.Cols[j] {
				t.Fatalf("%q: col %q vs %q", qsrc, sres.Cols[j], bres.Cols[j])
			}
			if model.Compare(sres.Rows[0].Values[j], bres.Rows[0].Values[j]) != 0 {
				t.Fatalf("%q col %s: %v vs %v", qsrc, sres.Cols[j],
					sres.Rows[0].Values[j], bres.Rows[0].Values[j])
			}
		}
	}

	// SELECT * scatters too: row count parity (identities differ by
	// construction, so values cannot be compared).
	sres, err := r.Query(`SELECT * FROM Part`)
	if err != nil {
		t.Fatal(err)
	}
	if len(sres.Rows) != n {
		t.Fatalf("SELECT *: %d rows, want %d", len(sres.Rows), n)
	}
	// ORDER BY without a projection cannot be merged; typed refusal.
	if _, err := r.Query(`SELECT * FROM Part ORDER BY name`); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("SELECT * ORDER BY: %v", err)
	}
}

// TestRoutedObjectOps pins owner routing and global<->local OID
// translation for the single-object surface.
func TestRoutedObjectOps(t *testing.T) {
	r, _, _ := startMembers(t, 3, defineParts)

	var oids []model.OID
	for i := 0; i < 30; i++ {
		g, err := r.Insert("Part", partAttrs(i))
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, g)
	}

	// Fetch through the router round-trips every object by global OID.
	for i, g := range oids {
		obj, err := r.Fetch(g)
		if err != nil {
			t.Fatalf("fetch %s: %v", g, err)
		}
		want, _ := partAttrs(i)["name"].AsString()
		if got, _ := obj.Attrs["name"].AsString(); got != want {
			t.Fatalf("fetch %s: name %q, want %q", g, got, want)
		}
		if obj.OID != g {
			t.Fatalf("fetch returned OID %s, want global %s", obj.OID, g)
		}
	}

	// Update + Get route to the owner; ref values translate both ways.
	sameOwner := func(a, b model.OID) bool {
		ma, _ := splitOID(a)
		mb, _ := splitOID(b)
		return ma == mb
	}
	var a, b, c model.OID // a, b co-located; c elsewhere
	for _, g := range oids[1:] {
		if sameOwner(oids[0], g) && a.IsNil() {
			a, b = oids[0], g
		} else if !sameOwner(oids[0], g) && c.IsNil() {
			c = g
		}
	}
	if a.IsNil() || c.IsNil() {
		t.Fatal("dataset did not spread over members")
	}
	if err := r.Update(a, map[string]model.Value{"mate": model.Ref(b)}); err != nil {
		t.Fatal(err)
	}
	v, err := r.Get(a, "mate")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := v.AsRef(); got != b {
		t.Fatalf("mate = %s, want global %s", got, b)
	}
	// The fetched object's ref surfaces global too.
	obj, err := r.Fetch(a)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := obj.Attrs["mate"].AsRef(); got != b {
		t.Fatalf("fetched mate = %s, want %s", got, b)
	}

	// A cross-member reference is refused at write time, not mangled.
	if err := r.Update(a, map[string]model.Value{"mate": model.Ref(c)}); !errors.Is(err, ErrCrossMember) {
		t.Fatalf("cross-member ref: %v", err)
	}

	// Delete routes to the owner; the object is gone through the router.
	if err := r.Delete(oids[5]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Fetch(oids[5]); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("fetch after delete: %v", err)
	}
}

// TestInsertRefPlacement pins reference-driven placement: an insert
// whose attributes reference existing objects lands on the referents'
// member deterministically (references never cross members, so the ring
// must not gamble on landing there ~1/N of the time), and an insert
// whose referents span two members is refused with ErrCrossMember.
func TestInsertRefPlacement(t *testing.T) {
	r, _, _ := startMembers(t, 3, func(t *testing.T, db *oodb.DB) {
		defineParts(t, db)
		if _, err := db.DefineClass("Link", nil,
			oodb.Attr{Name: "a", Domain: "Part"},
			oodb.Attr{Name: "b", Domain: "Part"},
		); err != nil {
			t.Fatal(err)
		}
	})

	var oids []model.OID
	owners := map[int]model.OID{}
	for i := 0; i < 24; i++ {
		g, err := r.Insert("Part", partAttrs(i))
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, g)
		m, _ := splitOID(g)
		owners[m] = g
	}
	if len(owners) < 2 {
		t.Fatalf("dataset did not spread over members: %v", owners)
	}

	// Every referencing insert must land with its referent, whichever
	// member that is.
	for i, g := range oids {
		attrs := partAttrs(100 + i)
		attrs["mate"] = model.Ref(g)
		ng, err := r.Insert("Part", attrs)
		if err != nil {
			t.Fatalf("insert referencing %s: %v", g, err)
		}
		gm, _ := splitOID(g)
		nm, _ := splitOID(ng)
		if nm != gm {
			t.Fatalf("insert referencing member %d landed on member %d", gm, nm)
		}
		v, err := r.Get(ng, "mate")
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := v.AsRef(); got != g {
			t.Fatalf("mate = %s, want %s", got, g)
		}
	}

	// Two referents on one member co-place; on two members it is a typed
	// refusal, not a ~1/N gamble.
	var m0, m1 model.OID
	for _, g := range owners {
		if m0.IsNil() {
			m0 = g
		} else if m1.IsNil() {
			m1 = g
		}
	}
	if _, err := r.Insert("Link", map[string]model.Value{
		"a": model.Ref(m0), "b": model.Ref(m0),
	}); err != nil {
		t.Fatalf("co-located refs: %v", err)
	}
	if _, err := r.Insert("Link", map[string]model.Value{
		"a": model.Ref(m0), "b": model.Ref(m1),
	}); !errors.Is(err, ErrCrossMember) {
		t.Fatalf("cross-member refs: %v, want ErrCrossMember", err)
	}
}

// TestPlacementSubset pins the per-class placement map: a class defined
// on a subset of members only ever lands (and scatters) there.
func TestPlacementSubset(t *testing.T) {
	i := 0
	r, _, _ := startMembers(t, 3, func(t *testing.T, db *oodb.DB) {
		defineParts(t, db)
		if i < 2 { // "Gadget" exists only on members 0 and 1
			if _, err := db.DefineClass("Gadget", nil,
				oodb.Attr{Name: "n", Domain: "Integer"}); err != nil {
				t.Fatal(err)
			}
		}
		i++
	})

	pm, err := r.Placement()
	if err != nil {
		t.Fatal(err)
	}
	if got := pm["Gadget"]; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Gadget placement = %v", got)
	}
	if got := pm["Part"]; len(got) != 3 {
		t.Fatalf("Part placement = %v", got)
	}

	seen := map[int]bool{}
	for k := 0; k < 40; k++ {
		g, err := r.Insert("Gadget", map[string]model.Value{"n": model.Int(int64(k))})
		if err != nil {
			t.Fatal(err)
		}
		m, _ := splitOID(g)
		if m > 1 {
			t.Fatalf("Gadget landed on member %d outside its placement", m)
		}
		seen[m] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("Gadget not spread over its placement: %v", seen)
	}

	res, err := r.Query(`SELECT n FROM Gadget`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 40 {
		t.Fatalf("Gadget rows = %d", len(res.Rows))
	}

	if _, err := r.Query(`SELECT x FROM Nowhere`); !errors.Is(err, ErrNoMember) {
		t.Fatalf("unknown class: %v", err)
	}
}

// TestRouterHealthProbe pins the operational rim: probes see members
// come and go.
func TestRouterHealthProbe(t *testing.T) {
	r, srvs, _ := startMembers(t, 2, defineParts)
	st := r.Probe()
	if !st[0].Healthy || !st[1].Healthy {
		t.Fatalf("status = %+v", st)
	}
	if err := srvs[1].Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	st = r.Probe()
	if !st[0].Healthy || st[1].Healthy {
		t.Fatalf("status after drain = %+v", st)
	}
}

// TestScatterSumIntegerPrecision: the router folds its members' SUMs with
// the engine's accumulator, so integer sums stay exact beyond 2^53 across
// members, and a total that leaves int64 comes back as a Float.
func TestScatterSumIntegerPrecision(t *testing.T) {
	r, _, dbs := startMembers(t, 2, defineParts)
	const a, b, c = int64(1)<<62 - 1, int64(1)<<62 - 3, int64(1)<<62 - 5
	for _, o := range []struct {
		member int
		name   string
		weight int64
	}{{0, "a", a}, {0, "b", b}, {1, "c", c}} {
		insertSingle(t, dbs[o.member], "Part", map[string]model.Value{
			"name": model.String(o.name), "weight": model.Int(o.weight)})
	}
	for _, tc := range []struct {
		src  string
		want model.Value
	}{
		{`SELECT SUM(weight) FROM Part WHERE name != 'b'`, model.Int(a + c)},
		{`SELECT SUM(weight) FROM Part WHERE name != 'c'`, model.Int(a + b)},
		{`SELECT SUM(weight) FROM Part`, model.Float(float64(a+b) + float64(c))},
		{`SELECT AVG(weight) FROM Part WHERE name != 'b'`, model.Float(float64(a+c) / 2)},
		{`SELECT COUNT(*) FROM Part`, model.Int(3)},
	} {
		res, err := r.Query(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		got := res.Rows[0].Values[0]
		if got.Kind() != tc.want.Kind() || model.Compare(got, tc.want) != 0 {
			t.Errorf("%s = %v (%s), want %v (%s)", tc.src, got, got.Kind(), tc.want, tc.want.Kind())
		}
	}
}
