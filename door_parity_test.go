package oodb_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"oodb"
	"oodb/internal/schema"
	"oodb/internal/server"
	"oodb/internal/server/client"
	"oodb/internal/shard"
	"oodb/internal/storage"
)

// door is the data surface the three front doors share: an open-mode
// *oodb.Session, a *client.Client and a *shard.Router all have it.
type door interface {
	Query(src string) (*client.Result, error)
	Fetch(oid oodb.OID) (*client.Object, error)
	Get(oid oodb.OID, attr string) (oodb.Value, error)
	Insert(class string, attrs oodb.Attrs) (oodb.OID, error)
	Update(oid oodb.OID, attrs oodb.Attrs) error
	Delete(oid oodb.OID) error
}

// errKind names an error by what a caller may dispatch on. The embedded
// door returns the engine's own sentinels; the wire carries them as a code
// the client turns into its sentinel, and the router passes that through.
func errKind(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, client.ErrNotFound), errors.Is(err, storage.ErrNoObject),
		errors.Is(err, schema.ErrNoSuchClass):
		return "not-found"
	}
	return "other: " + err.Error()
}

// doorScript drives one seeded script — inserts across two classes with
// references, updates, deletes, Get, Fetch, and statements with a predicate,
// a nested path, ORDER BY + LIMIT and each aggregate, then a missing OID and
// an unknown class — through d and returns the transcript of every answer.
func doorScript(t *testing.T, d door) string {
	t.Helper()
	var b strings.Builder
	rng := rand.New(rand.NewSource(18))
	must := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	cities := []string{"Detroit", "Austin", "Turin"}
	var makers, parts []oodb.OID
	for i := 0; i < 6; i++ {
		oid, err := d.Insert("Maker", oodb.Attrs{
			"name": oodb.String(fmt.Sprintf("m%d", i)), "city": oodb.String(cities[i%3])})
		must("insert maker", err)
		makers = append(makers, oid)
		fmt.Fprintf(&b, "maker %v\n", oid)
	}
	for i := 0; i < 60; i++ {
		oid, err := d.Insert("Part", oodb.Attrs{
			"name":   oodb.String(fmt.Sprintf("p%03d", i)),
			"weight": oodb.Int(int64(rng.Intn(100))),
			"tag":    oodb.String([]string{"x", "y", "z"}[rng.Intn(3)]),
			"maker":  oodb.Ref(makers[rng.Intn(len(makers))]),
		})
		must("insert part", err)
		parts = append(parts, oid)
		fmt.Fprintf(&b, "part %v\n", oid)
	}
	for i := 0; i < 20; i++ {
		must("update", d.Update(parts[rng.Intn(len(parts))], oodb.Attrs{"weight": oodb.Int(int64(rng.Intn(100)))}))
	}
	var deleted []oodb.OID
	for i := 0; i < 10; i++ {
		j := rng.Intn(len(parts))
		must("delete", d.Delete(parts[j]))
		deleted = append(deleted, parts[j])
		parts = append(parts[:j], parts[j+1:]...)
	}
	for i := 0; i < 10; i++ {
		oid := parts[rng.Intn(len(parts))]
		v, err := d.Get(oid, "weight")
		must("get", err)
		fmt.Fprintf(&b, "get %v weight=%v\n", oid, v)
		obj, err := d.Fetch(oid)
		must("fetch", err)
		names := make([]string, 0, len(obj.Attrs))
		for name := range obj.Attrs {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "fetch %v %s", obj.OID, obj.Class)
		for _, name := range names {
			fmt.Fprintf(&b, " %s=%v", name, obj.Attrs[name])
		}
		b.WriteByte('\n')
	}
	for _, stmt := range []string{
		`SELECT name, weight FROM Part WHERE weight > 50 AND tag = 'x'`,
		`SELECT name, maker FROM Part WHERE maker.city = 'Detroit' ORDER BY name`,
		`SELECT name, weight FROM Part ORDER BY weight DESC LIMIT 7`,
		`SELECT name FROM Maker WHERE city != 'Turin' ORDER BY name LIMIT 3`,
		`SELECT COUNT(*), SUM(weight), AVG(weight), MIN(weight), MAX(weight) FROM Part`,
		`SELECT COUNT(weight), AVG(weight) FROM Part WHERE tag = 'y'`,
		// Text that must read the same wherever it is parsed: a small float
		// has no exponent form in the query language, a backslash in a
		// string is just a byte.
		`SELECT name FROM Part WHERE weight > 0.00001 AND tag != 'x\y' ORDER BY name LIMIT 4`,
	} {
		res, err := d.Query(stmt)
		must(stmt, err)
		if len(res.Rows) == 0 {
			t.Fatalf("%s: an empty answer proves nothing", stmt)
		}
		fmt.Fprintf(&b, "%s\n  %v\n", stmt, res.Cols)
		for _, row := range res.Rows {
			fmt.Fprintf(&b, "  %v %v\n", row.OID, row.Values)
		}
	}
	_, err := d.Fetch(deleted[0])
	fmt.Fprintf(&b, "fetch of a deleted object: %s\n", errKind(err))
	_, err = d.Get(deleted[1], "name")
	fmt.Fprintf(&b, "get on a deleted object: %s\n", errKind(err))
	fmt.Fprintf(&b, "update of a deleted object: %s\n", errKind(d.Update(deleted[2], oodb.Attrs{"weight": oodb.Int(1)})))
	_, err = d.Insert("Nope", oodb.Attrs{"name": oodb.String("x")})
	fmt.Fprintf(&b, "insert into an unknown class: %s\n", errKind(err))
	_, err = d.Query(`SELECT name FROM Nope`)
	fmt.Fprintf(&b, "query of an unknown class: %s\n", errKind(err))
	return b.String()
}

// newDoorDB opens a database with doorScript's schema.
func newDoorDB(t *testing.T) *oodb.DB {
	t.Helper()
	db, err := oodb.Open(t.TempDir(), oodb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.DefineClass("Maker", nil,
		oodb.Attr{Name: "name", Domain: "String"},
		oodb.Attr{Name: "city", Domain: "String"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineClass("Part", nil,
		oodb.Attr{Name: "name", Domain: "String"},
		oodb.Attr{Name: "weight", Domain: "Integer"},
		oodb.Attr{Name: "tag", Domain: "String"},
		oodb.Attr{Name: "maker", Domain: "Maker"}); err != nil {
		t.Fatal(err)
	}
	return db
}

// serveDoorDB serves db on an in-process kimsrv and returns its address.
func serveDoorDB(t *testing.T, db *oodb.DB) string {
	t.Helper()
	s := server.New(db, server.Options{})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Drain(2 * time.Second) })
	return s.Addr().String()
}

// dialDoor dials a client to addr and closes it with the test.
func dialDoor(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, client.Options{Role: "app"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestDoorParity runs doorScript through the three front doors — an
// open-mode Session, a client on an in-process kimsrv, and a router over
// one member (member 0: global OID = local) — each over its own database
// built alike, and requires one transcript: the same OIDs, rows, values and
// the same kind of error for a missing object and an unknown class.
func TestDoorParity(t *testing.T) {
	c := dialDoor(t, serveDoorDB(t, newDoorDB(t)))
	r, err := shard.New([]string{serveDoorDB(t, newDoorDB(t))}, shard.Options{Client: client.Options{Role: "app"}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	embedded := doorScript(t, newDoorDB(t).Session(nil, ""))
	for _, e := range strings.Split("fetch of a deleted object,get on a deleted object,update of a deleted object,"+
		"insert into an unknown class,query of an unknown class", ",") {
		if !strings.Contains(embedded, e+": not-found\n") {
			t.Fatalf("embedded door: %s is not a not-found error:\n%s", e, embedded[strings.LastIndex(embedded, "fetch of"):])
		}
	}
	for name, d := range map[string]door{"kimsrv client": c, "shard router": r} {
		if got := doorScript(t, d); got != embedded {
			t.Errorf("%s disagrees with the embedded session:\n%s", name, firstDiff(embedded, got))
		}
	}
}

// TestSecondWriterVisibleThroughEveryDoor: a door reads an object with Get,
// Fetch and Query; a second writer on the same database — another session,
// another client of the same server, or a client dialed straight to the
// router's member — commits an update; every one of the door's reads then
// returns the new value. A door that answered from what it read before
// would be silently wrong.
func TestSecondWriterVisibleThroughEveryDoor(t *testing.T) {
	type writer interface {
		Update(oid oodb.OID, attrs oodb.Attrs) error
	}
	embeddedDB := newDoorDB(t)
	servedAddr := serveDoorDB(t, newDoorDB(t))
	memberAddr := serveDoorDB(t, newDoorDB(t))
	r, err := shard.New([]string{memberAddr}, shard.Options{Client: client.Options{Role: "app"}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for _, tc := range []struct {
		name   string
		reader door
		writer writer
	}{
		{"embedded session", embeddedDB.Session(nil, ""), embeddedDB.Session(nil, "")},
		{"kimsrv client", dialDoor(t, servedAddr), dialDoor(t, servedAddr)},
		// Member 0 of the router: its global OIDs are the member's own.
		{"shard router", r, dialDoor(t, memberAddr)},
	} {
		d := tc.reader
		oid, err := d.Insert("Part", oodb.Attrs{"name": oodb.String("cam"), "weight": oodb.Int(1)})
		if err != nil {
			t.Fatalf("%s: insert: %v", tc.name, err)
		}
		reads := func() [3]string {
			t.Helper()
			v, err := d.Get(oid, "weight")
			if err != nil {
				t.Fatalf("%s: get: %v", tc.name, err)
			}
			obj, err := d.Fetch(oid)
			if err != nil {
				t.Fatalf("%s: fetch: %v", tc.name, err)
			}
			res, err := d.Query(`SELECT weight FROM Part WHERE name = 'cam'`)
			if err != nil || len(res.Rows) != 1 {
				t.Fatalf("%s: query: %v, %v", tc.name, res, err)
			}
			return [3]string{v.String(), obj.Attrs["weight"].String(), res.Rows[0].Values[0].String()}
		}
		if got := reads(); got != [3]string{"1", "1", "1"} {
			t.Fatalf("%s: get, fetch, query before the update = %v", tc.name, got)
		}
		if err := tc.writer.Update(oid, oodb.Attrs{"weight": oodb.Int(2)}); err != nil {
			t.Fatalf("%s: second writer: %v", tc.name, err)
		}
		if got := reads(); got != [3]string{"2", "2", "2"} {
			t.Errorf("%s: get, fetch, query after a second writer's commit = %v, want the new weight 2 from each", tc.name, got)
		}
	}
}

// TestUncommittedWriteInvisibleThroughEveryDoor: while a second writer —
// another session, another client of the same server, or a client dialed
// straight to the router's member — holds an uncommitted update, a door's
// Get and Fetch outside a transaction return the committed value, and the
// same value again after the writer aborts. Reading the writer's bytes
// would be a silently wrong answer that the abort then takes back.
func TestUncommittedWriteInvisibleThroughEveryDoor(t *testing.T) {
	type writer interface {
		Begin() error
		Update(oid oodb.OID, attrs oodb.Attrs) error
		Abort() error
	}
	embeddedDB := newDoorDB(t)
	servedAddr := serveDoorDB(t, newDoorDB(t))
	memberAddr := serveDoorDB(t, newDoorDB(t))
	r, err := shard.New([]string{memberAddr}, shard.Options{Client: client.Options{Role: "app"}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for _, tc := range []struct {
		name   string
		reader door
		writer writer
	}{
		{"embedded session", embeddedDB.Session(nil, ""), embeddedDB.Session(nil, "")},
		{"kimsrv client", dialDoor(t, servedAddr), dialDoor(t, servedAddr)},
		{"shard router", r, dialDoor(t, memberAddr)},
	} {
		d := tc.reader
		oid, err := d.Insert("Part", oodb.Attrs{"name": oodb.String("cam"), "weight": oodb.Int(1)})
		if err != nil {
			t.Fatalf("%s: insert: %v", tc.name, err)
		}
		reads := func() [2]string {
			t.Helper()
			v, err := d.Get(oid, "weight")
			if err != nil {
				t.Fatalf("%s: get: %v", tc.name, err)
			}
			obj, err := d.Fetch(oid)
			if err != nil {
				t.Fatalf("%s: fetch: %v", tc.name, err)
			}
			return [2]string{v.String(), obj.Attrs["weight"].String()}
		}
		if err := tc.writer.Begin(); err != nil {
			t.Fatalf("%s: begin: %v", tc.name, err)
		}
		if err := tc.writer.Update(oid, oodb.Attrs{"weight": oodb.Int(2)}); err != nil {
			t.Fatalf("%s: uncommitted update: %v", tc.name, err)
		}
		if got := reads(); got != [2]string{"1", "1"} {
			t.Errorf("%s: get, fetch beside an uncommitted update = %v, want the committed weight 1", tc.name, got)
		}
		if err := tc.writer.Abort(); err != nil {
			t.Fatalf("%s: abort: %v", tc.name, err)
		}
		if got := reads(); got != [2]string{"1", "1"} {
			t.Errorf("%s: get, fetch after the writer aborted = %v, want 1", tc.name, got)
		}
	}
}

// firstDiff shows the first line two transcripts disagree on.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := range w {
		if i >= len(g) || w[i] != g[i] {
			have := "(transcript ends)"
			if i < len(g) {
				have = g[i]
			}
			return fmt.Sprintf("line %d\n  embedded: %s\n  this one: %s", i+1, w[i], have)
		}
	}
	return fmt.Sprintf("%d extra lines, first: %s", len(g)-len(w), g[len(w)])
}
