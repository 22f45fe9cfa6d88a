package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"oodb"
	"oodb/internal/server"
	"oodb/internal/shard"
)

// TestScriptSameThroughEveryDoor pipes one script through the shell's three
// modes — embedded (-db), remote (.connect) and a one-member shard group
// (-shards; member 0's global OIDs equal its local ones) — over three
// databases built alike, and requires the same output and, for the one
// command that fails, an error from each (its wording is the door's own).
func TestScriptSameThroughEveryDoor(t *testing.T) {
	newDB := func() *oodb.DB {
		db, err := oodb.Open(t.TempDir(), oodb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		if _, err := db.DefineClass("Part", nil,
			oodb.Attr{Name: "name", Domain: "String"},
			oodb.Attr{Name: "weight", Domain: "Integer"}); err != nil {
			t.Fatal(err)
		}
		return db
	}
	serve := func() string {
		s := server.New(newDB(), server.Options{})
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Drain(2 * time.Second) })
		return s.Addr().String()
	}

	db := newDB()
	cl, err := db.ClassByName("Part")
	if err != nil {
		t.Fatal(err)
	}
	script := fmt.Sprintf(`.insert Part name='cam' weight=12
.insert Part name='axle' weight=3
.insert Part name='rod' weight=7
.set @%[1]d:1 weight=15
.get @%[1]d:1
.get @%[1]d:2 name
.del @%[1]d:3
SELECT name, weight FROM Part ORDER BY weight
SELECT COUNT(*), SUM(weight) FROM Part WHERE weight > 5
.get @%[1]d:3
`, cl.ID)

	run := func(sh *shell, script string) string {
		var out, errs bytes.Buffer
		sh.out, sh.errw = &out, &errs
		sh.run(strings.NewReader(script))
		if sh.remote != nil {
			sh.remote.Close()
		}
		if n := strings.Count(errs.String(), "error:"); n != 1 {
			t.Errorf("%d commands failed, want only the .get of the deleted object:\n%s", n, errs.String())
		}
		return out.String()
	}
	embedded := run(&shell{db: db}, script)

	addr := serve()
	remote := run(&shell{}, ".connect "+addr+"\n"+script)
	// Past the connect banner's line the remote transcript must be the
	// embedded one.
	_, remote, _ = strings.Cut(remote, "\n")

	r, err := shard.New([]string{serve()}, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sharded := run(&shell{sharded: r}, script)

	if !strings.Contains(embedded, `"cam" | 15`) || !strings.Contains(embedded, "1 | 15") {
		t.Fatalf("embedded transcript is not what the script should print:\n%s", embedded)
	}
	if remote != embedded {
		t.Errorf("remote transcript differs.\nembedded:\n%s\nremote:\n%s", embedded, remote)
	}
	if sharded != embedded {
		t.Errorf("sharded transcript differs.\nembedded:\n%s\nsharded:\n%s", embedded, sharded)
	}
}
