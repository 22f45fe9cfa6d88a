package server

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oodb"
	"oodb/internal/authz"
	"oodb/internal/model"
	"oodb/internal/obs"
	"oodb/internal/server/client"
	"oodb/internal/server/proto"
)

// newTestDB opens a fresh database with a small schema.
func newTestDB(t *testing.T) *oodb.DB {
	t.Helper()
	db, err := oodb.Open(t.TempDir(), oodb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.DefineClass("Part", nil,
		oodb.Attr{Name: "name", Domain: "String"},
		oodb.Attr{Name: "weight", Domain: "Integer"},
	); err != nil {
		t.Fatal(err)
	}
	return db
}

// startServer starts a server over db and tears it down with the test.
func startServer(t *testing.T, db *oodb.DB, opts Options) *Server {
	t.Helper()
	return start(t, New(db, opts))
}

// start starts s and tears it down with the test.
func start(t *testing.T, s *Server) *Server {
	t.Helper()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Drain(2 * time.Second) })
	return s
}

func dial(t *testing.T, s *Server, opts client.Options) *client.Client {
	t.Helper()
	c, err := client.Dial(s.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClientServerRoundTrip(t *testing.T) {
	db := newTestDB(t)
	s := startServer(t, db, Options{})
	c := dial(t, s, client.Options{Role: "app"})

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	oid, err := c.Insert("Part", map[string]model.Value{
		"name": model.String("cam"), "weight": model.Int(12),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Fetch: effective attributes come back with class name.
	obj, err := c.Fetch(oid)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Class != "Part" || model.Compare(obj.Attrs["weight"], model.Int(12)) != 0 {
		t.Fatalf("fetch: got %+v", obj)
	}

	// Get: one attribute.
	v, err := c.Get(oid, "name")
	if err != nil {
		t.Fatal(err)
	}
	if model.Compare(v, model.String("cam")) != 0 {
		t.Fatalf("get: %v", v)
	}

	// Update, then re-read: the session reads its own write.
	if err := c.Update(oid, map[string]model.Value{"weight": model.Int(15)}); err != nil {
		t.Fatal(err)
	}
	if v, err = c.Get(oid, "weight"); err != nil || model.Compare(v, model.Int(15)) != 0 {
		t.Fatalf("get after update: %v %v (read-your-writes)", v, err)
	}

	// Query and snapshot query agree.
	for _, q := range []func(string) (*client.Result, error){c.Query, c.QuerySnapshot} {
		res, err := q(`SELECT name FROM Part WHERE weight > 10`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || model.Compare(res.Rows[0].Values[0], model.String("cam")) != 0 {
			t.Fatalf("query: %+v", res)
		}
	}

	// Delete, then NotFound.
	if err := c.Delete(oid); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fetch(oid); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("fetch deleted: %v, want ErrNotFound", err)
	}
}

func TestExplicitTransaction(t *testing.T) {
	db := newTestDB(t)
	s := startServer(t, db, Options{})
	c := dial(t, s, client.Options{Role: "app"})

	// Abort rolls back.
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	oid, err := c.Insert("Part", map[string]model.Value{"name": model.String("tmp"), "weight": model.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	// Inside the transaction the session reads its own uncommitted write.
	res, err := c.Query(`SELECT name FROM Part WHERE name = 'tmp'`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("in-tx query: %v rows=%v", err, res)
	}
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fetch(oid); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("after abort: %v, want ErrNotFound", err)
	}

	// Commit persists.
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	oid, err = c.Insert("Part", map[string]model.Value{"name": model.String("kept"), "weight": model.Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Fetch(oid); err != nil {
		t.Fatalf("committed object missing: %v", err)
	}

	// Transaction-state errors are typed.
	if err := c.Commit(); !errors.Is(err, client.ErrTxState) {
		t.Fatalf("commit without tx: %v", err)
	}
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Begin(); !errors.Is(err, client.ErrTxState) {
		t.Fatalf("double begin: %v", err)
	}
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
}

func TestHandshakeRejections(t *testing.T) {
	db := newTestDB(t)
	az := db.Authorizer()
	az.AddRole("reader")
	s := startServer(t, db, Options{
		Authorizer:  az,
		Tokens:      map[string]string{"reader": "tok"},
		MaxSessions: 1,
	})

	// Bad token.
	if _, err := client.Dial(s.Addr().String(), client.Options{Role: "reader", Token: "wrong"}); !errors.Is(err, client.ErrAuth) {
		t.Fatalf("bad token: %v", err)
	}
	// Unknown role.
	if _, err := client.Dial(s.Addr().String(), client.Options{Role: "nobody"}); !errors.Is(err, client.ErrAuth) {
		t.Fatalf("unknown role: %v", err)
	}
	// Session limit.
	c1 := dial(t, s, client.Options{Role: "reader", Token: "tok"})
	_ = c1
	if _, err := client.Dial(s.Addr().String(), client.Options{Role: "reader", Token: "tok"}); !errors.Is(err, client.ErrServerFull) {
		t.Fatalf("over session limit: %v", err)
	}
}

// TestSessionCapNotOvershot races many concurrent handshakes against a
// small session cap: the atomic slot reservation must never admit more
// than MaxSessions, no matter how the handshakes interleave.
func TestSessionCapNotOvershot(t *testing.T) {
	db := newTestDB(t)
	const limit = 4
	s := startServer(t, db, Options{MaxSessions: limit})

	const dials = 32
	var mu sync.Mutex
	var admitted []*client.Client
	var wg sync.WaitGroup
	for i := 0; i < dials; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(s.Addr().String(), client.Options{Role: "app"})
			if err != nil {
				if !errors.Is(err, client.ErrServerFull) {
					t.Errorf("unexpected dial error: %v", err)
				}
				return
			}
			mu.Lock()
			admitted = append(admitted, c)
			mu.Unlock()
		}()
	}
	wg.Wait()
	defer func() {
		for _, c := range admitted {
			_ = c.Close()
		}
	}()
	if len(admitted) > limit {
		t.Fatalf("%d sessions admitted past cap %d", len(admitted), limit)
	}
	if got := s.Sessions(); got > limit {
		t.Fatalf("server counts %d active sessions, cap %d", got, limit)
	}
}

// TestClientFailsFastAfterTimeout: a request timeout leaves the stream
// desynchronized (the late response is still in flight), so the client
// must latch closed and fail later calls immediately with ErrClosed
// instead of writing onto the broken stream.
func TestClientFailsFastAfterTimeout(t *testing.T) {
	db := newTestDB(t)
	gate := make(chan struct{})
	s := startServer(t, db, Options{})
	s.testHook = func(verb byte) {
		if verb == proto.VerbPing {
			<-gate
		}
	}
	defer close(gate)

	c := dial(t, s, client.Options{Role: "app", RequestTimeout: 100 * time.Millisecond})
	if err := c.Ping(); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("stalled ping: %v, want ErrClosed wrap", err)
	}
	start := time.Now()
	if err := c.Ping(); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("ping after timeout: %v, want ErrClosed", err)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("call after timeout took %v; want immediate ErrClosed", elapsed)
	}
}

func TestProtocolVersionMismatch(t *testing.T) {
	db := newTestDB(t)
	s := startServer(t, db, Options{})
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	body := proto.AppendHello(nil, proto.Hello{Version: proto.Version + 7, Role: "x"})
	payload := proto.AppendRequest(nil, proto.VerbHello, 1)
	payload = append(payload, body...)
	if err := proto.WriteFrame(nc, payload); err != nil {
		t.Fatal(err)
	}
	resp, err := proto.ReadFrame(nc, proto.MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	r := proto.NewReader(resp)
	if st := r.Byte(); st != proto.StatusErr {
		t.Fatalf("status %d", st)
	}
	r.Uint32()
	if code := r.Byte(); code != proto.ErrCodeVersion {
		t.Fatalf("code %d, want ErrCodeVersion", code)
	}
}

// TestAuthorizationEnforced proves the wire surface applies the same
// lattice semantics as the embedded Session: content filtering on
// queries, typed denials on writes.
func TestAuthorizationEnforced(t *testing.T) {
	db := newTestDB(t)
	cl, err := db.ClassByName("Part")
	if err != nil {
		t.Fatal(err)
	}
	az := db.Authorizer()
	az.AddRole("reader")
	az.AddRole("writer")
	if err := az.Grant(authz.Grant{Role: "reader", Type: authz.Read, Object: authz.Class(cl.ID)}); err != nil {
		t.Fatal(err)
	}
	if err := az.Grant(authz.Grant{Role: "writer", Type: authz.Write, Object: authz.Class(cl.ID)}); err != nil {
		t.Fatal(err)
	}
	s := startServer(t, db, Options{Authorizer: az})

	w := dial(t, s, client.Options{Role: "writer"})
	oid, err := w.Insert("Part", map[string]model.Value{"name": model.String("axle"), "weight": model.Int(3)})
	if err != nil {
		t.Fatal(err)
	}

	r := dial(t, s, client.Options{Role: "reader"})
	// Reader may read...
	if _, err := r.Fetch(oid); err != nil {
		t.Fatal(err)
	}
	res, err := r.Query(`SELECT name FROM Part`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("reader query: %v %v", err, res)
	}
	// ...but not write.
	if err := r.Update(oid, map[string]model.Value{"weight": model.Int(9)}); !errors.Is(err, client.ErrDenied) {
		t.Fatalf("reader update: %v, want ErrDenied", err)
	}
	if err := r.Delete(oid); !errors.Is(err, client.ErrDenied) {
		t.Fatalf("reader delete: %v, want ErrDenied", err)
	}
	if _, err := r.Insert("Part", map[string]model.Value{"name": model.String("x")}); !errors.Is(err, client.ErrDenied) {
		t.Fatalf("reader insert: %v, want ErrDenied", err)
	}

	// A role with no grants sees an empty world, not an error (content
	// filtering, like a view).
	az.AddRole("outsider")
	o := dial(t, s, client.Options{Role: "outsider"})
	res, err = o.Query(`SELECT name FROM Part`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("outsider sees %d rows", len(res.Rows))
	}
	if _, err := o.Fetch(oid); !errors.Is(err, client.ErrDenied) {
		t.Fatalf("outsider fetch: %v, want ErrDenied", err)
	}

	// Attribute-level prohibitions: the statement list of session_test.go's
	// TestSessionAttributeHiding, through an embedded Session and over the
	// wire. The two doors must agree — refused on both for staff, the same
	// rows on both for hr — and Fetch must hide the attribute on both.
	ecl, err := db.DefineClass("Employee", nil,
		oodb.Attr{Name: "name", Domain: "String"},
		oodb.Attr{Name: "salary", Domain: "Integer"},
		oodb.Attr{Name: "boss", Domain: "Employee"})
	if err != nil {
		t.Fatal(err)
	}
	az.AddRole("hr")
	az.AddRole("staff")
	for _, g := range []authz.Grant{
		{Role: "hr", Type: authz.Write, Object: authz.ClassDeep(ecl.ID)},
		{Role: "staff", Type: authz.Read, Object: authz.ClassDeep(ecl.ID)},
		{Role: "staff", Type: authz.Read, Object: authz.Attribute(ecl.ID, "salary"), Negative: true},
	} {
		if err := az.Grant(g); err != nil {
			t.Fatal(err)
		}
	}
	alice, err := dial(t, s, client.Options{Role: "hr"}).Insert("Employee",
		map[string]model.Value{"name": model.String("alice"), "salary": model.Int(200)})
	if err != nil {
		t.Fatal(err)
	}
	for _, role := range []string{"staff", "hr"} {
		sess, wire := db.Session(az, role), dial(t, s, client.Options{Role: role})
		for _, stmt := range []string{
			`SELECT salary FROM Employee`,
			`SELECT name FROM Employee WHERE salary > 100`,
			`SELECT name FROM Employee ORDER BY salary`,
			`SELECT SUM(salary) FROM Employee`,
			`SELECT name FROM Employee WHERE boss.salary > 100`,
		} {
			eres, eerr := sess.Query(stmt)
			wres, werr := wire.Query(stmt)
			if denied := role == "staff"; errors.Is(eerr, authz.ErrDenied) != denied || errors.Is(werr, client.ErrDenied) != denied {
				t.Errorf("%s %s: embedded %v, wire %v (denied should be %v on both)", role, stmt, eerr, werr, denied)
			} else if !denied && fmt.Sprint(eres) != fmt.Sprint(wres) {
				t.Errorf("%s %s: embedded %v, wire %v", role, stmt, eres, wres)
			}
		}
		eobj, eerr := sess.Fetch(alice)
		wobj, werr := wire.Fetch(alice)
		if eerr != nil || werr != nil || fmt.Sprint(eobj) != fmt.Sprint(wobj) {
			t.Fatalf("%s fetch: embedded %v %v, wire %v %v", role, eobj, eerr, wobj, werr)
		}
		if _, visible := wobj.Attrs["salary"]; visible != (role == "hr") {
			t.Errorf("%s fetch shows salary = %v", role, visible)
		}
		_, eerr = sess.Get(alice, "salary")
		_, werr = wire.Get(alice, "salary")
		if denied := role == "staff"; errors.Is(eerr, authz.ErrDenied) != denied || errors.Is(werr, client.ErrDenied) != denied {
			t.Errorf("%s get salary: embedded %v, wire %v", role, eerr, werr)
		}
	}

	// A prohibition on a subclass's attribute: session_test.go's
	// TestSessionSubclassAttributeProhibition, through both doors. A
	// statement over Employee reads Mgr's salary too and is refused; FROM
	// ONLY Employee answers, the same rows on both.
	mgr, err := db.DefineClass("Mgr", []string{"Employee"})
	if err != nil {
		t.Fatal(err)
	}
	bob, err := dial(t, s, client.Options{Role: "hr"}).Insert("Mgr",
		map[string]model.Value{"name": model.String("bob"), "salary": model.Int(999)})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Do(func(tx *oodb.Tx) error { return tx.Update(alice, oodb.Attrs{"boss": oodb.Ref(bob)}) }); err != nil {
		t.Fatal(err)
	}
	az.AddRole("lead")
	for _, g := range []authz.Grant{
		{Role: "lead", Type: authz.Read, Object: authz.ClassDeep(ecl.ID)},
		{Role: "lead", Type: authz.Read, Object: authz.Attribute(mgr.ID, "salary"), Negative: true},
	} {
		if err := az.Grant(g); err != nil {
			t.Fatal(err)
		}
	}
	sess, wire := db.Session(az, "lead"), dial(t, s, client.Options{Role: "lead"})
	for _, stmt := range []string{
		`SELECT name, salary FROM Employee`,
		`SELECT name FROM Employee WHERE salary > 100`,
		`SELECT name FROM Employee ORDER BY salary`,
		`SELECT SUM(salary) FROM Employee`,
		`SELECT name FROM ONLY Employee WHERE boss.salary > 100`,
	} {
		_, eerr := sess.Query(stmt)
		_, werr := wire.Query(stmt)
		if !errors.Is(eerr, authz.ErrDenied) || !errors.Is(werr, client.ErrDenied) {
			t.Errorf("lead %s: embedded %v, wire %v (want denied on both)", stmt, eerr, werr)
		}
	}
	stmt := `SELECT name, salary FROM ONLY Employee ORDER BY salary`
	eres, eerr := sess.Query(stmt)
	wres, werr := wire.Query(stmt)
	if eerr != nil || werr != nil || len(eres.Rows) != 1 || fmt.Sprint(eres) != fmt.Sprint(wres) {
		t.Errorf("lead %s: embedded %v %v, wire %v %v", stmt, eres, eerr, wres, werr)
	}
}

// TestIdleSessionEviction proves an evicted session's open transaction is
// aborted and its locks released, so an abandoned client cannot wedge
// writers.
func TestIdleSessionEviction(t *testing.T) {
	db := newTestDB(t)
	s := startServer(t, db, Options{IdleTimeout: 150 * time.Millisecond})
	var oid model.OID
	if err := db.Do(func(tx *oodb.Tx) error {
		var err error
		oid, err = tx.Insert("Part", oodb.Attrs{"name": oodb.String("contended"), "weight": oodb.Int(1)})
		return err
	}); err != nil {
		t.Fatal(err)
	}

	idle := dial(t, s, client.Options{Role: "app"})
	if err := idle.Begin(); err != nil {
		t.Fatal(err)
	}
	// The idle session takes an exclusive lock and then goes silent.
	if err := idle.Update(oid, map[string]model.Value{"weight": model.Int(2)}); err != nil {
		t.Fatal(err)
	}

	evictedBefore := mSessionsEvicted.Value()
	deadline := time.Now().Add(5 * time.Second)
	for mSessionsEvicted.Value() == evictedBefore {
		if time.Now().After(deadline) {
			t.Fatal("idle session never evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The abandoned transaction's lock must be gone: a new session can
	// write the same object. (db.Do would retry a deadlock, but it cannot
	// wait out a lock that is never released — a 2s cap proves release.)
	active := dial(t, s, client.Options{Role: "app"})
	done := make(chan error, 1)
	go func() {
		done <- active.Update(oid, map[string]model.Value{"weight": model.Int(3)})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("update after eviction: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("update blocked: evicted session's locks not released")
	}

	// The evicted client's connection is dead.
	if err := idle.Ping(); err == nil {
		t.Fatal("evicted session still answers")
	}
}

// TestPipelinedRequestsAnsweredInOrder pipelines pings behind one held in
// execution: a session serves one request at a time, so every later ping
// waits in TCP, none is shed, and the answers come back in request order.
func TestPipelinedRequestsAnsweredInOrder(t *testing.T) {
	db := newTestDB(t)
	s := startServer(t, db, Options{MaxInFlight: 64})
	held, gate := make(chan struct{}), make(chan struct{})
	var pings atomic.Int32
	s.testHook = func(verb byte) {
		if verb == proto.VerbPing && pings.Add(1) == 1 {
			close(held)
			<-gate
		}
	}
	nc := rawDial(t, s, true)

	shedBefore := mReqShed.Value()
	const n = 10 // seqs 2..11
	for seq := uint32(2); seq < 2+n; seq++ {
		if err := proto.WriteFrame(nc, proto.AppendRequest(nil, proto.VerbPing, seq)); err != nil {
			t.Fatal(err)
		}
		if seq == 2 {
			<-held
		}
	}
	// Give a server that reads ahead of execution time to read the rest.
	time.Sleep(100 * time.Millisecond)
	close(gate)
	_ = nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	for want := uint32(2); want < 2+n; want++ {
		resp, err := proto.ReadFrame(nc, proto.MaxFrame)
		if err != nil {
			t.Fatalf("response for seq %d: %v", want, err)
		}
		r := proto.NewReader(resp)
		if st, seq := r.Byte(), r.Uint32(); st != proto.StatusOK || seq != want {
			t.Fatalf("response %d: status %d seq %d, want OK seq %d", want-2, st, seq, want)
		}
	}
	if d := mReqShed.Value() - shedBefore; d != 0 {
		t.Fatalf("server_requests_shed_total moved by %d", d)
	}
}

// TestBusySessionNotEvicted holds one request for longer than the idle
// limit: a session executing a request is busy, not idle, so the request is
// answered, the session lives on and nothing is evicted.
func TestBusySessionNotEvicted(t *testing.T) {
	db := newTestDB(t)
	s := startServer(t, db, Options{IdleTimeout: 150 * time.Millisecond})
	var pings atomic.Int32
	s.testHook = func(verb byte) {
		if verb == proto.VerbPing && pings.Add(1) == 1 {
			time.Sleep(400 * time.Millisecond)
		}
	}
	c := dial(t, s, client.Options{Role: "app"})
	evictedBefore := mSessionsEvicted.Value()
	if err := c.Ping(); err != nil {
		t.Fatalf("held ping: %v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after held ping: %v", err)
	}
	if d := mSessionsEvicted.Value() - evictedBefore; d != 0 {
		t.Fatalf("server_sessions_evicted_total moved by %d", d)
	}
}

// TestPanicIsolation injects a panic into one session's request: that
// session dies, its transaction aborts, and the server keeps serving
// other sessions.
func TestPanicIsolation(t *testing.T) {
	db := newTestDB(t)
	s := startServer(t, db, Options{})
	var once sync.Once
	s.testHook = func(verb byte) {
		if verb == proto.VerbPing {
			var fire bool
			once.Do(func() { fire = true })
			if fire {
				panic("injected")
			}
		}
	}

	victim := dial(t, s, client.Options{Role: "app"})
	before := mConnPanics.Value()
	_ = victim.Ping() // the injected panic kills this session
	deadline := time.Now().Add(2 * time.Second)
	for mConnPanics.Value() == before {
		if time.Now().After(deadline) {
			t.Fatal("panic not recorded")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Server still healthy for a new session.
	healthy := dial(t, s, client.Options{Role: "app"})
	if err := healthy.Ping(); err != nil {
		t.Fatalf("server unhealthy after isolated panic: %v", err)
	}
}

// TestConcurrentSessions is the -race stress: many sessions doing mixed
// reads, writes and transactions at once.
func TestConcurrentSessions(t *testing.T) {
	db := newTestDB(t)
	s := startServer(t, db, Options{MaxInFlight: 32})

	const sessions = 16
	const opsPer = 20
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := client.Dial(s.Addr().String(), client.Options{Role: "app"})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for op := 0; op < opsPer; op++ {
				oid, err := c.Insert("Part", map[string]model.Value{
					"name":   model.String(fmt.Sprintf("p-%d-%d", id, op)),
					"weight": model.Int(int64(op)),
				})
				if err != nil {
					errs <- fmt.Errorf("insert: %w", err)
					return
				}
				if _, err := c.Get(oid, "weight"); err != nil {
					errs <- fmt.Errorf("get: %w", err)
					return
				}
				if op%3 == 0 {
					if err := c.Update(oid, map[string]model.Value{"weight": model.Int(int64(op + 100))}); err != nil {
						errs <- fmt.Errorf("update: %w", err)
						return
					}
				}
				if op%5 == 0 {
					if _, err := c.QuerySnapshot(fmt.Sprintf(`SELECT name FROM Part WHERE weight = %d`, op)); err != nil {
						errs <- fmt.Errorf("snapshot query: %w", err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil && !client.Retryable(err) {
			t.Fatal(err)
		}
	}

	res, err := db.Query(`SELECT * FROM Part`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != sessions*opsPer {
		t.Fatalf("rows = %d, want %d", len(res.Rows), sessions*opsPer)
	}
}

// TestPerVerbRequestCounters sends each verb over the wire once and checks
// that exactly its own server_requests_<verb>_total moved, by one.
func TestPerVerbRequestCounters(t *testing.T) {
	db := newTestDB(t)
	s := startServer(t, db, Options{})
	c := dial(t, s, client.Options{Role: "app"})

	perVerb := func() map[string]uint64 {
		m := map[string]uint64{}
		for name, v := range obs.TakeSnapshot().Counters {
			if strings.HasPrefix(name, "server_requests_") && name != "server_requests_shed_total" && name != "server_requests_errors_total" {
				m[name] = v
			}
		}
		return m
	}
	var oid model.OID
	steps := []struct {
		verb string
		call func() error
	}{
		{"ping", c.Ping},
		{"classes", func() error { _, err := c.Classes(); return err }},
		{"insert", func() (err error) {
			oid, err = c.Insert("Part", map[string]model.Value{"weight": model.Int(1)})
			return err
		}},
		{"fetch", func() error { _, err := c.Fetch(oid); return err }},
		{"get", func() error { _, err := c.Get(oid, "weight"); return err }},
		{"update", func() error { return c.Update(oid, map[string]model.Value{"weight": model.Int(2)}) }},
		{"query", func() error { _, err := c.Query(`SELECT weight FROM Part`); return err }},
		{"snapshot", func() error { _, err := c.QuerySnapshot(`SELECT weight FROM Part`); return err }},
		{"begin", c.Begin},
		{"commit", c.Commit},
		{"begin", c.Begin},
		{"commitasync", c.CommitAsync},
		{"begin", c.Begin},
		{"abort", c.Abort},
		{"delete", func() error { return c.Delete(oid) }},
	}
	seen := map[string]bool{}
	for _, st := range steps {
		before := perVerb()
		if err := st.call(); err != nil {
			t.Fatalf("%s: %v", st.verb, err)
		}
		after := perVerb()
		own := "server_requests_" + st.verb + "_total"
		if _, ok := after[own]; !ok {
			t.Fatalf("%s: no counter %s", st.verb, own)
		}
		for name, v := range after {
			want := before[name]
			if name == own {
				want++
			}
			if v != want {
				t.Errorf("%s: %s = %d, want %d", st.verb, name, v, want)
			}
		}
		seen[st.verb] = true
	}
	if len(seen) != 13 {
		t.Fatalf("exercised %d verbs, want 13", len(seen))
	}
}
