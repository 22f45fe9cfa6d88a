package server

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"oodb/internal/model"
	"oodb/internal/server/client"
)

// TestClassesVerb pins the schema-discovery verb: sorted class names over
// the wire.
func TestClassesVerb(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.DefineClass("Assembly", nil); err != nil {
		t.Fatal(err)
	}
	s := startServer(t, db, Options{})
	c := dial(t, s, client.Options{Role: "app"})
	names, err := c.Classes()
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for i, n := range names {
		found[n] = true
		if i > 0 && names[i-1] > n {
			t.Fatalf("class list not sorted: %v", names)
		}
	}
	if !found["Part"] || !found["Assembly"] {
		t.Fatalf("classes = %v", names)
	}
}

// TestRedialerHealsLatchedClient is the PR 9 limitation fixed: a client
// latches closed when its server goes away, and a bare *Client stays dead
// forever. The Redialer transparently re-establishes across a server
// restart on the same address.
func TestRedialerHealsLatchedClient(t *testing.T) {
	db := newTestDB(t)
	s := New(db, Options{})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	addr := s.Addr().String()

	rd := client.NewRedialer(addr, client.Options{Role: "app", RequestTimeout: 2 * time.Second})
	defer rd.Close()

	var oid model.OID
	err := rd.Do(func(c *client.Client) error {
		var err error
		oid, err = c.Insert("Part", map[string]model.Value{"name": model.String("cam")})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// Kill the server. The cached client's next call fails with ErrClosed
	// and latches; Do must discard it, redial, and succeed once a server
	// is back on the same address.
	if err := s.Drain(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := rd.Do(func(c *client.Client) error { return c.Ping() }); err == nil {
		t.Fatal("ping succeeded with server down")
	}

	s2 := New(db, Options{Addr: addr})
	// The dead listener's port may take a moment to rebind under load.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := s2.Start(); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Cleanup(func() { _ = s2.Drain(2 * time.Second) })

	// The failed dial above armed a short backoff window; poll past it.
	deadline = time.Now().Add(5 * time.Second)
	for {
		err := rd.Do(func(c *client.Client) error {
			_, err := c.Fetch(oid)
			return err
		})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("redialer never recovered: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRedialerDoAtMostOnce pins the heal/at-most-once split: Do retries
// only failures that provably preceded the send (a latched-closed
// client, client.NotSent), and returns mid-round-trip connection errors
// without re-sending — a non-idempotent request the server may already
// have executed is never blindly sent twice. DoIdempotent opts into the
// broader heal.
func TestRedialerDoAtMostOnce(t *testing.T) {
	db := newTestDB(t)
	s := startServer(t, db, Options{})
	rd := client.NewRedialer(s.Addr().String(), client.Options{Role: "app"})
	defer rd.Close()

	// Latch the cached connection closed behind the redialer's back: the
	// next request fails before anything reaches the wire, so Do must
	// transparently redial and run it on the fresh connection.
	c, err := rd.Client()
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	calls := 0
	err = rd.Do(func(c *client.Client) error {
		calls++
		return c.Ping()
	})
	if err != nil {
		t.Fatalf("Do over a latched client: %v", err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (latched attempt + healed retry)", calls)
	}

	// A connection error surfaced mid-round-trip (after the send) is NOT
	// retried: the server may have executed the request already.
	calls = 0
	err = rd.Do(func(c *client.Client) error {
		calls++
		return fmt.Errorf("%w: response lost mid-flight", client.ErrClosed)
	})
	if !errors.Is(err, client.ErrClosed) {
		t.Fatalf("mid-flight error = %v", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (no blind re-send)", calls)
	}

	// DoIdempotent accepts the double-execution risk: the same mid-flight
	// error is retried once on a fresh connection.
	calls = 0
	err = rd.DoIdempotent(func(c *client.Client) error {
		calls++
		if calls == 1 {
			return fmt.Errorf("%w: response lost mid-flight", client.ErrClosed)
		}
		return c.Ping()
	})
	if err != nil {
		t.Fatalf("DoIdempotent: %v", err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (mid-flight attempt + retry)", calls)
	}
}

// TestRedialerBackoffFailsFast pins the rate limit: with the server down,
// the first Client() call pays a real dial attempt, and a call inside the
// backoff window fails immediately without dialing.
func TestRedialerBackoffFailsFast(t *testing.T) {
	// An address nothing listens on: a bound-then-closed ephemeral port.
	db := newTestDB(t)
	s := New(db, Options{})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	addr := s.Addr().String()
	if err := s.Drain(time.Second); err != nil {
		t.Fatal(err)
	}

	rd := client.NewRedialer(addr, client.Options{})
	defer rd.Close()

	if _, err := rd.Client(); err == nil {
		t.Fatal("dial to dead server succeeded")
	}
	start := time.Now()
	if _, err := rd.Client(); err == nil {
		t.Fatal("second dial succeeded")
	} else if time.Since(start) > 100*time.Millisecond {
		t.Fatalf("backoff window dialed instead of failing fast (%v)", time.Since(start))
	}

	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Client(); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("after Close: %v", err)
	}
}
