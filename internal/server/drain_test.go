package server

import (
	"sync"
	"testing"
	"time"

	"oodb"
	"oodb/internal/model"
	"oodb/internal/obs"
	"oodb/internal/server/client"
	"oodb/internal/server/proto"
)

// TestDrainUnderLoad is the shutdown-correctness regression: drain the
// server while writers are mid-commit and prove that (a) every commit the
// server acknowledged is durable across a restart — zero committed-
// transaction loss, (b) new dials are refused once draining, and (c) the
// drain checkpointed the engine.
func TestDrainUnderLoad(t *testing.T) {
	dir := t.TempDir()
	db, err := oodb.Open(dir, oodb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineClass("Part", nil,
		oodb.Attr{Name: "name", Domain: "String"},
		oodb.Attr{Name: "weight", Domain: "Integer"},
	); err != nil {
		t.Fatal(err)
	}
	s := New(db, Options{})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}

	// Writers hammer explicit transactions; each records the OIDs whose
	// Commit the server acknowledged. Anything acked before or during the
	// drain must survive the restart.
	const writers = 8
	var mu sync.Mutex
	var acked []model.OID
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := client.Dial(s.Addr().String(), client.Options{Role: "app"})
			if err != nil {
				return
			}
			defer c.Close()
			for n := 0; ; n++ {
				if err := c.Begin(); err != nil {
					return
				}
				oid, err := c.Insert("Part", map[string]model.Value{
					"name":   model.String("drained"),
					"weight": model.Int(int64(id*1000 + n)),
				})
				if err != nil {
					return
				}
				if err := c.Commit(); err != nil {
					return
				}
				mu.Lock()
				acked = append(acked, oid)
				mu.Unlock()
			}
		}(i)
	}

	// Let load build, then drain mid-flight.
	time.Sleep(100 * time.Millisecond)
	ckptBefore := obs.TakeSnapshot().Histograms["core_checkpoint_duration_ns"].Count
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()

	if len(acked) == 0 {
		t.Fatal("no commits acknowledged before drain; load never started")
	}
	t.Logf("drain landed with %d acknowledged commits", len(acked))

	// (b) New dials are refused.
	if _, err := client.Dial(s.Addr().String(), client.Options{Role: "app"}); err == nil {
		t.Fatal("dial succeeded against a drained server")
	}
	if !s.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	// Second drain reports closed rather than re-running.
	if err := s.Drain(time.Second); err != ErrServerClosed {
		t.Fatalf("second drain: %v, want ErrServerClosed", err)
	}

	// (c) The drain checkpointed.
	if after := obs.TakeSnapshot().Histograms["core_checkpoint_duration_ns"].Count; after <= ckptBefore {
		t.Fatalf("checkpoint count %d not above %d: drain did not checkpoint", after, ckptBefore)
	}

	// (a) Zero committed-transaction loss: restart and re-read every
	// acknowledged OID.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := oodb.Open(dir, oodb.Options{})
	if err != nil {
		t.Fatalf("reopen after drain: %v", err)
	}
	defer db2.Close()
	for _, oid := range acked {
		if _, err := db2.Fetch(oid); err != nil {
			t.Fatalf("acknowledged commit %v lost across drain+restart: %v", oid, err)
		}
	}
}

// TestDrainIdleSessions proves drain completes promptly when sessions are
// connected but quiet, and aborts a straggler's open transaction.
func TestDrainIdleSessions(t *testing.T) {
	db := newTestDB(t)
	s := New(db, Options{})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(s.Addr().String(), client.Options{Role: "app"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	oid, err := c.Insert("Part", map[string]model.Value{"name": model.String("orphan"), "weight": model.Int(1)})
	if err != nil {
		t.Fatal(err)
	}

	abortsBefore := mDrainAborts.Value()
	start := time.Now()
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("drain of idle sessions took %v", d)
	}
	if mDrainAborts.Value() != abortsBefore+1 {
		t.Fatalf("drain aborts = %d, want %d", mDrainAborts.Value(), abortsBefore+1)
	}
	// The straggler's uncommitted insert must not exist.
	if _, err := db.Fetch(oid); err == nil {
		t.Fatal("uncommitted insert survived drain")
	}
}

// TestDrainKicksIdleAndBusySessions drains with one session idle in its
// read and one in the middle of a request: the idle one is kicked out of
// its read at once, the busy one answers its request and then stops, and
// Drain returns well before its timeout with nothing to abort.
func TestDrainKicksIdleAndBusySessions(t *testing.T) {
	db := newTestDB(t)
	s := New(db, Options{})
	held, gate := make(chan struct{}), make(chan struct{})
	s.testHook = func(verb byte) {
		if verb == proto.VerbPing {
			close(held)
			<-gate
		}
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	idle := dial(t, s, client.Options{Role: "app"})
	busy := dial(t, s, client.Options{Role: "app"})
	if _, err := idle.Classes(); err != nil {
		t.Fatal(err)
	}
	answered := make(chan error, 1)
	go func() { answered <- busy.Ping() }()
	<-held

	abortsBefore := mDrainAborts.Value()
	const timeout = 10 * time.Second
	start := time.Now()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(timeout) }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let the kicks land mid-request
	close(gate)
	if err := <-answered; err != nil {
		t.Fatalf("mid-request response not delivered: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > timeout/4 {
		t.Fatalf("drain took %v of its %v timeout", d, timeout)
	}
	if d := mDrainAborts.Value() - abortsBefore; d != 0 {
		t.Fatalf("server_drain_aborted_txns_total moved by %d", d)
	}
	if _, err := idle.Classes(); err == nil {
		t.Fatal("idle session still answers after drain")
	}
}
