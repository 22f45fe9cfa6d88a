package server

import (
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"oodb/internal/model"
	"oodb/internal/server/client"
	"oodb/internal/server/proto"
)

// rawDial opens a TCP connection and optionally completes a valid
// handshake, returning the socket for raw frame injection.
func rawDial(t *testing.T, s *Server, handshake bool) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	if handshake {
		hello := proto.AppendRequest(nil, proto.VerbHello, 1)
		hello = proto.AppendHello(hello, proto.Hello{Version: proto.Version, Role: "fuzz"})
		if err := proto.WriteFrame(nc, hello); err != nil {
			t.Fatal(err)
		}
		if _, err := proto.ReadFrame(nc, proto.MaxFrame); err != nil {
			t.Fatal(err)
		}
	}
	return nc
}

// TestMalformedFramesNeverCrash throws random junk at the server — raw
// garbage bytes, well-framed junk bodies, truncated requests, and real
// verbs with corrupt bodies — before and after handshake. The invariants:
// the server process survives with zero recorded panics, and an honest
// client still gets service afterwards.
func TestMalformedFramesNeverCrash(t *testing.T) {
	db := newTestDB(t)
	s := New(db, Options{})
	s.maxFrame = 1 << 16
	start(t, s)
	panicsBefore := mConnPanics.Value()
	rng := rand.New(rand.NewSource(42))

	drainConn := func(nc net.Conn) {
		_ = nc.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		_, _ = io.Copy(io.Discard, nc)
	}

	// Round 1: raw garbage streams straight at the handshake.
	for i := 0; i < 50; i++ {
		nc := rawDial(t, s, false)
		junk := make([]byte, rng.Intn(512))
		rng.Read(junk)
		_, _ = nc.Write(junk)
		drainConn(nc)
		nc.Close()
	}

	// Round 2: well-framed junk bodies on handshaken sessions — every
	// verb value (known and unknown), random body bytes.
	for i := 0; i < 100; i++ {
		nc := rawDial(t, s, true)
		for j := 0; j < 5; j++ {
			body := make([]byte, 5+rng.Intn(128))
			rng.Read(body)
			body[0] = byte(rng.Intn(40)) // verbs 0..39, mostly invalid
			if err := proto.WriteFrame(nc, body); err != nil {
				break
			}
		}
		drainConn(nc)
		nc.Close()
	}

	// Round 3: frames shorter than a verb+seq header.
	for i := 0; i < 20; i++ {
		nc := rawDial(t, s, true)
		_ = proto.WriteFrame(nc, make([]byte, rng.Intn(5)))
		drainConn(nc)
		nc.Close()
	}

	// Round 4: an oversized length prefix must be refused with a typed
	// error before the server allocates, then the connection hangs up.
	nc := rawDial(t, s, true)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(s.maxFrame+1))
	if _, err := nc.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err := proto.ReadFrame(nc, proto.MaxFrame)
	if err != nil {
		t.Fatalf("no typed response to oversized frame: %v", err)
	}
	r := proto.NewReader(resp)
	if st := r.Byte(); st != proto.StatusErr {
		t.Fatalf("status %d", st)
	}
	r.Uint32()
	if code := r.Byte(); code != proto.ErrCodeTooLarge {
		t.Fatalf("code %d, want ErrCodeTooLarge", code)
	}
	if _, err := proto.ReadFrame(nc, proto.MaxFrame); err == nil {
		t.Fatal("connection stayed open after oversized frame")
	}

	// Round 5: valid verbs with truncated/corrupt bodies through the
	// dispatcher (these reach dispatch and must fail as BadRequest, not
	// panic).
	nc2 := rawDial(t, s, true)
	seq := uint32(100)
	for _, verb := range []byte{proto.VerbQuery, proto.VerbFetch, proto.VerbGet,
		proto.VerbInsert, proto.VerbUpdate, proto.VerbDelete} {
		for i := 0; i < 20; i++ {
			seq++
			req := proto.AppendRequest(nil, verb, seq)
			tail := make([]byte, rng.Intn(32))
			rng.Read(tail)
			req = append(req, tail...)
			if err := proto.WriteFrame(nc2, req); err != nil {
				t.Fatal(err)
			}
			_ = nc2.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := proto.ReadFrame(nc2, proto.MaxFrame); err != nil {
				t.Fatalf("verb %s corrupt body %d: connection died: %v", proto.VerbName(verb), i, err)
			}
		}
	}
	nc2.Close()

	// Round 6: a deeply nested set value in an Insert body. Two bytes per
	// nesting level means a single frame can claim hundreds of thousands
	// of levels; unbounded decode recursion would overflow the worker's
	// stack — a fatal runtime error recover() cannot contain. The decoder
	// must refuse it as a bad request and keep the connection alive.
	nc3 := rawDial(t, s, true)
	deep := proto.AppendRequest(nil, proto.VerbInsert, 1)
	deep = proto.AppendString(deep, "Part")
	deep = proto.AppendUvarint(deep, 1) // one attribute
	deep = proto.AppendString(deep, "name")
	for i := 0; i < 20000; i++ {
		deep = append(deep, 7 /* KindSet */, 1)
	}
	if err := proto.WriteFrame(nc3, deep); err != nil {
		t.Fatal(err)
	}
	_ = nc3.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err = proto.ReadFrame(nc3, proto.MaxFrame)
	if err != nil {
		t.Fatalf("deep-set insert: connection died: %v", err)
	}
	r = proto.NewReader(resp)
	if st := r.Byte(); st != proto.StatusErr {
		t.Fatalf("deep-set insert: status %d", st)
	}
	r.Uint32()
	if code := r.Byte(); code != proto.ErrCodeBadRequest {
		t.Fatalf("deep-set insert: code %d, want ErrCodeBadRequest", code)
	}
	nc3.Close()

	if got := mConnPanics.Value(); got != panicsBefore {
		t.Fatalf("server recorded %d panics under fuzz", got-panicsBefore)
	}

	// The server still serves honest clients.
	c := dial(t, s, client.Options{Role: "app"})
	if err := c.Ping(); err != nil {
		t.Fatalf("server unhealthy after fuzz: %v", err)
	}
	oid, err := c.Insert("Part", map[string]model.Value{"name": model.String("ok"), "weight": model.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fetch(oid); err != nil {
		t.Fatal(err)
	}
}
