package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"oodb"
	"oodb/internal/authz"
	"oodb/internal/core"
	"oodb/internal/obs"
	"oodb/internal/schema"
	"oodb/internal/server/proto"
	"oodb/internal/storage"
	"oodb/internal/txn"
)

// conn is one client session, served by one goroutine: it reads a frame,
// executes it, writes the response and reads the next, so pipelined
// requests are answered in order and TCP holds the ones not yet read. The
// oodb.Session — role and explicit transaction — is touched only by that
// goroutine, so it needs no locks.
type conn struct {
	srv  *Server
	nc   net.Conn
	br   *bufio.Reader
	id   uint64
	sess *oodb.Session
}

// serveConn owns the connection lifecycle: handshake, request loop,
// teardown. Runs on its own goroutine per accepted connection.
func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	c := &conn{srv: s, nc: nc, br: bufio.NewReaderSize(&countingReader{r: nc}, 32<<10)}
	if !c.handshake() {
		_ = nc.Close()
		return
	}
	// A Drain that swept s.conns before addConn never kicks this session;
	// serve's first flag check sees that drain instead.
	s.addConn(c)
	mSessionsOpened.Add(1)
	mSessionsActive.Set(s.sessions.Load())

	evicted := c.serve()

	// Teardown: an open transaction at session end is aborted — this is
	// what releases an evicted or crashed session's locks.
	if err := c.sess.Abort(); !errors.Is(err, oodb.ErrNoTx) && (evicted || s.draining.Load()) {
		mDrainAborts.Add(1)
	}
	_ = nc.Close()
	s.removeConn(c)
	mSessionsActive.Set(s.sessions.Add(-1))
}

// countingReader feeds the bytes-in counter under the bufio reader.
type countingReader struct{ r io.Reader }

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if n > 0 {
		mBytesIn.Add(uint64(n))
	}
	return n, err
}

// handshake reads and answers the hello frame. It reports whether the
// session may proceed; on success the session slot in s.sessions is
// already reserved (teardown in serveConn releases it).
func (c *conn) handshake() bool {
	s := c.srv
	_ = c.nc.SetReadDeadline(time.Now().Add(handshakeTimeout))
	payload, err := proto.ReadFrame(c.br, s.maxFrame)
	if err != nil {
		if errors.Is(err, proto.ErrFrameTooLarge) {
			c.writeResponse(proto.AppendError(nil, 0, proto.ErrCodeTooLarge, err.Error()))
		}
		mSessionsRejected.Add(1)
		return false
	}
	r := proto.NewReader(payload)
	verb := r.Byte()
	seq := r.Uint32()
	hello, herr := proto.ReadHello(r)
	reject := func(code byte, msg string) bool {
		mSessionsRejected.Add(1)
		c.writeResponse(proto.AppendError(nil, seq, code, msg))
		return false
	}
	switch {
	case verb != proto.VerbHello || herr != nil:
		return reject(proto.ErrCodeBadRequest, "malformed handshake")
	case hello.Version != proto.Version:
		return reject(proto.ErrCodeVersion,
			fmt.Sprintf("protocol version %d not supported (server speaks %d)", hello.Version, proto.Version))
	case s.draining.Load():
		return reject(proto.ErrCodeDraining, "server is draining")
	}
	if s.opts.Tokens != nil {
		want, ok := s.opts.Tokens[hello.Role]
		if !ok || want != hello.Token {
			return reject(proto.ErrCodeAuth, "unknown role or bad token")
		}
	}
	// Reserve the session slot last — a handshake refused for any other
	// reason never holds one, so it cannot make the next dial see a full
	// server — and atomically: N concurrent handshakes racing a
	// check-then-increment could all pass a bare Load comparison and
	// overshoot the cap.
	if s.sessions.Add(1) > int64(s.opts.MaxSessions) {
		s.sessions.Add(-1)
		return reject(proto.ErrCodeServerFull,
			fmt.Sprintf("session limit %d reached", s.opts.MaxSessions))
	}
	c.id = s.sessionSeq.Add(1)
	c.sess = s.db.Session(s.opts.Authorizer, hello.Role)
	resp := proto.AppendOK(nil, seq)
	resp = proto.AppendWelcome(resp, proto.Welcome{Version: proto.Version, SessionID: c.id})
	if !c.writeResponse(resp) {
		s.sessions.Add(-1)
		return false
	}
	return true
}

// serve reads, executes and answers requests one at a time until the
// client hangs up, the session idles out, a drain stops it or a request
// kills it. It reports whether the session was evicted for idling: the read
// deadline is the idle limit, and it runs only while the session waits for
// its client, so a long request is busy, not idle.
func (c *conn) serve() (evicted bool) {
	s := c.srv
	for {
		// Deadline before flag: Drain sets the flag and then kicks each
		// session with an immediate deadline, so a drain that began before
		// this check is seen here and one that begins after it kicks the
		// read below.
		_ = c.nc.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
		if s.draining.Load() {
			return false
		}
		payload, err := proto.ReadFrame(c.br, s.maxFrame)
		if err != nil {
			switch {
			case errors.Is(err, proto.ErrFrameTooLarge):
				// The stream is unsynchronized past a refused length
				// prefix; answer with the typed error and hang up.
				c.writeResponse(proto.AppendError(nil, 0, proto.ErrCodeTooLarge, err.Error()))
			case errors.Is(err, os.ErrDeadlineExceeded) && !s.draining.Load():
				mSessionsEvicted.Add(1)
				obs.Logf("server: session %d (%s) evicted after idle timeout", c.id, c.sess.Role())
				return true
			}
			return false
		}
		if len(payload) < 5 {
			// Too short to carry verb+seq. The frame boundary is intact,
			// so the connection survives; seq 0 tells the client this
			// response matches no request it can identify.
			if !c.writeResponse(proto.AppendError(nil, 0, proto.ErrCodeBadRequest, "short request")) {
				return false
			}
			continue
		}
		resp, ok := c.execute(payload)
		if !c.writeResponse(resp) || !ok {
			return false
		}
	}
}

// execute runs one request (verb, seq, body) under the global in-flight
// cap, with panic isolation, and returns the encoded response; ok is false
// when the session must end once it is written.
func (c *conn) execute(payload []byte) (resp []byte, ok bool) {
	s := c.srv
	at := time.Now()
	r := proto.NewReader(payload)
	verb, seq := r.Byte(), r.Uint32()
	// Global admission: a bounded wait for an execution slot, then shed.
	select {
	case s.inflight <- struct{}{}:
	default:
		t := time.NewTimer(queueWait)
		select {
		case s.inflight <- struct{}{}:
			t.Stop()
		case <-t.C:
			mReqShed.Add(1)
			return proto.AppendError(nil, seq, proto.ErrCodeRetryable,
				"server over capacity; retry"), true
		}
	}
	mReqInflight.Add(1)
	defer func() {
		<-s.inflight
		mReqInflight.Add(-1)
		mReqLatencyNs.Observe(uint64(time.Since(at)))
		if p := recover(); p != nil {
			// Panic isolation: the fault is confined to this session. Its
			// transaction state is unknowable, so teardown aborts it and
			// the connection closes; the server keeps serving.
			mConnPanics.Add(1)
			obs.Logf("server: session %d: panic in %s: %v", c.id, proto.VerbName(verb), p)
			resp, ok = proto.AppendError(nil, seq, proto.ErrCodeInternal,
				fmt.Sprintf("internal error in %s", proto.VerbName(verb))), false
		}
	}()
	if hook := s.testHook; hook != nil {
		hook(verb)
	}
	countVerb(verb)
	body, err := c.dispatch(verb, r)
	if err != nil {
		mReqErrors.Add(1)
		return proto.AppendError(nil, seq, errCode(err), err.Error()), true
	}
	return append(proto.AppendOK(nil, seq), body...), true
}

func countVerb(verb byte) {
	if int(verb) < len(mReqVerb) && mReqVerb[verb] != nil {
		mReqVerb[verb].Add(1)
	}
}

// errCode maps engine errors to wire codes. The codes, not the message
// strings, are the client-facing contract.
func errCode(err error) byte {
	switch {
	case errors.Is(err, authz.ErrNoSuchRole):
		return proto.ErrCodeAuth
	case errors.Is(err, authz.ErrDenied):
		return proto.ErrCodeDenied
	case errors.Is(err, storage.ErrNoObject), errors.Is(err, storage.ErrNoRecord),
		errors.Is(err, schema.ErrNoSuchClass), errors.Is(err, schema.ErrNoSuchAttribute):
		return proto.ErrCodeNotFound
	case errors.Is(err, txn.ErrDeadlock):
		return proto.ErrCodeConflict
	case errors.Is(err, core.ErrPoisoned), errors.Is(err, core.ErrClosed):
		return proto.ErrCodeUnavailable
	case errors.Is(err, core.ErrTxnFinished), errors.Is(err, core.ErrReadOnlyTxn),
		errors.Is(err, oodb.ErrTxOpen), errors.Is(err, oodb.ErrNoTx):
		return proto.ErrCodeTxState
	case errors.Is(err, proto.ErrMalformed), errors.Is(err, schema.ErrDomain):
		return proto.ErrCodeBadRequest
	default:
		return proto.ErrCodeInternal
	}
}

// writeResponse frames and writes one response under the write deadline,
// as one Write call. It reports whether the write succeeded.
func (c *conn) writeResponse(payload []byte) bool {
	framed := proto.AppendFrame(make([]byte, 0, len(payload)+4), payload)
	_ = c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	n, err := c.nc.Write(framed)
	mBytesOut.Add(uint64(n))
	return err == nil
}

// --- Request dispatch ---------------------------------------------------

// dispatch decodes one request body, makes the one Session call it names
// and returns the encoded response body. What a role may see or write is
// decided there, not here.
func (c *conn) dispatch(verb byte, r *proto.Reader) ([]byte, error) {
	sess := c.sess
	switch verb {
	case proto.VerbPing:
		return nil, nil
	case proto.VerbClasses:
		names, err := sess.Classes()
		if err != nil {
			return nil, err
		}
		return proto.AppendStrings(nil, names), nil
	case proto.VerbQuery, proto.VerbQuerySnapshot:
		src := r.ReadString()
		if err := r.Err(); err != nil {
			return nil, err
		}
		run := sess.Query
		if verb == proto.VerbQuerySnapshot {
			run = sess.QuerySnapshot
		}
		res, err := run(src)
		if err != nil {
			return nil, err
		}
		return proto.AppendResult(nil, res), nil
	case proto.VerbFetch:
		oid := r.OID()
		if err := r.Err(); err != nil {
			return nil, err
		}
		obj, err := sess.Fetch(oid)
		if err != nil {
			return nil, err
		}
		return proto.AppendObject(nil, obj), nil
	case proto.VerbGet:
		oid := r.OID()
		attr := r.ReadString()
		if err := r.Err(); err != nil {
			return nil, err
		}
		v, err := sess.Get(oid, attr)
		if err != nil {
			return nil, err
		}
		return proto.AppendValue(nil, v), nil
	case proto.VerbInsert:
		class := r.ReadString()
		attrs := r.Attrs()
		if err := r.Err(); err != nil {
			return nil, err
		}
		oid, err := sess.Insert(class, attrs)
		if err != nil {
			return nil, err
		}
		return proto.AppendOID(nil, oid), nil
	case proto.VerbUpdate:
		oid := r.OID()
		attrs := r.Attrs()
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, sess.Update(oid, attrs)
	case proto.VerbDelete:
		oid := r.OID()
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, sess.Delete(oid)
	case proto.VerbBegin:
		return nil, sess.Begin()
	case proto.VerbCommit:
		return nil, sess.Commit()
	case proto.VerbCommitAsync:
		return nil, sess.CommitAsync()
	case proto.VerbAbort:
		return nil, sess.Abort()
	default:
		return nil, fmt.Errorf("%w: unknown verb %d", proto.ErrMalformed, verb)
	}
}
