package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"oodb/internal/authz"
	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/obs"
	"oodb/internal/query"
	"oodb/internal/schema"
	"oodb/internal/server/proto"
	"oodb/internal/storage"
	"oodb/internal/txn"
	"oodb/internal/workspace"
)

// wsCacheCap bounds each session's workspace cache (objects, not bytes).
const wsCacheCap = 4096

// request is one decoded frame waiting for the session worker.
type request struct {
	verb byte
	seq  uint32
	body []byte
	at   time.Time
}

// conn is one client session. Two goroutines serve it: the reader decodes
// frames and enqueues them (shedding on overflow without blocking), the
// worker executes them in order and writes responses. The explicit
// transaction and the workspace are touched only by the worker, so they
// need no locks; teardown runs after both goroutines exit.
type conn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader
	id  uint64

	role string
	ws   *workspace.Workspace
	tx   *core.Tx

	lastActive atomic.Int64
	draining   atomic.Bool
	evicted    atomic.Bool
	dead       atomic.Bool // worker hit a panic or fatal write error

	queue chan request
}

// serveConn owns the connection lifecycle: handshake, reader loop, worker,
// teardown. Runs on its own goroutine per accepted connection.
func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	c := &conn{
		srv:   s,
		nc:    nc,
		br:    bufio.NewReaderSize(&countingReader{r: nc}, 32<<10),
		queue: make(chan request, s.opts.SessionQueue),
	}
	c.lastActive.Store(time.Now().UnixNano())
	if !c.handshake() {
		_ = nc.Close()
		return
	}
	s.addConn(c)
	// A Drain that swept s.conns between the handshake's draining check
	// and addConn never saw this connection; re-check so it still gets
	// its read-deadline kick instead of idling out the drain timeout.
	if s.draining.Load() {
		c.startDrain()
	}
	mSessionsOpened.Add(1)
	mSessionsActive.Set(s.sessions.Load())

	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		c.workerLoop()
	}()
	c.readerLoop()
	close(c.queue)
	<-workerDone

	// Teardown: an open transaction at session end is aborted — this is
	// what releases an evicted or crashed session's locks.
	if c.tx != nil {
		if c.evicted.Load() || s.draining.Load() {
			mDrainAborts.Add(1)
		}
		_ = c.tx.Abort()
		c.tx = nil
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
	_ = c.nc.SetReadDeadline(time.Now().Add(s.opts.HandshakeTimeout))
	payload, err := proto.ReadFrame(c.br, s.opts.MaxFrame)
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
	c.role = hello.Role
	c.id = s.sessionSeq.Add(1)
	c.ws = s.db.NewWorkspace()
	resp := proto.AppendOK(nil, seq)
	resp = proto.AppendWelcome(resp, proto.Welcome{Version: proto.Version, SessionID: c.id})
	if !c.writeResponse(resp) {
		s.sessions.Add(-1)
		return false
	}
	return true
}

// readerLoop decodes frames and enqueues them for the worker. It never
// blocks on the queue: overflow is shed immediately with a typed
// retryable error, which is the per-session half of admission control.
func (c *conn) readerLoop() {
	s := c.srv
	for {
		// The read deadline doubles as a backstop for the janitor: a
		// session that sends nothing for well past the idle limit fails
		// its read even if eviction lost the race.
		_ = c.nc.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout + s.opts.IdleTimeout/2))
		payload, err := proto.ReadFrame(c.br, s.opts.MaxFrame)
		if err != nil {
			if errors.Is(err, proto.ErrFrameTooLarge) {
				// The stream is unsynchronized past a refused length
				// prefix; answer with the typed error and hang up.
				c.writeResponse(proto.AppendError(nil, 0, proto.ErrCodeTooLarge, err.Error()))
			}
			return
		}
		if c.draining.Load() || c.dead.Load() {
			return
		}
		if len(payload) < 5 {
			// Too short to carry verb+seq. The frame boundary is intact,
			// so the connection survives; seq 0 tells the client this
			// response matches no request it can identify.
			c.writeResponse(proto.AppendError(nil, 0, proto.ErrCodeBadRequest, "short request"))
			continue
		}
		r := proto.NewReader(payload)
		req := request{verb: r.Byte(), seq: r.Uint32(), body: payload[5:], at: time.Now()}
		c.lastActive.Store(req.at.UnixNano())
		select {
		case c.queue <- req:
		default:
			mReqShed.Add(1)
			c.writeResponse(proto.AppendError(nil, req.seq, proto.ErrCodeRetryable,
				"session queue full; retry"))
		}
	}
}

// workerLoop executes queued requests in order.
func (c *conn) workerLoop() {
	for req := range c.queue {
		if c.dead.Load() {
			continue // drain the queue without executing
		}
		resp := c.execute(req)
		if resp != nil && !c.writeResponse(resp) {
			c.dead.Store(true)
			_ = c.nc.Close()
		}
	}
}

// execute runs one request under the global in-flight cap, with panic
// isolation. It returns the encoded response (nil if the request was shed
// with a response already written).
func (c *conn) execute(req request) (resp []byte) {
	s := c.srv
	// Global admission: a bounded wait for an execution slot, then shed.
	select {
	case s.inflight <- struct{}{}:
	default:
		t := time.NewTimer(s.opts.QueueWait)
		select {
		case s.inflight <- struct{}{}:
			t.Stop()
		case <-t.C:
			mReqShed.Add(1)
			return proto.AppendError(nil, req.seq, proto.ErrCodeRetryable,
				"server over capacity; retry")
		}
	}
	mReqInflight.Add(1)
	defer func() {
		<-s.inflight
		mReqInflight.Add(-1)
		mReqLatencyNs.Observe(uint64(time.Since(req.at)))
		if p := recover(); p != nil {
			// Panic isolation: the fault is confined to this session. Its
			// transaction state is unknowable, so teardown aborts it and
			// the connection closes; the server keeps serving.
			mConnPanics.Add(1)
			obs.Logf("server: session %d: panic in %s: %v", c.id, proto.VerbName(req.verb), p)
			c.dead.Store(true)
			c.writeResponse(proto.AppendError(nil, req.seq, proto.ErrCodeInternal,
				fmt.Sprintf("internal error in %s", proto.VerbName(req.verb))))
			_ = c.nc.Close()
			resp = nil
		}
	}()
	if hook := s.testHook; hook != nil {
		hook(req.verb)
	}
	countVerb(req.verb)
	body, err := c.dispatch(req.verb, proto.NewReader(req.body))
	if err != nil {
		mReqErrors.Add(1)
		return proto.AppendError(nil, req.seq, errCode(err), err.Error())
	}
	return append(proto.AppendOK(nil, req.seq), body...)
}

func countVerb(verb byte) {
	switch verb {
	case proto.VerbQuery:
		mReqQuery.Add(1)
	case proto.VerbQuerySnapshot:
		mReqSnapshot.Add(1)
	case proto.VerbFetch:
		mReqFetch.Add(1)
	case proto.VerbGet:
		mReqGet.Add(1)
	case proto.VerbInsert:
		mReqInsert.Add(1)
	case proto.VerbUpdate:
		mReqUpdate.Add(1)
	case proto.VerbDelete:
		mReqDelete.Add(1)
	case proto.VerbBegin:
		mReqBegin.Add(1)
	case proto.VerbCommit:
		mReqCommit.Add(1)
	case proto.VerbCommitAsync:
		mReqCommitAsync.Add(1)
	case proto.VerbAbort:
		mReqAbort.Add(1)
	case proto.VerbPing:
		mReqPing.Add(1)
	case proto.VerbClasses:
		mReqClasses.Add(1)
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
		errors.Is(err, errTxOpen), errors.Is(err, errNoTx):
		return proto.ErrCodeTxState
	case errors.Is(err, proto.ErrMalformed), errors.Is(err, schema.ErrDomain):
		return proto.ErrCodeBadRequest
	default:
		return proto.ErrCodeInternal
	}
}

// Transaction-state errors surfaced to clients with ErrCodeTxState.
var (
	errTxOpen = errors.New("server: transaction already open on this session")
	errNoTx   = errors.New("server: no transaction open on this session")
)

// writeResponse frames and writes one response under the write deadline.
// Response writers can race (worker vs reader-side sheds), so the write
// is a single Write call of the framed buffer — net.Conn serializes
// concurrent Writes, and one frame per Write keeps them atomic on the
// stream. It reports whether the write succeeded.
func (c *conn) writeResponse(payload []byte) bool {
	framed := proto.AppendFrame(make([]byte, 0, len(payload)+4), payload)
	_ = c.nc.SetWriteDeadline(time.Now().Add(c.srv.opts.WriteTimeout))
	n, err := c.nc.Write(framed)
	mBytesOut.Add(uint64(n))
	return err == nil
}

// startDrain tells the session to stop accepting input and finish queued
// work. The immediate read deadline kicks the reader out of its blocked
// frame read; the drain flag makes it exit instead of reporting an error.
func (c *conn) startDrain() {
	c.draining.Store(true)
	_ = c.nc.SetReadDeadline(time.Now())
}

// evict closes an idle session. Teardown aborts its open transaction.
func (c *conn) evict() {
	if c.evicted.Swap(true) {
		return
	}
	mSessionsEvicted.Add(1)
	obs.Logf("server: session %d (%s) evicted after idle timeout", c.id, c.role)
	_ = c.nc.Close()
}

// --- Request dispatch ---------------------------------------------------

// dispatch decodes and executes one request body, returning the encoded
// response body.
func (c *conn) dispatch(verb byte, r *proto.Reader) ([]byte, error) {
	switch verb {
	case proto.VerbPing:
		return nil, nil
	case proto.VerbClasses:
		return c.doClasses()
	case proto.VerbQuery, proto.VerbQuerySnapshot:
		src := r.ReadString()
		if err := r.Err(); err != nil {
			return nil, err
		}
		return c.doQuery(src, verb == proto.VerbQuerySnapshot)
	case proto.VerbFetch:
		oid := r.OID()
		refresh := r.Byte()
		if err := r.Err(); err != nil {
			return nil, err
		}
		return c.doFetch(oid, refresh != 0)
	case proto.VerbGet:
		oid := r.OID()
		attr := r.ReadString()
		if err := r.Err(); err != nil {
			return nil, err
		}
		return c.doGet(oid, attr)
	case proto.VerbInsert:
		class := r.ReadString()
		attrs := r.Attrs()
		if err := r.Err(); err != nil {
			return nil, err
		}
		return c.doInsert(class, attrs)
	case proto.VerbUpdate:
		oid := r.OID()
		attrs := r.Attrs()
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, c.doUpdate(oid, attrs)
	case proto.VerbDelete:
		oid := r.OID()
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, c.doDelete(oid)
	case proto.VerbBegin:
		if c.tx != nil {
			return nil, errTxOpen
		}
		c.tx = c.srv.db.Begin()
		return nil, nil
	case proto.VerbCommit, proto.VerbCommitAsync:
		if c.tx == nil {
			return nil, errNoTx
		}
		tx := c.tx
		c.tx = nil
		if verb == proto.VerbCommitAsync {
			return nil, tx.CommitAsync()
		}
		return nil, tx.Commit()
	case proto.VerbAbort:
		if c.tx == nil {
			return nil, errNoTx
		}
		tx := c.tx
		c.tx = nil
		return nil, tx.Abort()
	default:
		return nil, fmt.Errorf("%w: unknown verb %d", proto.ErrMalformed, verb)
	}
}

// doClasses returns the sorted class names of the served database — the
// schema surface a federation or shard router needs to enumerate remote
// members. Read access to the database is required when an authorizer is
// configured, mirroring the aggregate-row rule in doQuery.
func (c *conn) doClasses() ([]byte, error) {
	if err := c.check(authz.Read, authz.Database()); err != nil {
		return nil, err
	}
	classes := c.srv.db.Engine().Catalog.Classes()
	names := make([]string, 0, len(classes))
	for _, cl := range classes {
		names = append(names, cl.Name)
	}
	sort.Strings(names)
	return proto.AppendStrings(nil, names), nil
}

// check runs one authorization check, or allows everything in open mode.
func (c *conn) check(t authz.AuthType, obj authz.Object) error {
	az := c.srv.opts.Authorizer
	if az == nil {
		return nil
	}
	return az.Check(c.role, t, obj)
}

// allowed is check as a boolean.
func (c *conn) allowed(t authz.AuthType, obj authz.Object) bool {
	return c.check(t, obj) == nil
}

// doQuery runs a query — inside the session transaction when one is open
// (reading its uncommitted writes), in a snapshot for VerbQuerySnapshot,
// in its own read-only transaction otherwise — and filters rows to the
// instances the role may read, mirroring the embedded Session semantics.
func (c *conn) doQuery(src string, snapshot bool) ([]byte, error) {
	db := c.srv.db
	var res *query.Result
	var err error
	switch {
	case snapshot:
		res, err = db.QuerySnapshot(src)
	case c.tx != nil:
		res, err = db.QueryTx(c.tx, src)
	default:
		res, err = db.Query(src)
	}
	if err != nil {
		return nil, err
	}
	wire := &proto.Result{Cols: res.Cols, Rows: make([]proto.ResultRow, 0, len(res.Rows))}
	az := c.srv.opts.Authorizer
	for _, row := range res.Rows {
		if az != nil {
			if row.OID.IsNil() {
				// Aggregate rows carry no identity; require whole-database
				// read, as the embedded Session does.
				if !c.allowed(authz.Read, authz.Database()) {
					continue
				}
			} else if !c.allowed(authz.Read, authz.Instance(row.OID)) {
				continue
			}
		}
		wire.Rows = append(wire.Rows, proto.ResultRow{OID: row.OID, Values: row.Values})
	}
	return proto.AppendResult(nil, wire), nil
}

// fetchObject reads an object for this session: through the open
// transaction (locked read) when one is open, else through the session
// workspace — the paper's memory-resident object cache, giving each
// session read-your-writes caching of its working set. refresh bypasses
// the cached copy.
func (c *conn) fetchObject(oid model.OID, refresh bool) (*model.Object, error) {
	if c.tx != nil {
		return c.tx.Fetch(oid)
	}
	if refresh {
		c.ws.Evict(oid)
	}
	if c.ws.Len() >= wsCacheCap {
		// Bound the per-session cache. Everything in it is clean (the
		// server never writes through descriptors), so a wholesale
		// discard is safe and cheaper than LRU bookkeeping.
		c.ws.Discard()
	}
	d, err := c.ws.Fetch(oid)
	if err != nil {
		return nil, err
	}
	return d.Object(), nil
}

// doFetch returns the whole object with effective attributes (defaults
// and inheritance applied). Attribute-level read prohibitions filter the
// affected attributes out of the result rather than failing the fetch —
// content filtering, like the view semantics of Session.Query.
func (c *conn) doFetch(oid model.OID, refresh bool) ([]byte, error) {
	if err := c.check(authz.Read, authz.Instance(oid)); err != nil {
		return nil, err
	}
	db := c.srv.db
	obj, err := c.fetchObject(oid, refresh)
	if err != nil {
		return nil, err
	}
	cl, err := db.Engine().Catalog.Class(obj.Class())
	if err != nil {
		return nil, err
	}
	attrs, err := db.Engine().Catalog.EffectiveAttrs(cl.ID)
	if err != nil {
		return nil, err
	}
	wire := &proto.Object{OID: oid, Class: cl.Name, Attrs: make(map[string]model.Value, len(attrs))}
	for _, a := range attrs {
		if err := c.check(authz.Read, authz.Attribute(cl.ID, a.Name)); err != nil && !errors.Is(err, authz.ErrNoGrant) {
			continue // explicit attribute-level denial: filter it out
		}
		v, err := db.Get(obj, a.Name)
		if err != nil {
			continue
		}
		wire.Attrs[a.Name] = v
	}
	return proto.AppendObject(nil, wire), nil
}

// doGet reads one attribute, honoring attribute-level grants exactly as
// the embedded Session.Get does.
func (c *conn) doGet(oid model.OID, attr string) ([]byte, error) {
	if err := c.check(authz.Read, authz.Instance(oid)); err != nil {
		return nil, err
	}
	obj, err := c.fetchObject(oid, false)
	if err != nil {
		return nil, err
	}
	if err := c.check(authz.Read, authz.Attribute(obj.Class(), attr)); err != nil && !errors.Is(err, authz.ErrNoGrant) {
		return nil, err
	}
	v, err := c.srv.db.Get(obj, attr)
	if err != nil {
		return nil, err
	}
	return proto.AppendValue(nil, v), nil
}

// doInsert creates an object if the role may write the class.
func (c *conn) doInsert(class string, attrs map[string]model.Value) ([]byte, error) {
	db := c.srv.db
	cl, err := db.ClassByName(class)
	if err != nil {
		return nil, err
	}
	if err := c.check(authz.Write, authz.Class(cl.ID)); err != nil {
		return nil, err
	}
	var oid model.OID
	if c.tx != nil {
		oid, err = c.tx.Insert(class, attrs)
	} else {
		err = db.Do(func(tx *core.Tx) error {
			var err error
			oid, err = tx.Insert(class, attrs)
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	return proto.AppendOID(nil, oid), nil
}

// doUpdate writes attributes if the role may write the instance and no
// attribute-level write prohibition covers a written attribute.
func (c *conn) doUpdate(oid model.OID, attrs map[string]model.Value) error {
	if err := c.check(authz.Write, authz.Instance(oid)); err != nil {
		return err
	}
	if az := c.srv.opts.Authorizer; az != nil {
		obj, err := c.fetchObject(oid, false)
		if err != nil {
			return err
		}
		for name := range attrs {
			err := az.Check(c.role, authz.Write, authz.Attribute(obj.Class(), name))
			if err != nil && !errors.Is(err, authz.ErrNoGrant) {
				return fmt.Errorf("attribute %q: %w", name, authz.ErrDenied)
			}
		}
	}
	// The session cache must not serve the pre-update image back to this
	// session (read-your-writes within the session's workspace).
	defer c.ws.Evict(oid)
	if c.tx != nil {
		return c.tx.Update(oid, attrs)
	}
	return c.srv.db.Do(func(tx *core.Tx) error { return tx.Update(oid, attrs) })
}

// doDelete removes an object if the role may write it.
func (c *conn) doDelete(oid model.OID) error {
	if err := c.check(authz.Write, authz.Instance(oid)); err != nil {
		return err
	}
	defer c.ws.Evict(oid)
	if c.tx != nil {
		return c.tx.Delete(oid)
	}
	return c.srv.db.Do(func(tx *core.Tx) error { return tx.Delete(oid) })
}
