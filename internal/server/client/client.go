// Package client is the Go wire client for kimsrv: it speaks the
// internal/server/proto protocol and exposes the engine's Session surface
// — Query/QuerySnapshot, Fetch/Get, Insert/Update/Delete,
// Begin/Commit/CommitAsync/Abort — over a network connection, so an
// application links against this package instead of the embedded engine
// and moves between the two with the same call shapes.
//
// A Client owns one connection and one server-side session. Calls are
// safe for concurrent use; they are serialized onto the connection in
// request order (the server executes a session's requests in order, so
// one connection is one session's program order). For parallelism, open
// more clients — sessions are what the server multiplexes.
//
// Typed errors: the server's wire error codes surface as wrapped
// sentinel errors (ErrDenied, ErrRetryable, ErrDraining, ...) that
// callers dispatch on with errors.Is; the server's message text rides
// along in Error().
package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"oodb/internal/model"
	"oodb/internal/server/proto"
)

// Typed client-facing errors, mapped from wire error codes.
var (
	// ErrDenied reports an authorization denial.
	ErrDenied = errors.New("client: access denied")
	// ErrAuth reports a handshake rejection (unknown role or bad token).
	ErrAuth = errors.New("client: authentication failed")
	// ErrRetryable reports an admission-control shed: the request was not
	// executed and a retry after backoff is expected to succeed.
	ErrRetryable = errors.New("client: server over capacity (retryable)")
	// ErrDraining reports a server in graceful shutdown.
	ErrDraining = errors.New("client: server draining")
	// ErrServerFull reports the session limit was reached at handshake.
	ErrServerFull = errors.New("client: server session limit reached")
	// ErrNotFound reports a missing object, class or attribute.
	ErrNotFound = errors.New("client: not found")
	// ErrTxState reports Begin with a transaction open or
	// Commit/CommitAsync/Abort without one.
	ErrTxState = errors.New("client: transaction state")
	// ErrConflict reports a deadlock casualty; the transaction was
	// aborted server-side and may be retried from Begin.
	ErrConflict = errors.New("client: transaction aborted by conflict")
	// ErrVersion reports a protocol version mismatch.
	ErrVersion = errors.New("client: protocol version mismatch")
	// ErrBadRequest reports a request the server could not parse.
	ErrBadRequest = errors.New("client: bad request")
	// ErrTooLarge reports a frame beyond the server's limit.
	ErrTooLarge = errors.New("client: frame too large")
	// ErrUnavailable reports an engine fail-stop; the server must
	// restart before it can execute anything.
	ErrUnavailable = errors.New("client: server unavailable (engine fail-stopped)")
	// ErrServer is an unclassified server-side failure.
	ErrServer = errors.New("client: server error")
	// ErrClosed reports use of a closed client.
	ErrClosed = errors.New("client: connection closed")
	// ErrProtocol reports a response that does not decode or match the
	// request sequence; the connection is unusable afterwards.
	ErrProtocol = errors.New("client: protocol error")
)

func codeErr(code byte) error {
	switch code {
	case proto.ErrCodeDenied:
		return ErrDenied
	case proto.ErrCodeAuth:
		return ErrAuth
	case proto.ErrCodeRetryable:
		return ErrRetryable
	case proto.ErrCodeDraining:
		return ErrDraining
	case proto.ErrCodeServerFull:
		return ErrServerFull
	case proto.ErrCodeNotFound:
		return ErrNotFound
	case proto.ErrCodeTxState:
		return ErrTxState
	case proto.ErrCodeConflict:
		return ErrConflict
	case proto.ErrCodeVersion:
		return ErrVersion
	case proto.ErrCodeBadRequest:
		return ErrBadRequest
	case proto.ErrCodeTooLarge:
		return ErrTooLarge
	case proto.ErrCodeUnavailable:
		return ErrUnavailable
	default:
		return ErrServer
	}
}

// Retryable reports whether err is worth retrying after a backoff
// (admission-control shed or session limit).
func Retryable(err error) bool {
	return errors.Is(err, ErrRetryable) || errors.Is(err, ErrServerFull)
}

// notSentError marks a connection error raised before the request was
// written to the wire; see NotSent.
type notSentError struct{ err error }

func (e *notSentError) Error() string { return e.err.Error() }
func (e *notSentError) Unwrap() error { return e.err }

// NotSent reports whether err is a connection failure that provably
// happened before the request reached the wire — the client had already
// latched closed — so the server cannot have executed the request and a
// retry on a fresh connection is safe even for non-idempotent
// operations. A connection error without this mark (write failure,
// response timeout, lost frame) is ambiguous: the server may already
// have executed the request exactly once.
func NotSent(err error) bool {
	var ns *notSentError
	return errors.As(err, &ns)
}

// Options configures Dial.
type Options struct {
	// Role is the session's role name (authorization subject).
	Role string
	// Token authenticates the role when the server requires one.
	Token string
	// RequestTimeout bounds each request round-trip (default 60s).
	RequestTimeout time.Duration
}

// dialTimeout bounds the TCP connect + handshake.
const dialTimeout = 10 * time.Second

func (o *Options) withDefaults() Options {
	out := *o
	if out.Role == "" {
		out.Role = "public"
	}
	if out.RequestTimeout <= 0 {
		out.RequestTimeout = 60 * time.Second
	}
	return out
}

// The answer types are the wire's own: every door (oodb.Session, this
// client, the shard router) returns the same Result, Row and Object.
type (
	// Result is a query result.
	Result = proto.Result
	// Row is one result row: the object's identity (zero for aggregate
	// rows) and projected values aligned with Result.Cols.
	Row = proto.ResultRow
	// Object is a fetched object: identity, class name, and effective
	// attributes (inheritance and class defaults applied server-side).
	Object = proto.Object
)

// Client is one connection to a kimsrv server, carrying one session.
type Client struct {
	mu        sync.Mutex
	nc        net.Conn
	opts      Options
	seq       uint32
	sessionID uint64
	closed    bool
}

// Dial connects to a kimsrv server and performs the protocol handshake.
func Dial(addr string, opts Options) (*Client, error) {
	o := opts.withDefaults()
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	c := &Client{nc: nc, opts: o}
	_ = nc.SetDeadline(time.Now().Add(dialTimeout))
	body := proto.AppendHello(nil, proto.Hello{Version: proto.Version, Role: o.Role, Token: o.Token})
	respBody, err := c.roundTripLocked(proto.VerbHello, body)
	_ = nc.SetDeadline(time.Time{})
	if err != nil {
		_ = nc.Close()
		return nil, err
	}
	w, err := proto.ReadWelcome(proto.NewReader(respBody))
	if err != nil {
		_ = nc.Close()
		return nil, fmt.Errorf("%w: bad welcome: %v", ErrProtocol, err)
	}
	c.sessionID = w.SessionID
	return c, nil
}

// SessionID returns the server-assigned session identifier.
func (c *Client) SessionID() uint64 { return c.sessionID }

// Close closes the connection. The server aborts any open transaction.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.nc.Close()
}

// roundTrip sends one request and reads its response body.
func (c *Client) roundTrip(verb byte, body []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		// Nothing was sent on this latched connection; mark the error so
		// Redialer.Do may safely retry even non-idempotent requests.
		return nil, &notSentError{ErrClosed}
	}
	_ = c.nc.SetDeadline(time.Now().Add(c.opts.RequestTimeout))
	resp, err := c.roundTripLocked(verb, body)
	_ = c.nc.SetDeadline(time.Time{})
	if err != nil && (errors.Is(err, ErrClosed) || errors.Is(err, ErrProtocol)) {
		// A timeout, partial read/write or sequence mismatch leaves the
		// stream desynchronized: later frames would be misparsed or
		// matched to the wrong request. Latch closed so every later call
		// fails fast with ErrClosed instead.
		c.closed = true
		_ = c.nc.Close()
	}
	return resp, err
}

func (c *Client) roundTripLocked(verb byte, body []byte) ([]byte, error) {
	c.seq++
	seq := c.seq
	payload := proto.AppendRequest(make([]byte, 0, 5+len(body)), verb, seq)
	payload = append(payload, body...)
	framed := proto.AppendFrame(make([]byte, 0, 4+len(payload)), payload)
	if _, err := c.nc.Write(framed); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrClosed, err)
	}
	respPayload, err := proto.ReadFrame(c.nc, proto.MaxFrame)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrClosed, err)
	}
	r := proto.NewReader(respPayload)
	status := r.Byte()
	gotSeq := r.Uint32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: short response", ErrProtocol)
	}
	if gotSeq != seq {
		// A stray error (seq 0) or a late answer to a timed-out request
		// means the stream no longer matches our program order.
		return nil, fmt.Errorf("%w: response seq %d, want %d", ErrProtocol, gotSeq, seq)
	}
	switch status {
	case proto.StatusOK:
		return respPayload[5:], nil
	case proto.StatusErr:
		code := r.Byte()
		msg := r.ReadString()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("%w: bad error response", ErrProtocol)
		}
		return nil, fmt.Errorf("%w: %s", codeErr(code), msg)
	default:
		return nil, fmt.Errorf("%w: unknown status %d", ErrProtocol, status)
	}
}

// --- Session surface ----------------------------------------------------

// Query runs a declarative query; results are filtered to what the
// session's role may read.
func (c *Client) Query(src string) (*Result, error) {
	return c.query(proto.VerbQuery, src)
}

// QuerySnapshot runs a query in a lock-free snapshot at the server's last
// commit epoch.
func (c *Client) QuerySnapshot(src string) (*Result, error) {
	return c.query(proto.VerbQuerySnapshot, src)
}

func (c *Client) query(verb byte, src string) (*Result, error) {
	body, err := c.roundTrip(verb, proto.AppendString(nil, src))
	if err != nil {
		return nil, err
	}
	res, err := proto.ReadResult(proto.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("%w: bad result: %v", ErrProtocol, err)
	}
	return res, nil
}

// Fetch returns an object with its effective attributes: inside an open
// transaction as that transaction sees it, otherwise the last committed
// state.
func (c *Client) Fetch(oid model.OID) (*Object, error) {
	body, err := c.roundTrip(proto.VerbFetch, proto.AppendOID(nil, oid))
	if err != nil {
		return nil, err
	}
	obj, err := proto.ReadObject(proto.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("%w: bad object: %v", ErrProtocol, err)
	}
	return obj, nil
}

// Get reads one attribute of an object (inheritance and defaults applied).
func (c *Client) Get(oid model.OID, attr string) (model.Value, error) {
	req := proto.AppendOID(nil, oid)
	req = proto.AppendString(req, attr)
	body, err := c.roundTrip(proto.VerbGet, req)
	if err != nil {
		return model.Null, err
	}
	r := proto.NewReader(body)
	v := r.Value()
	if err := r.Err(); err != nil {
		return model.Null, fmt.Errorf("%w: bad value: %v", ErrProtocol, err)
	}
	return v, nil
}

// Insert creates an object. Inside an open transaction it joins the
// transaction; otherwise it autocommits.
func (c *Client) Insert(class string, attrs map[string]model.Value) (model.OID, error) {
	req := proto.AppendString(nil, class)
	req = proto.AppendAttrs(req, attrs)
	body, err := c.roundTrip(proto.VerbInsert, req)
	if err != nil {
		return 0, err
	}
	r := proto.NewReader(body)
	oid := r.OID()
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("%w: bad oid: %v", ErrProtocol, err)
	}
	return oid, nil
}

// Update writes attributes of an object.
func (c *Client) Update(oid model.OID, attrs map[string]model.Value) error {
	req := proto.AppendOID(nil, oid)
	req = proto.AppendAttrs(req, attrs)
	_, err := c.roundTrip(proto.VerbUpdate, req)
	return err
}

// Delete removes an object.
func (c *Client) Delete(oid model.OID) error {
	_, err := c.roundTrip(proto.VerbDelete, proto.AppendOID(nil, oid))
	return err
}

// Begin opens an explicit transaction on the session. Subsequent
// Insert/Update/Delete/Fetch/Query calls run inside it until Commit,
// CommitAsync or Abort.
func (c *Client) Begin() error {
	_, err := c.roundTrip(proto.VerbBegin, nil)
	return err
}

// Commit makes the session's open transaction durable.
func (c *Client) Commit() error {
	_, err := c.roundTrip(proto.VerbCommit, nil)
	return err
}

// CommitAsync commits with relaxed durability: the server acknowledges as
// soon as the commit record is queued for the WAL writer's next batch. A
// server crash can lose a suffix of async-acknowledged commits, never an
// intermediate one.
func (c *Client) CommitAsync() error {
	_, err := c.roundTrip(proto.VerbCommitAsync, nil)
	return err
}

// Abort rolls back the session's open transaction.
func (c *Client) Abort() error {
	_, err := c.roundTrip(proto.VerbAbort, nil)
	return err
}

// Classes returns the sorted class names of the served database.
func (c *Client) Classes() ([]string, error) {
	body, err := c.roundTrip(proto.VerbClasses, nil)
	if err != nil {
		return nil, err
	}
	r := proto.NewReader(body)
	names := r.Strings()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: bad class list: %v", ErrProtocol, err)
	}
	return names, nil
}

// Ping checks liveness end-to-end through the session worker.
func (c *Client) Ping() error {
	_, err := c.roundTrip(proto.VerbPing, nil)
	return err
}
