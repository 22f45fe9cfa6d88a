// Package proto is kimdb's wire protocol: the framing, verbs, typed
// error codes and message codecs shared by the kimsrv server
// (internal/server) and the Go client (internal/server/client).
//
// The protocol is deliberately minimal — the client-server split the
// paper's architecture assumes (§5: an engine that serves applications,
// with sessions and authorization as database facilities) needs exactly
// the Session surface, not a general RPC system:
//
//   - Every message is one length-prefixed frame: a 4-byte big-endian
//     payload length followed by the payload. A frame longer than the
//     negotiated maximum is a protocol error; the receiver must refuse it
//     without allocating the claimed length.
//   - A request payload is verb byte | sequence uint32 | body. A response
//     payload is status byte | sequence uint32 | body, echoing the request
//     sequence so clients may pipeline. Error responses carry a one-byte
//     typed code and a human-readable message; the codes — not the message
//     strings — are the contract clients dispatch on (retryable shed,
//     draining, authorization denial, ...).
//   - The first frame on a connection is the handshake: magic, protocol
//     version, role, token. The server refuses mismatched versions,
//     unknown roles, bad tokens, drained or full servers — each with its
//     typed code — before any session state exists.
//   - Values, attribute maps and query results reuse the storage encoding
//     of internal/model (AppendValue/DecodeValue), so the wire format
//     inherits the engine's one canonical value codec instead of growing a
//     second one.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"oodb/internal/model"
)

// Magic opens every handshake frame.
const Magic = "kimw"

// Version is the protocol version this build speaks. A server refuses a
// client with a different version (ErrCodeVersion) and reports its own
// version in the handshake response, so mixed deployments fail fast and
// loud instead of misparsing frames. Version 2's Fetch body is the OID
// alone; version 1 followed it with a cache-refresh byte.
const Version = 2

// MaxFrame is the default maximum frame length (16 MiB): generous enough
// for multi-megabyte blob attribute values and large result sets, small
// enough that a hostile length prefix cannot balloon server memory.
const MaxFrame = 16 << 20

// frameHeaderLen is the length prefix size.
const frameHeaderLen = 4

// Verbs. The wire surface is the engine's Session surface plus explicit
// transaction control and a liveness ping.
const (
	VerbHello byte = iota + 1
	VerbQuery
	VerbQuerySnapshot
	VerbFetch
	VerbGet
	VerbInsert
	VerbUpdate
	VerbDelete
	VerbBegin
	VerbCommit
	VerbCommitAsync
	VerbAbort
	VerbPing
	VerbClasses
)

// VerbName returns the lowercase name of a verb (for metrics and errors).
func VerbName(v byte) string {
	switch v {
	case VerbHello:
		return "hello"
	case VerbQuery:
		return "query"
	case VerbQuerySnapshot:
		return "snapshot"
	case VerbFetch:
		return "fetch"
	case VerbGet:
		return "get"
	case VerbInsert:
		return "insert"
	case VerbUpdate:
		return "update"
	case VerbDelete:
		return "delete"
	case VerbBegin:
		return "begin"
	case VerbCommit:
		return "commit"
	case VerbCommitAsync:
		return "commitasync"
	case VerbAbort:
		return "abort"
	case VerbPing:
		return "ping"
	case VerbClasses:
		return "classes"
	default:
		return fmt.Sprintf("verb(%d)", v)
	}
}

// Response status bytes.
const (
	StatusOK  byte = 0
	StatusErr byte = 1
)

// Typed error codes carried by error responses. Clients dispatch on these;
// the accompanying message is for humans.
const (
	// ErrCodeInternal is an unclassified server-side failure.
	ErrCodeInternal byte = iota + 1
	// ErrCodeBadRequest is a malformed or unparseable request body, or a
	// write the database refuses: a value outside its attribute's domain,
	// or one the composite or version rules refuse.
	ErrCodeBadRequest
	// ErrCodeVersion is a protocol version mismatch at handshake.
	ErrCodeVersion
	// ErrCodeAuth is a handshake rejection: unknown role or bad token.
	ErrCodeAuth
	// ErrCodeDenied is an authorization denial on an operation.
	ErrCodeDenied
	// ErrCodeNotFound is a fetch of a nonexistent object/class/attribute.
	ErrCodeNotFound
	// ErrCodeTxState is a transaction-state error: Begin with a
	// transaction already open, Commit/Abort with none.
	ErrCodeTxState
	// ErrCodeConflict is a concurrency casualty (deadlock victim); the
	// transaction was aborted and the request may be retried afresh.
	ErrCodeConflict
	// ErrCodeRetryable is an admission-control shed: the server is over
	// its in-flight capacity. The request was not executed; retrying after
	// a backoff is expected to succeed.
	ErrCodeRetryable
	// ErrCodeDraining reports a server in graceful shutdown: it accepts no
	// new sessions or work.
	ErrCodeDraining
	// ErrCodeServerFull is a handshake rejection: the session limit is
	// reached. Retryable by reconnecting later.
	ErrCodeServerFull
	// ErrCodeTooLarge is a frame exceeding the maximum length.
	ErrCodeTooLarge
	// ErrCodeUnavailable is an engine fail-stop (poisoned database): the
	// server cannot execute anything until restarted.
	ErrCodeUnavailable
)

// Framing errors.
var (
	// ErrFrameTooLarge reports a frame whose length prefix exceeds the
	// maximum. The stream is unsynchronized after this; the connection
	// must close.
	ErrFrameTooLarge = errors.New("proto: frame exceeds maximum length")
	// ErrMalformed reports a payload that does not decode.
	ErrMalformed = errors.New("proto: malformed message")
)

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// AppendFrame appends the framed payload to dst (single-write send path).
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// ReadFrame reads one frame, refusing lengths beyond max before
// allocating. io.EOF is returned unchanged at a clean frame boundary.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if int(n) > max {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, max)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// --- Append-side primitives --------------------------------------------

// AppendString appends a uvarint-length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendStrings appends a uvarint-counted list of strings.
func AppendStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = AppendString(dst, s)
	}
	return dst
}

// AppendUvarint appends a uvarint.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendOID appends an object identifier.
func AppendOID(dst []byte, oid model.OID) []byte {
	return binary.AppendUvarint(dst, uint64(oid))
}

// AppendValue appends a value in the engine's canonical encoding.
func AppendValue(dst []byte, v model.Value) []byte {
	return model.AppendValue(dst, v)
}

// AppendAttrs appends a name→value attribute map (count, then pairs).
// Iteration order is not part of the contract; receivers rebuild a map.
func AppendAttrs(dst []byte, attrs map[string]model.Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(attrs)))
	for name, v := range attrs {
		dst = AppendString(dst, name)
		dst = model.AppendValue(dst, v)
	}
	return dst
}

// --- Read-side cursor ---------------------------------------------------

// Reader is the module's decoding cursor (model.Reader). On the wire it
// latches ErrMalformed: hostile input can never panic the caller.
type Reader = model.Reader

// NewReader returns a cursor over buf that latches ErrMalformed.
func NewReader(buf []byte) *Reader { return model.NewReader(buf, ErrMalformed) }

// --- Handshake ----------------------------------------------------------

// Hello is the client half of the handshake.
type Hello struct {
	Version uint64
	Role    string
	Token   string
}

// AppendHello encodes a handshake request body.
func AppendHello(dst []byte, h Hello) []byte {
	dst = append(dst, Magic...)
	dst = binary.AppendUvarint(dst, h.Version)
	dst = AppendString(dst, h.Role)
	return AppendString(dst, h.Token)
}

// ReadHello decodes a handshake request body.
func ReadHello(r *Reader) (Hello, error) {
	var h Hello
	for i := 0; i < len(Magic); i++ {
		if r.Byte() != Magic[i] {
			return h, fmt.Errorf("%w: bad magic", ErrMalformed)
		}
	}
	h.Version = r.Uvarint()
	h.Role = r.ReadString()
	h.Token = r.ReadString()
	if err := r.Err(); err != nil {
		return h, err
	}
	return h, nil
}

// Welcome is the server half of the handshake.
type Welcome struct {
	Version   uint64
	SessionID uint64
}

// AppendWelcome encodes a handshake response body.
func AppendWelcome(dst []byte, w Welcome) []byte {
	dst = binary.AppendUvarint(dst, w.Version)
	return binary.AppendUvarint(dst, w.SessionID)
}

// ReadWelcome decodes a handshake response body.
func ReadWelcome(r *Reader) (Welcome, error) {
	w := Welcome{Version: r.Uvarint(), SessionID: r.Uvarint()}
	return w, r.Err()
}

// --- Requests and responses --------------------------------------------

// AppendRequest encodes a request header (verb, sequence) before the body.
func AppendRequest(dst []byte, verb byte, seq uint32) []byte {
	dst = append(dst, verb)
	return binary.BigEndian.AppendUint32(dst, seq)
}

// AppendOK encodes a success response header before the body.
func AppendOK(dst []byte, seq uint32) []byte {
	dst = append(dst, StatusOK)
	return binary.BigEndian.AppendUint32(dst, seq)
}

// AppendError encodes a complete error response.
func AppendError(dst []byte, seq uint32, code byte, msg string) []byte {
	dst = append(dst, StatusErr)
	dst = binary.BigEndian.AppendUint32(dst, seq)
	dst = append(dst, code)
	return AppendString(dst, msg)
}

// --- Query results ------------------------------------------------------
//
// Result, ResultRow and Object are the answer types of every door, not
// only of the wire: oodb.Session returns them, and the client's and the
// shard router's Result/Row/Object are aliases of them. They live here
// because this package imports nothing but internal/model.

// ResultRow is one result row: the object's identity (nil OID for
// aggregate rows) and its projected values, aligned with the column list.
type ResultRow struct {
	OID    model.OID
	Values []model.Value
}

// Result is a query result.
type Result struct {
	Cols []string
	Rows []ResultRow
}

// AppendResult encodes a query result.
func AppendResult(dst []byte, res *Result) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(res.Cols)))
	for _, c := range res.Cols {
		dst = AppendString(dst, c)
	}
	dst = binary.AppendUvarint(dst, uint64(len(res.Rows)))
	for _, row := range res.Rows {
		dst = AppendOID(dst, row.OID)
		for _, v := range row.Values {
			dst = model.AppendValue(dst, v)
		}
	}
	return dst
}

// ReadResult decodes a query result.
func ReadResult(r *Reader) (*Result, error) {
	ncols := r.Count()
	if err := r.Err(); err != nil {
		return nil, err
	}
	res := &Result{Cols: make([]string, 0, ncols)}
	for i := uint64(0); i < ncols; i++ {
		res.Cols = append(res.Cols, r.ReadString())
	}
	nrows := r.Count()
	if err := r.Err(); err != nil {
		return nil, err
	}
	res.Rows = make([]ResultRow, 0, nrows)
	for i := uint64(0); i < nrows; i++ {
		row := ResultRow{OID: r.OID(), Values: make([]model.Value, 0, ncols)}
		for j := uint64(0); j < ncols; j++ {
			row.Values = append(row.Values, r.Value())
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, r.Err()
}

// Object is one object as a door returns it: its identity, class name, and
// effective attributes (inheritance and defaults applied by the engine).
type Object struct {
	OID   model.OID
	Class string
	Attrs map[string]model.Value
}

// AppendObject encodes an object.
func AppendObject(dst []byte, o *Object) []byte {
	dst = AppendOID(dst, o.OID)
	dst = AppendString(dst, o.Class)
	return AppendAttrs(dst, o.Attrs)
}

// ReadObject decodes an object.
func ReadObject(r *Reader) (*Object, error) {
	o := &Object{OID: r.OID(), Class: r.ReadString()}
	o.Attrs = r.Attrs()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return o, nil
}
