// Package server implements kimsrv: a concurrent session server that
// multiplexes many network clients onto one embedded kimdb engine.
//
// The paper's architecture assumes an engine that serves applications —
// shared access, sessions, authorization as database facilities (§5) —
// and this package is that front end. Each accepted connection becomes a
// session: a protocol handshake maps the client to a role (token
// authentication) and binds it to an oodb.Session — the engine's one
// role-bound data door, the same one an embedded caller gets — and every
// data verb of the wire protocol defined in internal/server/proto is one
// call on it.
// What a role may see or write is decided there, not in this package.
//
// Operational spine:
//
//   - One goroutine per session reads a request, executes it and writes
//     its response, then reads the next: pipelined requests are answered
//     in order, and TCP holds the ones not yet read.
//   - Admission control: a session cap at handshake (typed ServerFull
//     rejection) and a global in-flight execution cap with a bounded
//     queue wait, then a typed retryable shed. The controller reads the
//     same counters it publishes as server_* gauges.
//   - Idle-session eviction: a session whose client sends nothing for
//     the idle limit fails its read and is closed; the session teardown
//     aborts its open transaction, releasing its locks, so an abandoned
//     client cannot wedge writers. A request that runs long is not idle.
//   - Fail isolation: a panic while executing one request is confined to
//     its session (logged, counted, transaction aborted, connection
//     closed); the server keeps serving.
//   - Graceful drain: Drain refuses new sessions, lets in-flight requests
//     (commits included) finish, aborts stragglers after a deadline,
//     checkpoints the engine and returns. Acknowledged commits are
//     durable across drain + restart by the WAL's contract.
package server

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"oodb"
	"oodb/internal/authz"
	"oodb/internal/obs"
	"oodb/internal/server/proto"
)

// Options configures a Server. The zero value serves on an ephemeral port
// in open mode (any role, no token, no authorization filtering).
type Options struct {
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string

	// Authorizer is handed to every connection's oodb.Session, which
	// enforces it. Nil means open mode — every operation allowed.
	Authorizer *authz.Authorizer

	// Tokens, when non-nil, restricts handshakes to the listed roles and
	// requires each to present its token (empty string = no token needed).
	// Nil accepts any role name.
	Tokens map[string]string

	// MaxSessions caps concurrently connected sessions (default 1024).
	// Excess handshakes are refused with a typed ServerFull error.
	MaxSessions int

	// MaxInFlight caps requests executing concurrently across all
	// sessions (default 4×GOMAXPROCS). A request that cannot get a slot
	// within queueWait is shed with a typed retryable error.
	MaxInFlight int

	// IdleTimeout evicts a session whose client sends no request for this
	// long (default 5m), aborting its open transaction. Time spent
	// executing a request does not count.
	IdleTimeout time.Duration
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Addr == "" {
		out.Addr = "127.0.0.1:0"
	}
	if out.MaxSessions <= 0 {
		out.MaxSessions = 1024
	}
	if out.MaxInFlight <= 0 {
		out.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if out.IdleTimeout <= 0 {
		out.IdleTimeout = 5 * time.Minute
	}
	return out
}

// Fixed limits of the served door.
const (
	// queueWait bounds how long a request waits for a global execution
	// slot before being shed.
	queueWait = 25 * time.Millisecond
	// handshakeTimeout bounds the wait for the hello frame.
	handshakeTimeout = 10 * time.Second
	// writeTimeout bounds each response write.
	writeTimeout = 30 * time.Second
	// drainTimeout is how long Close lets in-flight work finish before
	// aborting stragglers; Drain takes an explicit deadline.
	drainTimeout = 5 * time.Second
)

// ErrServerClosed is returned by Start after Drain or Close.
var ErrServerClosed = errors.New("server: closed")

// Server is a running kimsrv instance.
type Server struct {
	db   *oodb.DB
	opts Options

	ln       net.Listener
	mu       sync.Mutex
	conns    map[*conn]struct{}
	draining atomic.Bool
	started  atomic.Bool

	sessionSeq atomic.Uint64
	sessions   atomic.Int64 // active sessions (mirrors mSessionsActive)
	inflight   chan struct{}

	// maxFrame starts at proto.MaxFrame; tests shrink it before Start.
	maxFrame int

	wg sync.WaitGroup // accept loop + connection goroutines

	// testHook, when set, runs inside request execution after admission;
	// tests use it to hold sessions busy or to inject panics.
	testHook func(verb byte)
}

// New returns an unstarted server over db.
func New(db *oodb.DB, opts Options) *Server {
	o := opts.withDefaults()
	return &Server{
		db:       db,
		opts:     o,
		conns:    make(map[*conn]struct{}),
		inflight: make(chan struct{}, o.MaxInFlight),
		maxFrame: proto.MaxFrame,
	}
}

// Start opens the listener and begins accepting sessions. It returns once
// the server is listening; Addr reports the bound address.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.started.Store(true)
	s.wg.Add(1)
	go s.acceptLoop(ln)
	obs.Logf("server: listening on %s (max_sessions=%d max_inflight=%d)",
		ln.Addr(), s.opts.MaxSessions, s.opts.MaxInFlight)
	return nil
}

// Addr returns the bound listen address (nil before Start).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Sessions returns the number of active sessions.
func (s *Server) Sessions() int { return int(s.sessions.Load()) }

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			// Listener closed (drain) or fatal accept error: stop.
			return
		}
		s.wg.Add(1)
		go s.serveConn(nc)
	}
}

func (s *Server) addConn(c *conn) {
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()
}

func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Drain performs a graceful shutdown: refuse new sessions, let in-flight
// requests finish (commits included), abort sessions that are still
// running after timeout, then checkpoint the engine. It is safe to call
// once; the listener does not reopen.
func (s *Server) Drain(timeout time.Duration) error {
	if !s.started.Load() {
		return ErrServerClosed
	}
	if s.draining.Swap(true) {
		return ErrServerClosed // already draining
	}
	mDrains.Add(1)
	obs.Logf("server: drain started (timeout %v)", timeout)
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}

	// Kick every session's blocked frame read with an immediate read
	// deadline; seeing the flag, the session stops instead of counting an
	// eviction. One in the middle of a request answers it first.
	s.mu.Lock()
	for c := range s.conns {
		_ = c.nc.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(timeout):
		// Stragglers: force-close their connections. Session teardown
		// aborts any open transaction, releasing its locks.
		obs.Logf("server: drain deadline reached; force-closing %d sessions", s.Sessions())
		s.mu.Lock()
		for c := range s.conns {
			_ = c.nc.Close()
		}
		s.mu.Unlock()
		<-done
	}

	// Every session is gone; make the drained state durable so a restart
	// replays nothing and starts from a clean log.
	if err := s.db.Checkpoint(); err != nil {
		return fmt.Errorf("server: drain checkpoint: %w", err)
	}
	obs.Logf("server: drain complete")
	return nil
}

// Close drains with a fixed deadline of drainTimeout.
func (s *Server) Close() error { return s.Drain(drainTimeout) }

// Draining reports whether the server has begun shutdown.
func (s *Server) Draining() bool { return s.draining.Load() }
