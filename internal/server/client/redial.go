package client

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Redialer wraps a Client with automatic re-establishment. A Client
// latches closed on the first timeout or protocol desync — deliberately,
// because the stream is unsynchronized — which means long-lived holders
// (health probes, shard routers) would otherwise keep a permanently dead
// handle. A Redialer owns the dial loop instead: Do borrows the current
// connection, and when a call fails with a connection-level error
// (ErrClosed, ErrProtocol) the dead client is discarded and the next Do
// dials afresh.
//
// Redial attempts are rate-limited with capped exponential backoff:
// after a failed dial, calls inside the backoff window fail fast with
// the dial error instead of hammering a down server. A successful dial
// resets the backoff.
//
// A Redialer is safe for concurrent use. Note that rotating the
// underlying connection rotates the server-side session: an explicit
// transaction does not survive a redial (the server aborts it when the
// old connection dies), so transactional callers must treat a redial as
// a transaction abort and retry from Begin.
type Redialer struct {
	addr string
	opts Options

	// Backoff schedule; fixed at construction.
	base time.Duration
	cap  time.Duration

	mu      sync.Mutex
	c       *Client
	closed  bool
	backoff time.Duration // next wait; 0 after a success
	until   time.Time     // no dial attempts before this instant
	lastErr error         // dial error reported during the backoff window
}

// NewRedialer returns a Redialer for addr. No connection is made until
// the first Client or Do call. The first retry waits 50ms, doubling up to
// 5s.
func NewRedialer(addr string, opts Options) *Redialer {
	return &Redialer{addr: addr, opts: opts, base: 50 * time.Millisecond, cap: 5 * time.Second}
}

// Addr returns the dial address.
func (rd *Redialer) Addr() string { return rd.addr }

// Client returns a live client, dialing if necessary. During a backoff
// window after a failed dial it fails fast with the previous dial error.
func (rd *Redialer) Client() (*Client, error) {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	return rd.clientLocked()
}

func (rd *Redialer) clientLocked() (*Client, error) {
	if rd.closed {
		return nil, ErrClosed
	}
	if rd.c != nil {
		return rd.c, nil
	}
	if now := time.Now(); now.Before(rd.until) {
		return nil, fmt.Errorf("%w (redial in %v)", rd.lastErr, rd.until.Sub(now).Round(time.Millisecond))
	}
	c, err := Dial(rd.addr, rd.opts)
	if err != nil {
		if rd.backoff == 0 {
			rd.backoff = rd.base
		} else if rd.backoff < rd.cap {
			rd.backoff *= 2
			if rd.backoff > rd.cap {
				rd.backoff = rd.cap
			}
		}
		rd.until = time.Now().Add(rd.backoff)
		rd.lastErr = err
		return nil, err
	}
	rd.backoff = 0
	rd.until = time.Time{}
	rd.lastErr = nil
	rd.c = c
	return c, nil
}

// Invalidate discards the current connection (if it is still the one the
// caller saw fail) so the next call dials afresh. Invalidation does not
// start a backoff window: the connection dying says nothing about
// whether an immediate redial would succeed.
func (rd *Redialer) Invalidate(c *Client) {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	if c != nil && rd.c == c {
		rd.c = nil
		_ = c.Close()
	}
}

// Do runs fn with a live client. If fn fails with a connection-level
// error (ErrClosed, ErrProtocol) the connection is discarded so the
// next call dials afresh. The failed call itself is retried once on a
// fresh dial only when the failure provably preceded the send — the
// borrowed client had already latched closed (NotSent) — because then
// the server cannot have executed the request, making the heal safe
// even for non-idempotent operations. A connection error raised
// mid-round-trip (write failure, response timeout, lost frame) is
// returned as-is: the server may have executed the request already,
// and blindly re-sending could execute it twice. Operations that are
// idempotent can opt into the broader heal with DoIdempotent.
func (rd *Redialer) Do(fn func(*Client) error) error { return rd.do(fn, false) }

// DoIdempotent is Do for operations the caller asserts are idempotent
// (reads, pings, attribute writes that converge): it additionally
// retries once when the connection died mid-round-trip, accepting that
// the server may execute the request a second time.
func (rd *Redialer) DoIdempotent(fn func(*Client) error) error { return rd.do(fn, true) }

func (rd *Redialer) do(fn func(*Client) error, idempotent bool) error {
	for attempt := 0; ; attempt++ {
		c, err := rd.Client()
		if err != nil {
			return err
		}
		err = fn(c)
		if err == nil {
			return nil
		}
		if connErr(err) {
			rd.Invalidate(c)
		}
		retriable := NotSent(err) || (idempotent && connErr(err))
		if !retriable || attempt > 0 {
			return err
		}
	}
}

// connErr reports whether err indicates the connection itself (not the
// request) failed, so a fresh dial may heal it.
func connErr(err error) bool {
	return errors.Is(err, ErrClosed) || errors.Is(err, ErrProtocol)
}

// Close closes the Redialer and the current connection. Later calls
// fail with ErrClosed.
func (rd *Redialer) Close() error {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	if rd.closed {
		return nil
	}
	rd.closed = true
	if rd.c != nil {
		err := rd.c.Close()
		rd.c = nil
		return err
	}
	return nil
}
