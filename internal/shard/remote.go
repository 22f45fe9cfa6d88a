package shard

import (
	"errors"

	"oodb/internal/federation"
	"oodb/internal/model"
	"oodb/internal/query"
	"oodb/internal/server/client"
)

// RemoteSource adapts one remote kimsrv into a federation member: the
// served database joins a federation exactly like an in-process DB. It
// speaks the kimw wire protocol through a Redialer, so a member that
// restarts (or a connection that latches closed) heals transparently.
//
// Two evaluation paths, mirroring OOSource:
//
//   - RunQuery (federation.QueryableSource) ships the whole parsed query
//     to the member as one wire query — predicate pushdown. The WHERE
//     clause, ORDER BY and LIMIT execute next to the data under the
//     member's planner and indexes; one round-trip returns only the
//     matching projected rows.
//   - Scan (federation.Source) is the lenient fallback: it enumerates
//     the class over the wire and fetches each instance, presenting
//     entities whose nested paths dereference lazily with further
//     fetches — slow, but the same evaluator and the same path walk
//     (query.WalkPath) as the member runs, over fetched objects.
//
// OIDs and reference values surface in the member's local OID space: a
// RemoteSource is one member seen alone. The Router, not the source,
// owns the global OID space.
type RemoteSource struct {
	rd *client.Redialer
}

// NewRemoteSource returns a federation member backed by the kimsrv at
// addr. No connection is made until the first use.
func NewRemoteSource(addr string, opts client.Options) *RemoteSource {
	return &RemoteSource{rd: client.NewRedialer(addr, opts)}
}

// Close closes the underlying connection.
func (s *RemoteSource) Close() error { return s.rd.Close() }

// Addr returns the member's dial address.
func (s *RemoteSource) Addr() string { return s.rd.Addr() }

// Ping checks liveness end-to-end through the member's session worker.
func (s *RemoteSource) Ping() error {
	return s.rd.DoIdempotent(func(c *client.Client) error { return c.Ping() })
}

// Classes implements federation.Source over the wire.
func (s *RemoteSource) Classes() []string {
	var names []string
	err := s.rd.DoIdempotent(func(c *client.Client) error {
		var err error
		names, err = c.Classes()
		return err
	})
	if err != nil {
		return nil
	}
	return names
}

// Scan implements federation.Source: enumerate the class with a wire
// query (hierarchy-scoped, like OOSource.Scan), then fetch each
// instance. fn receives entities that resolve nested paths with further
// wire fetches.
func (s *RemoteSource) Scan(class string, fn func(federation.Entity) bool) error {
	var res *client.Result
	err := s.rd.DoIdempotent(func(c *client.Client) error {
		var err error
		res, err = c.Query("SELECT * FROM " + class)
		return err
	})
	if err != nil {
		return err
	}
	for _, row := range res.Rows {
		ent := &remoteEntity{src: s, oid: row.OID}
		if !fn(ent) {
			return nil
		}
	}
	return nil
}

// RunQuery implements federation.QueryableSource: ship the query over
// the wire (federation.Query has already checked the shape is one that
// pushes down). Engine-side rejections decline the pushdown so the
// federation falls back to the lenient Scan path: the wire's error codes
// do not single out the unknown attribute the way query.ErrNoAttr does for
// OOSource, so the whole class of them declines. Connection-level and
// availability errors are real errors: the fallback path would fail the
// same way, so failing fast is honest.
func (s *RemoteSource) RunQuery(q *query.Query) (*federation.Result, bool, error) {
	var wire *client.Result
	err := s.rd.DoIdempotent(func(c *client.Client) error {
		var err error
		wire, err = c.Query(q.String())
		return err
	})
	if err != nil {
		if errors.Is(err, client.ErrNotFound) || errors.Is(err, client.ErrBadRequest) ||
			errors.Is(err, client.ErrServer) {
			return nil, false, nil
		}
		return nil, false, err
	}
	res := &federation.Result{Cols: wire.Cols, Rows: make([]federation.Row, 0, len(wire.Rows))}
	for _, row := range wire.Rows {
		res.Rows = append(res.Rows, federation.Row{
			Entity: &remoteEntity{src: s, oid: row.OID},
			Values: row.Values,
		})
	}
	return res, true, nil
}

// remoteEntity is one remote object viewed through the common model. The
// object body is fetched lazily on the first Get and cached; nested path
// steps dereference with further fetches.
type remoteEntity struct {
	src *RemoteSource
	oid model.OID
	obj *client.Object
}

// fetch reads one object of the member over the wire.
func (s *RemoteSource) fetch(oid model.OID) (*client.Object, error) {
	var obj *client.Object
	err := s.rd.DoIdempotent(func(c *client.Client) error {
		var err error
		obj, err = c.Fetch(oid)
		return err
	})
	return obj, err
}

// Get resolves an attribute path with the engine's path walk over fetched
// objects, so sets fan out and nulls dead-end exactly as on the member. A
// fetched object carries every effective attribute (defaults applied), so a
// name it lacks is unknown: ok is false, as for ooEntity.
func (e *remoteEntity) Get(path []string) (model.Value, bool) {
	if e.obj == nil {
		var err error
		if e.obj, err = e.src.fetch(e.oid); err != nil {
			return model.Null, false
		}
	}
	v, err := query.WalkPath(e.obj, path, func(o *client.Object, step string) (model.Value, error) {
		v, ok := o.Attrs[step]
		if !ok {
			return model.Null, query.ErrNoAttr
		}
		return v, nil
	}, e.src.fetch)
	return v, err == nil
}
