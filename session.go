package oodb

import (
	"errors"
	"fmt"
	"sort"

	"oodb/internal/authz"
	"oodb/internal/query"
	"oodb/internal/server/proto"
)

// Transaction-state errors of a session.
var (
	ErrTxOpen = errors.New("oodb: transaction already open on this session")
	ErrNoTx   = errors.New("oodb: no transaction open on this session")
)

// Session is the role-bound data door of the database, and the thing
// kimsrv serves: every data verb is checked against the authorization
// lattice before it runs, query results are filtered to the instances the
// role may read, and attribute-level prohibitions hold in every verb. It
// turns the authorizer's *decisions* (internal/authz, the RBK model) into
// *enforcement* — the paper's requirement that authorization be a database
// facility, not an application convention (§3.1 requirement 2). A nil
// authorizer is open mode: every operation allowed, nothing filtered.
//
// A session carries at most one explicit transaction (Begin … Commit,
// CommitAsync or Abort); the data verbs join it while it is open and
// autocommit otherwise; outside one, Fetch and Get read the newest
// committed state (DB.Fetch), so they neither wait for another session's
// writer nor see its open writes. A session is used by one goroutine at a
// time.
type Session struct {
	db   *DB
	az   *authz.Authorizer
	role string
	tx   *Tx
}

// Session binds a role to this database under an authorizer (nil = open
// mode).
func (db *DB) Session(az *authz.Authorizer, role string) *Session {
	return &Session{db: db, az: az, role: role}
}

// Role returns the session's role.
func (s *Session) Role() string { return s.role }

// check runs one authorization check, or allows everything in open mode.
func (s *Session) check(t authz.AuthType, obj authz.Object) error {
	if s.az == nil {
		return nil
	}
	return s.az.Check(s.role, t, obj)
}

// attrProhibited reports an explicit prohibition on one attribute. The
// closed-world "no applicable grant" outcome is not one: it falls back to
// the instance or class permission the caller has already established.
func (s *Session) attrProhibited(t authz.AuthType, class ClassID, attr string) error {
	if err := s.check(t, authz.Attribute(class, attr)); err != nil && !errors.Is(err, authz.ErrNoGrant) {
		return fmt.Errorf("oodb: attribute %q: %w", attr, err)
	}
	return nil
}

// --- Transactions -------------------------------------------------------

// Begin opens the session's explicit transaction.
func (s *Session) Begin() error {
	if s.tx != nil {
		return ErrTxOpen
	}
	s.tx = s.db.Begin()
	return nil
}

// end closes the explicit transaction with fn.
func (s *Session) end(fn func(*Tx) error) error {
	if s.tx == nil {
		return ErrNoTx
	}
	tx := s.tx
	s.tx = nil
	return fn(tx)
}

// Commit makes the open transaction durable.
func (s *Session) Commit() error { return s.end((*Tx).Commit) }

// CommitAsync commits the open transaction without waiting for the fsync
// (see Tx.CommitAsync).
func (s *Session) CommitAsync() error { return s.end((*Tx).CommitAsync) }

// Abort rolls the open transaction back.
func (s *Session) Abort() error { return s.end((*Tx).Abort) }

// write runs fn in the open transaction, or in one of its own.
func (s *Session) write(fn func(*Tx) error) error {
	if s.tx != nil {
		return fn(s.tx)
	}
	return s.db.Do(fn)
}

// --- Reads --------------------------------------------------------------

// Query runs a statement — inside the open transaction, reading its
// uncommitted writes, or in a read-only transaction of its own — and
// filters the rows to the instances the role may read. A role without read
// access to any instance in scope gets an empty result, not an error
// (content filtering, like a view); a statement that reads an attribute the
// role is explicitly forbidden is refused with authz.ErrDenied.
func (s *Session) Query(src string) (*proto.Result, error) {
	if s.tx != nil {
		return s.query(s.tx, src)
	}
	tx := s.db.Begin()
	defer tx.Commit()
	return s.query(tx, src)
}

// QuerySnapshot is Query in a lock-free snapshot of the last commit epoch;
// it never joins the open transaction.
func (s *Session) QuerySnapshot(src string) (*proto.Result, error) {
	tx := s.db.BeginSnapshot()
	defer tx.Commit()
	return s.query(tx, src)
}

func (s *Session) query(tx *Tx, src string) (*proto.Result, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	var vet func(*query.Plan) error
	if s.az != nil {
		vet = s.checkPaths
	}
	res, err := s.db.q.RunQuery(tx, q, vet)
	if err != nil {
		return nil, err
	}
	out := &proto.Result{Cols: res.Cols, Rows: make([]proto.ResultRow, 0, len(res.Rows))}
	for _, row := range res.Rows {
		// Aggregate rows carry no identity: only a role that may read the
		// whole database sees them.
		obj := authz.Database()
		if !row.OID.IsNil() {
			obj = authz.Instance(row.OID)
		}
		if s.check(authz.Read, obj) == nil {
			out.Rows = append(out.Rows, proto.ResultRow{OID: row.OID, Values: row.Values})
		}
	}
	return out, nil
}

// checkPaths refuses a planned statement that reads — in its projection,
// predicate, ORDER BY or an aggregate argument — an attribute the role is
// explicitly forbidden to read, at any class its binding reads it at
// (query.Plan.Reads): each scope class, and each descendant of an
// interior step's domain. FROM ONLY narrows the scope to one class. A step
// that is no attribute (a method, or a name the executor refuses) ends its
// path there.
func (s *Session) checkPaths(plan *query.Plan) error {
	for _, r := range plan.Reads {
		if err := s.attrProhibited(authz.Read, r.Class, r.Name); err != nil {
			return err
		}
	}
	return nil
}

// fetchObject reads an object in the open transaction, else committed.
func (s *Session) fetchObject(oid OID) (*Object, error) {
	if s.tx != nil {
		return s.tx.Fetch(oid)
	}
	return s.db.Fetch(oid)
}

// Fetch returns an object the role may read as its class name and
// effective attributes (inheritance and class defaults applied).
// Attributes the role is explicitly forbidden to read are left out rather
// than failing the fetch — content filtering, like Query's rows.
func (s *Session) Fetch(oid OID) (*proto.Object, error) {
	if err := s.check(authz.Read, authz.Instance(oid)); err != nil {
		return nil, err
	}
	obj, err := s.fetchObject(oid)
	if err != nil {
		return nil, err
	}
	cat := s.db.eng.Catalog
	cl, err := cat.Class(obj.Class())
	if err != nil {
		return nil, err
	}
	attrs, err := cat.EffectiveAttrs(cl.ID)
	if err != nil {
		return nil, err
	}
	out := &proto.Object{OID: oid, Class: cl.Name, Attrs: make(Attrs, len(attrs))}
	for _, a := range attrs {
		if s.attrProhibited(authz.Read, cl.ID, a.Name) != nil {
			continue
		}
		if v, err := s.db.Get(obj, a.Name); err == nil {
			out.Attrs[a.Name] = v
		}
	}
	return out, nil
}

// Get reads one attribute (inheritance and defaults applied): the instance
// must be readable and the attribute not explicitly forbidden.
func (s *Session) Get(oid OID, attr string) (Value, error) {
	if err := s.check(authz.Read, authz.Instance(oid)); err != nil {
		return Null, err
	}
	if err := s.attrProhibited(authz.Read, oid.Class(), attr); err != nil {
		return Null, err
	}
	obj, err := s.fetchObject(oid)
	if err != nil {
		return Null, err
	}
	return s.db.Get(obj, attr)
}

// Classes returns the sorted class names of the database — the schema
// surface a federation or a shard router enumerates. Like an aggregate row
// it describes no one instance, so it needs read access to the database.
func (s *Session) Classes() ([]string, error) {
	if err := s.check(authz.Read, authz.Database()); err != nil {
		return nil, err
	}
	classes := s.db.eng.Catalog.Classes()
	names := make([]string, 0, len(classes))
	for _, cl := range classes {
		names = append(names, cl.Name)
	}
	sort.Strings(names)
	return names, nil
}

// --- Writes -------------------------------------------------------------

// Insert creates an object if the role may write the class.
func (s *Session) Insert(className string, attrs Attrs) (OID, error) {
	cl, err := s.db.ClassByName(className)
	if err != nil {
		return 0, err
	}
	if err := s.check(authz.Write, authz.Class(cl.ID)); err != nil {
		return 0, err
	}
	var oid OID
	err = s.write(func(tx *Tx) error {
		var err error
		oid, err = tx.Insert(className, attrs)
		return err
	})
	return oid, err
}

// Update writes attributes if the role may write the instance and no
// attribute-level write prohibition covers a written attribute.
func (s *Session) Update(oid OID, attrs Attrs) error {
	if err := s.check(authz.Write, authz.Instance(oid)); err != nil {
		return err
	}
	for name := range attrs {
		if err := s.attrProhibited(authz.Write, oid.Class(), name); err != nil {
			return err
		}
	}
	return s.write(func(tx *Tx) error { return tx.Update(oid, attrs) })
}

// Delete removes an object if the role may write it.
func (s *Session) Delete(oid OID) error {
	if err := s.check(authz.Write, authz.Instance(oid)); err != nil {
		return err
	}
	return s.write(func(tx *Tx) error { return tx.Delete(oid) })
}
