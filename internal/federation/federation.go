// Package federation implements the migration path of Kim §5.2: "allow
// the user to access a heterogeneous mix of databases under the illusion
// of a single common data model", with the object-oriented data model as
// the common model.
//
// Sources adapt member databases to the common model: the bundled adapters
// cover a kimdb object database (classes, hierarchy scope, nested paths)
// and the relational engine (relations as classes, columns as attributes,
// declared foreign keys traversed as aggregation — a relational tuple
// presents its referenced tuples as nested objects). New kinds of member
// database join the federation by implementing Source, exactly the
// extensibility argument the paper makes for the OO common model.
package federation

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/query"
	"oodb/internal/relational"
)

// Entity is one object of a member database viewed through the common
// model: attribute paths resolve to values, nested steps traversing
// whatever the member database uses for relationships.
type Entity interface {
	// Get resolves an attribute path; ok is false if any step is unknown.
	Get(path []string) (v model.Value, ok bool)
}

// Source adapts one member database.
type Source interface {
	// Classes lists the class names this source exports.
	Classes() []string
	// Scan iterates the instances of a class.
	Scan(class string, fn func(Entity) bool) error
}

// QueryableSource is an optional Source extension for members that can
// evaluate a whole query themselves — a kimdb engine with its planner and
// indexes, or a remote server reached over the wire — instead of being
// driven entity by entity through Scan.
//
// RunQuery returns handled=false (with a nil error) to decline a query it
// cannot or should not evaluate natively; the federation then falls back
// to the Scan path. A source must only report handled=true for results
// the Scan path would also give — the pushdown is an optimization, never a
// semantic fork (pinned by the differential test). Both paths run the
// engine's compiled program (query.Compile) and query.OrderLimit; they can
// differ only in how an entity's paths are read.
type QueryableSource interface {
	Source
	RunQuery(q *query.Query) (res *Result, handled bool, err error)
}

// pushdownable reports whether a parsed query is eligible for
// QueryableSource pushdown. Queries without an explicit projection are
// excluded (the scan path returns entity rows, which have no wire/native
// equivalent), as are aggregates (rejected in federated queries anyway)
// and ONLY scope (the common model's Scan is always hierarchy-scoped, so
// a native ONLY would change semantics).
func pushdownable(q *query.Query) bool {
	return len(q.Select) > 0 && len(q.Aggregates) == 0 && !q.Only
}

// Errors of the federation layer.
var (
	ErrNoSource = errors.New("federation: no such source")
	ErrNoClass  = errors.New("federation: no such class in source")
)

// Federation is a registry of sources plus the federated query facility.
type Federation struct {
	sources map[string]Source
}

// New returns an empty federation.
func New() *Federation { return &Federation{sources: make(map[string]Source)} }

// Register adds a member database under a name.
func (f *Federation) Register(name string, src Source) {
	f.sources[name] = src
}

// Sources lists registered member names.
func (f *Federation) Sources() []string {
	out := make([]string, 0, len(f.sources))
	for n := range f.sources {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Row is one federated result row.
type Row struct {
	Entity Entity
	Values []model.Value
}

// Result is a federated query result.
type Result struct {
	Cols []string
	Rows []Row
}

// Query runs a query (the standard kimdb query language) against one
// member database. The FROM class resolves inside that source; predicates
// and projections evaluate through the common model, so the same query
// text works against an object member and a relational member.
func (f *Federation) Query(source, src string) (*Result, error) {
	s, ok := f.sources[source]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSource, source)
	}
	q, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	if len(q.Aggregates) > 0 {
		return nil, errors.New("federation: aggregates are not supported in federated queries")
	}
	if !slices.Contains(s.Classes(), q.From) {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoClass, source, q.From)
	}
	if qs, can := s.(QueryableSource); can && pushdownable(q) {
		res, handled, err := qs.RunQuery(q)
		if err != nil {
			return nil, err
		}
		if handled {
			return res, nil
		}
	}
	res := &Result{}
	if len(q.Select) == 0 {
		res.Cols = []string{"entity"}
	} else {
		for _, p := range q.Select {
			res.Cols = append(res.Cols, p.String())
		}
	}
	prog, err := query.Compile(q)
	if err != nil {
		return nil, err
	}
	// The frame fills a slot through the lenient reader: an attribute the
	// member does not have is null here, not the error it is inside the
	// engine — members are heterogeneous.
	var cur Entity
	frame := prog.NewFrame(func(slot int) (model.Value, error) {
		v, _ := cur.Get(prog.Path(slot))
		return v, nil
	})
	var evalErr error
	err = s.Scan(q.From, func(ent Entity) bool {
		cur = ent
		frame.Reset()
		var ok bool
		if ok, evalErr = frame.Match(); evalErr != nil || !ok {
			return evalErr == nil
		}
		row := Row{Entity: ent}
		for _, p := range q.Select {
			v, _ := ent.Get(p.Steps)
			row.Values = append(row.Values, v)
		}
		res.Rows = append(res.Rows, row)
		return q.Limit == 0 || q.OrderBy != nil || len(res.Rows) < q.Limit
	})
	if err != nil {
		return nil, err
	}
	if evalErr != nil {
		return nil, evalErr
	}
	var key func(*Row) (model.Value, error)
	if q.OrderBy != nil {
		key = func(r *Row) (model.Value, error) {
			v, _ := r.Entity.Get(q.OrderBy.Steps)
			return v, nil
		}
	}
	res.Rows, err = query.OrderLimit(res.Rows, key, q.Desc, q.Limit)
	return res, err
}

// ---------------------------------------------------------------------
// Object-database source.

// OOSource exports a kimdb database into a federation.
type OOSource struct {
	db  *core.DB
	eng *query.Engine
}

// NewOOSource wraps an object database.
func NewOOSource(db *core.DB) *OOSource {
	return &OOSource{db: db, eng: query.NewEngine(db)}
}

// Classes implements Source.
func (s *OOSource) Classes() []string {
	var out []string
	for _, cl := range s.db.Catalog.Classes() {
		out = append(out, cl.Name)
	}
	return out
}

// Scan implements Source with hierarchy scope (a class exports its own
// and its subclasses' instances — the common model is the OO model). It is
// one read transaction, like RunQuery: each class is read under its S lock,
// so nobody's uncommitted bytes surface, and an undecodable record fails it.
func (s *OOSource) Scan(class string, fn func(Entity) bool) error {
	cl, err := s.db.Catalog.ClassByName(class)
	if err != nil {
		return err
	}
	classes, err := s.db.Catalog.Descendants(cl.ID)
	if err != nil {
		return err
	}
	tx := s.db.Begin()
	defer tx.Abort()
	more := true
	for _, c := range classes {
		err := tx.Scan(c, func(obj *model.Object) bool {
			more = fn(&ooEntity{src: s, obj: obj})
			return more
		})
		if err != nil || !more {
			return err
		}
	}
	return nil
}

// RunQuery implements QueryableSource: the query runs through the
// engine's planner and executor (index selection, hierarchy scope) in a
// fresh read transaction instead of entity by entity. The engine is
// stricter than the lenient common model about one thing — an unknown
// attribute is an error there, a null here — so exactly that error declines
// the pushdown and the Scan path answers; any other failure (I/O, a corrupt
// record, a lock abort) is the query's failure on either path.
func (s *OOSource) RunQuery(q *query.Query) (*Result, bool, error) {
	tx := s.db.Begin()
	defer tx.Abort()
	eres, err := s.eng.RunQuery(tx, q, nil)
	if errors.Is(err, query.ErrNoAttr) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	res := &Result{Cols: eres.Cols, Rows: make([]Row, 0, len(eres.Rows))}
	for _, row := range eres.Rows {
		var ent Entity
		if !row.OID.IsNil() {
			obj := row.Object
			if obj == nil { // a row the engine answered from an index alone
				if obj, err = tx.Read(row.OID); err != nil {
					return nil, false, err
				}
			}
			ent = &ooEntity{src: s, obj: obj}
		}
		res.Rows = append(res.Rows, Row{Entity: ent, Values: row.Values})
	}
	return res, true, nil
}

type ooEntity struct {
	src *OOSource
	obj *model.Object
}

// Get resolves a path with the engine's own walk (defaults, methods,
// fan-out through sets); any step the engine cannot read makes ok false.
// Entities outlive the transaction that produced them, so the objects a
// path crosses are read at their newest committed state (DB.Fetch).
func (e *ooEntity) Get(path []string) (model.Value, bool) {
	v, err := e.src.eng.EvalPath(e.src.db.Fetch, e.obj, path)
	return v, err == nil
}

// ---------------------------------------------------------------------
// Relational source.

// FK declares that a column of a relation references the key column of
// another relation — presented in the common model as an aggregation: a
// path step through the column continues inside the referenced tuple.
type FK struct {
	Relation string // referenced relation
	KeyCol   string // referenced key column
}

// RelSource exports a relational database into the federation.
type RelSource struct {
	db       *relational.DB
	fks      map[string]map[string]FK // relation -> column -> FK
	exported map[string]bool          // relations published as classes
}

// NewRelSource wraps a relational database.
func NewRelSource(db *relational.DB) *RelSource {
	return &RelSource{db: db, fks: make(map[string]map[string]FK)}
}

// DeclareFK registers a foreign key for path traversal.
func (s *RelSource) DeclareFK(relation, column string, fk FK) error {
	if _, err := s.db.Relation(relation); err != nil {
		return err
	}
	if _, err := s.db.Relation(fk.Relation); err != nil {
		return err
	}
	m := s.fks[relation]
	if m == nil {
		m = make(map[string]FK)
		s.fks[relation] = m
	}
	m[column] = fk
	return nil
}

// Classes implements Source: the relations published with Export appear
// as classes of the common model.
func (s *RelSource) Classes() []string {
	out := make([]string, 0, len(s.exported))
	for name := range s.exported {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Export publishes a relation as a class of the federation.
func (s *RelSource) Export(relation string) error {
	if _, err := s.db.Relation(relation); err != nil {
		return err
	}
	if s.exported == nil {
		s.exported = make(map[string]bool)
	}
	s.exported[relation] = true
	return nil
}

// Scan implements Source.
func (s *RelSource) Scan(class string, fn func(Entity) bool) error {
	if !s.exported[class] {
		return fmt.Errorf("%w: %q", ErrNoClass, class)
	}
	rel, err := s.db.Relation(class)
	if err != nil {
		return err
	}
	rel.Scan(func(row int, tuple []model.Value) bool {
		return fn(&relEntity{src: s, rel: rel, tuple: tuple})
	})
	return nil
}

type relEntity struct {
	src   *RelSource
	rel   *relational.Relation
	tuple []model.Value
}

// Get resolves a path: the first step is a column; further steps traverse
// declared foreign keys into referenced tuples.
func (e *relEntity) Get(path []string) (model.Value, bool) {
	rel, tuple := e.rel, e.tuple
	for i, step := range path {
		v, err := rel.Col(tuple, step)
		if err != nil {
			return model.Null, false
		}
		if i == len(path)-1 {
			return v, true
		}
		fk, ok := e.src.fks[rel.Name][step]
		if !ok {
			return model.Null, false // no FK: path cannot continue
		}
		target, err := e.src.db.Relation(fk.Relation)
		if err != nil {
			return model.Null, false
		}
		rows, err := target.SelectEq(fk.KeyCol, v)
		if err != nil || len(rows) == 0 {
			return model.Null, true // dangling FK: null
		}
		next, err := target.Get(rows[0])
		if err != nil {
			return model.Null, true
		}
		rel, tuple = target, next
	}
	return model.Null, false
}
