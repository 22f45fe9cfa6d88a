// Package views implements views for an object-oriented database — the
// facility the paper calls out as wholly unexplored ("to the best of our
// knowledge, no object-oriented database system supports views at this
// time", §5.4).
//
// A view is a named, stored query defining a virtual class: running the
// view yields the objects (and projections) its query selects. Views serve
// the three uses the paper lists:
//
//   - shorthand for queries (Run);
//   - logical partitioning of a class's instances (a view over `FROM C
//     WHERE p` names the p-partition of C);
//   - content-based authorization (Visible: an object is visible through
//     a view iff it satisfies the view's predicate) — combine with
//     internal/authz to grant roles access to views instead of classes;
//   - a lightweight form of schema versioning (Redefine lets applications
//     experiment with a changed shape without touching stored classes).
package views

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/query"
	"oodb/internal/schema"
)

// Errors of the view layer.
var (
	ErrViewExists = errors.New("views: view already exists")
	ErrNoSuchView = errors.New("views: no such view")
)

const defClassName = "ViewDef"

// Manager stores and executes view definitions.
type Manager struct {
	db  *core.DB
	eng *query.Engine

	mu    sync.RWMutex
	defs  map[string]def
	class *schema.Class
}

// def is one stored view.
type def struct {
	src string    // query source
	oid model.OID // persisted definition object
}

// New creates (or re-attaches) the view layer over db and resolves view
// names in eng's queries: FROM <ViewName> plans as the view's query merged
// with the outer query. Run executes views through eng.
func New(db *core.DB, eng *query.Engine) (*Manager, error) {
	m := &Manager{db: db, eng: eng, defs: make(map[string]def)}
	cl, err := db.SystemClass(defClassName,
		schema.AttrSpec{Name: "name", Domain: schema.ClassString},
		schema.AttrSpec{Name: "source", Domain: schema.ClassString},
	)
	if err != nil {
		return nil, err
	}
	m.class = cl
	err = db.Scan([]model.ClassID{cl.ID}, func(obj *model.Object) bool {
		nv, _ := db.AttrValue(obj, "name")
		sv, _ := db.AttrValue(obj, "source")
		name, _ := nv.AsString()
		src, _ := sv.AsString()
		if name != "" {
			m.defs[name] = def{src: src, oid: obj.OID}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	eng.Views = m.lookup
	return m, nil
}

// Define stores a view. The query is validated (parsed and planned, with
// this definition visible to itself so self-references are caught) before
// the definition is persisted.
func (m *Manager) Define(name, src string) error {
	if err := m.validateAs(name, src); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.defs[name]; dup {
		return fmt.Errorf("%w: %q", ErrViewExists, name)
	}
	var oid model.OID
	err := m.db.Do(func(tx *core.Tx) error {
		var err error
		oid, err = tx.InsertClass(m.class.ID, map[string]model.Value{
			"name":   model.String(name),
			"source": model.String(src),
		})
		return err
	})
	if err != nil {
		return err
	}
	m.defs[name] = def{src: src, oid: oid}
	return nil
}

// validateAs parses and plans src as the definition of view name, with
// that definition already shadowed into the resolver — so a view that
// references itself (directly or through another view) fails validation
// instead of recursing at run time.
func (m *Manager) validateAs(name, src string) error {
	q, err := query.Parse(src)
	if err != nil {
		return err
	}
	eng := query.NewEngine(m.db)
	eng.Views = func(n string) (string, bool) {
		if n == name {
			return src, true
		}
		return m.lookup(n)
	}
	_, err = eng.PlanQuery(q)
	return err
}

// Redefine replaces a view's query — the schema-versioning use of views:
// consumers keep the view name while the definition evolves.
func (m *Manager) Redefine(name, src string) error {
	if err := m.validateAs(name, src); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.defs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchView, name)
	}
	err := m.db.Do(func(tx *core.Tx) error {
		return tx.Update(d.oid, map[string]model.Value{"source": model.String(src)})
	})
	if err != nil {
		return err
	}
	m.defs[name] = def{src: src, oid: d.oid}
	return nil
}

// Drop removes a view.
func (m *Manager) Drop(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.defs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchView, name)
	}
	err := m.db.Do(func(tx *core.Tx) error { return tx.Delete(d.oid) })
	if err != nil {
		return err
	}
	delete(m.defs, name)
	return nil
}

// Source returns a view's query text.
func (m *Manager) Source(name string) (string, error) {
	if src, ok := m.lookup(name); ok {
		return src, nil
	}
	return "", fmt.Errorf("%w: %q", ErrNoSuchView, name)
}

// Names lists defined views.
func (m *Manager) Names() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.defs))
	for n := range m.defs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// lookup implements query.Engine.Views.
func (m *Manager) lookup(name string) (string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	d, ok := m.defs[name]
	return d.src, ok
}

// Run executes the view as a query inside tx.
func (m *Manager) Run(tx *core.Tx, name string) (*query.Result, error) {
	src, err := m.Source(name)
	if err != nil {
		return nil, err
	}
	return m.eng.Run(tx, src)
}

// Visible reports whether oid is visible through the view — the
// content-based authorization predicate: a role granted access via this
// view sees exactly the objects the view selects.
func (m *Manager) Visible(tx *core.Tx, name string, oid model.OID) (bool, error) {
	res, err := m.Run(tx, name)
	if err != nil {
		return false, err
	}
	for _, row := range res.Rows {
		if row.OID == oid {
			return true, nil
		}
	}
	return false, nil
}
