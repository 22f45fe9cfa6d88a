// Package composite implements composite objects per Kim, Bertino & Garza
// ("Composite Objects Revisited", SIGMOD 1989) — the part-of relationship
// the paper lists among the CAx data-modeling requirements (§3.3): a
// composite object is a root object plus the components reachable through
// composite (part-of) attributes.
//
// Semantics implemented:
//
//   - a reference attribute may be declared composite, optionally
//     exclusive: an exclusive component belongs to at most one parent;
//   - deleting a composite object propagates to dependent (exclusive)
//     components recursively;
//   - a composite object can be locked as a unit (the composite lock of
//     [KIM89c]): one call locks the root and every component;
//   - components can be re-clustered so a composite object's parts sit on
//     contiguous heap pages (the physical-clustering lever of §4.2,
//     measured in experiment E11).
//
// Like the version layer, composite semantics live above the engine:
// declarations are manager state persisted as ordinary objects, links are
// ordinary reference attributes, and all mutation happens inside ordinary
// transactions.
package composite

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/schema"
)

// Errors of the composite layer.
var (
	ErrNotComposite = errors.New("composite: attribute is not declared composite")
	ErrAlreadyOwned = errors.New("composite: component already has an exclusive parent")
	ErrCycle        = errors.New("composite: attachment would create a part-of cycle")
)

// decl is one composite-attribute declaration.
type decl struct {
	class     model.ClassID
	attr      model.AttrID
	exclusive bool
}

// declClassName persists declarations across reopen.
const declClassName = "CompositeDecl"

// Manager tracks composite declarations and implements composite
// operations over a database. It is safe for concurrent use.
type Manager struct {
	db        *core.DB
	declClass *schema.Class

	mu    sync.Mutex
	decls []decl
}

// New creates (or re-attaches) the composite layer.
func New(db *core.DB) (*Manager, error) {
	m := &Manager{db: db}
	cl, err := db.SystemClass(declClassName,
		schema.AttrSpec{Name: "class", Domain: schema.ClassInteger},
		schema.AttrSpec{Name: "attr", Domain: schema.ClassInteger},
		schema.AttrSpec{Name: "attrName", Domain: schema.ClassString},
		schema.AttrSpec{Name: "exclusive", Domain: schema.ClassBoolean},
	)
	if err != nil {
		return nil, err
	}
	m.declClass = cl
	// Reload persisted declarations.
	err = db.Scan([]model.ClassID{cl.ID}, func(obj *model.Object) bool {
		get := func(name string) model.Value {
			v, _ := db.AttrValue(obj, name)
			return v
		}
		c, _ := get("class").AsInt()
		a, _ := get("attr").AsInt()
		x, _ := get("exclusive").AsBool()
		m.decls = append(m.decls, decl{
			class: model.ClassID(c), attr: model.AttrID(a), exclusive: x,
		})
		return true
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// DeclareComposite marks an existing reference attribute of a class as a
// composite (part-of) link. The declaration is inherited: it applies to
// the class and all its subclasses.
func (m *Manager) DeclareComposite(class model.ClassID, attrName string, exclusive bool) error {
	a, err := m.db.Catalog.ResolveAttr(class, attrName)
	if err != nil {
		return err
	}
	if schema.IsPrimitive(a.Domain) {
		return fmt.Errorf("composite: attribute %q has primitive domain %d", attrName, a.Domain)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, d := range m.decls {
		if d.class == class && d.attr == a.ID {
			return fmt.Errorf("composite: %s.%s already declared", className(m.db, class), attrName)
		}
	}
	err = m.db.Do(func(tx *core.Tx) error {
		_, err := tx.InsertClass(m.declClass.ID, map[string]model.Value{
			"class":     model.Int(int64(class)),
			"attr":      model.Int(int64(a.ID)),
			"attrName":  model.String(attrName),
			"exclusive": model.Bool(exclusive),
		})
		return err
	})
	if err != nil {
		return err
	}
	m.decls = append(m.decls, decl{class: class, attr: a.ID, exclusive: exclusive})
	return nil
}

func className(db *core.DB, id model.ClassID) string {
	cl, err := db.Catalog.Class(id)
	if err != nil {
		return fmt.Sprintf("class(%d)", id)
	}
	return cl.Name
}

// compositeAttrs returns the composite declarations applying to class
// (declared on it or any ancestor).
func (m *Manager) compositeAttrs(class model.ClassID) []decl {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []decl
	for _, d := range m.decls {
		if m.db.Catalog.IsSubclassOf(class, d.class) {
			out = append(out, d)
		}
	}
	return out
}

// Attach links child as a component of parent through the named composite
// attribute, enforcing exclusivity (an exclusive component may have only
// one parent) and acyclicity of the part-of graph. An exclusive attach
// looks for an owner holding X on child, and the cycle check holds S on
// what it walks (DESIGN §6 "Feature layers").
func (m *Manager) Attach(tx *core.Tx, parent model.OID, attrName string, child model.OID) error {
	d, a, err := m.findDecl(parent.Class(), attrName)
	if err != nil {
		return err
	}
	if d.exclusive {
		if _, err := tx.FetchForUpdate(child); err != nil {
			return err
		}
		owner, err := m.ownerOf(tx, child, d)
		if err != nil {
			return err
		}
		if !owner.IsNil() && owner != parent {
			return fmt.Errorf("%w: %s owned by %s", ErrAlreadyOwned, child, owner)
		}
	}
	// Cycle check: parent must not be reachable from child via composite
	// links (child itself included), each read under an S lock (Tx.Fetch).
	reach, err := m.walk(child, tx.Fetch)
	if err != nil {
		return err
	}
	for _, c := range reach {
		if c == parent {
			return ErrCycle
		}
	}
	obj, err := tx.FetchForUpdate(parent)
	if err != nil {
		return err
	}
	if a.SetValued {
		members, _ := obj.Get(a.ID).AsSet()
		next := append(append([]model.Value(nil), members...), model.Ref(child))
		return tx.Update(parent, map[string]model.Value{attrName: model.Set(next...)})
	}
	return tx.Update(parent, map[string]model.Value{attrName: model.Ref(child)})
}

// findDecl resolves class.attrName to its attribute and the composite
// declaration that covers it.
func (m *Manager) findDecl(class model.ClassID, attrName string) (decl, *schema.Attribute, error) {
	if a, err := m.db.Catalog.ResolveAttr(class, attrName); err == nil {
		for _, d := range m.compositeAttrs(class) {
			if d.attr == a.ID {
				return d, a, nil
			}
		}
	}
	return decl{}, nil, fmt.Errorf("%w: %s.%s", ErrNotComposite, className(m.db, class), attrName)
}

// ownerOf finds the existing exclusive parent of child under declaration
// d (scans of the declaring class hierarchy — exclusivity checks are rare
// compared to reads). Attach calls it in tx holding X on child, so no other
// transaction has an uncommitted Attach of child. A parent owns child if
// its stored image links it, or if its state as tx reads it (tx's own
// write, else the newest committed) does: another transaction's
// uncommitted unlink, by Update or Delete, may yet abort, and tx's own
// unlink is a move.
func (m *Manager) ownerOf(tx *core.Tx, child model.OID, d decl) (model.OID, error) {
	classes, err := m.db.Catalog.Descendants(d.class)
	if err != nil {
		return model.NilOID, err
	}
	links := func(v model.Value) bool { return slices.Contains(refsOf(v), child) }
	var owner model.OID
	fields := []model.Field{{ID: d.attr}}
	for _, class := range classes {
		err := tx.ScanLocked(class, fields, func(im model.Image) bool {
			if links(fields[0].V) {
				owner = im.OID()
			}
			return owner.IsNil()
		})
		if err != nil || !owner.IsNil() {
			return owner, err
		}
	}
	var committed []model.OID
	if err := m.db.Scan(classes, func(obj *model.Object) bool {
		if links(obj.Get(d.attr)) {
			committed = append(committed, obj.OID)
		}
		return true
	}); err != nil {
		return model.NilOID, err
	}
	for _, oid := range committed {
		obj, err := tx.Read(oid)
		if errors.Is(err, core.ErrNoObject) {
			continue // tx deleted it
		}
		if err != nil {
			return model.NilOID, err
		}
		if links(obj.Get(d.attr)) {
			return oid, nil
		}
	}
	return model.NilOID, nil
}

// refsOf extracts the object references out of an attribute value: the
// single target of a reference, or every reference member of a set.
func refsOf(v model.Value) []model.OID {
	if ref, ok := v.AsRef(); ok {
		return []model.OID{ref}
	}
	var out []model.OID
	if members, ok := v.AsSet(); ok {
		for _, mem := range members {
			if ref, ok := mem.AsRef(); ok {
				out = append(out, ref)
			}
		}
	}
	return out
}

// walk returns root and every component reachable from it through
// composite attributes, in DFS order, reading each object through fetch.
// A component that no longer exists is a dangling link: it is listed but
// has no components. Any other read error stops the walk.
func (m *Manager) walk(root model.OID, fetch func(model.OID) (*model.Object, error)) ([]model.OID, error) {
	var out []model.OID
	seen := map[model.OID]bool{}
	var visit func(oid model.OID) error
	visit = func(oid model.OID) error {
		seen[oid] = true
		out = append(out, oid)
		obj, err := fetch(oid)
		if errors.Is(err, core.ErrNoObject) {
			return nil
		}
		if err != nil {
			return err
		}
		for _, d := range m.compositeAttrs(oid.Class()) {
			for _, ref := range refsOf(obj.Get(d.attr)) {
				if seen[ref] {
					continue
				}
				if err := visit(ref); err != nil {
					return err
				}
			}
		}
		return nil
	}
	err := visit(root)
	return out, err
}

// Components returns every component reachable from root through
// composite attributes, in DFS order (root excluded).
func (m *Manager) Components(root model.OID) ([]model.OID, error) {
	all, err := m.walk(root, m.db.Fetch)
	if err != nil {
		return nil, err
	}
	return all[1:], nil
}

// DeleteComposite deletes root and, recursively, every exclusive
// component (delete propagation; shared components survive).
func (m *Manager) DeleteComposite(tx *core.Tx, root model.OID) error {
	obj, err := tx.FetchForUpdate(root)
	if err != nil {
		return err
	}
	// Collect exclusive children before deleting the root.
	var children []model.OID
	for _, d := range m.compositeAttrs(root.Class()) {
		if d.exclusive {
			children = append(children, refsOf(obj.Get(d.attr))...)
		}
	}
	if err := tx.Delete(root); err != nil {
		return err
	}
	for _, c := range children {
		// A child already gone was reached twice (a diamond) or dangles.
		if err := m.DeleteComposite(tx, c); err != nil && !errors.Is(err, core.ErrNoObject) {
			return err
		}
	}
	return nil
}

// LockComposite locks the whole composite object as a unit: the root and
// every component, in the requested mode (read or write) — the composite
// lock of [KIM89c]. Each object is locked before its links are read, so
// the components locked are the ones the locks protect.
func (m *Manager) LockComposite(tx *core.Tx, root model.OID, write bool) error {
	fetch := tx.Fetch
	if write {
		fetch = tx.FetchForUpdate
	}
	_, err := m.walk(root, fetch)
	return err
}

// Recluster physically rewrites the composite object's components in DFS
// order so same-class components land on contiguous heap pages — the
// physical clustering of §4.2, and kimdb's only clustering mechanism,
// measured in experiments E11 and E17. The relocated records leave dead
// slots behind; a compaction afterwards packs the segment in the new order.
// Returns the number of objects rewritten.
func (m *Manager) Recluster(tx *core.Tx, root model.OID) (int, error) {
	all, err := m.walk(root, tx.FetchForUpdate)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, oid := range all {
		if err := tx.Rewrite(oid); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
