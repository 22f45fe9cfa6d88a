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
// Declarations are flags on the attribute in the catalog
// (core.DB.DeclareComposite), links are ordinary reference attributes, and
// the rules — exclusivity and acyclicity — are a write rule the engine runs
// on every write (CheckWrite), whichever door writes.
package composite

import (
	"errors"
	"fmt"
	"slices"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/schema"
	"oodb/internal/version"
)

// Errors of the composite layer.
var (
	ErrNotComposite = errors.New("composite: attribute is not declared composite")
	ErrAlreadyOwned = errors.New("composite: component already has an exclusive parent")
	ErrCycle        = errors.New("composite: attachment would create a part-of cycle")
)

// Manager implements composite operations over a database. It holds no
// state of its own and is safe for concurrent use.
type Manager struct {
	db *core.DB
}

// New returns the composite layer of db.
func New(db *core.DB) *Manager { return &Manager{db: db} }

// DeclareComposite marks the class's own reference attribute as a
// composite (part-of) link, exclusive or shared. The declaration is
// inherited: it applies to the class and all its subclasses.
func (m *Manager) DeclareComposite(class model.ClassID, attrName string, exclusive bool) error {
	return m.db.DeclareComposite(class, attrName, exclusive)
}

// Attach links child as a component of parent through the named composite
// attribute. It is the write alone: the engine's write check (CheckWrite)
// refuses a second owner or a cycle, so the locks go parent, then child.
func (m *Manager) Attach(tx *core.Tx, parent model.OID, attrName string, child model.OID) error {
	a, err := m.db.Catalog.ResolveAttr(parent.Class(), attrName)
	if err != nil || !a.Composite {
		return fmt.Errorf("%w: %s.%s", ErrNotComposite, className(m.db, parent.Class()), attrName)
	}
	link := model.Ref(child)
	if a.SetValued {
		obj, err := tx.FetchForUpdate(parent)
		if err != nil {
			return err
		}
		members, _ := obj.Get(a.ID).AsSet()
		link = model.Set(append(slices.Clip(members), link)...)
	}
	return tx.Update(parent, map[string]model.Value{attrName: link})
}

func className(db *core.DB, id model.ClassID) string {
	cl, err := db.Catalog.Class(id)
	if err != nil {
		return fmt.Sprintf("class(%d)", id)
	}
	return cl.Name
}

// CheckWrite is the composite rule (core.WriteRule), which oodb.Open
// registers on every database. Each link a write adds through a composite
// attribute — every link of an insert, the new ones of an update — must
// keep an exclusive child to one owner (ErrAlreadyOwned) and the part-of
// graph acyclic (ErrCycle). It takes X on an exclusive child before it
// looks for an owner, and S on each object the cycle walk reads.
func CheckWrite(tx *core.Tx, old, next *model.Object) error {
	if next == nil {
		return nil
	}
	for _, a := range tx.DB().Catalog.CompositeAttrs(next.Class()) {
		var had []model.OID
		if old != nil {
			had = refsOf(old.Get(a.ID))
		}
		for _, child := range refsOf(next.Get(a.ID)) {
			if slices.Contains(had, child) {
				continue
			}
			if err := checkLink(tx, next, a, child); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkLink checks one new link of parent to child through a.
func checkLink(tx *core.Tx, parent *model.Object, a *schema.Attribute, child model.OID) error {
	if a.Exclusive {
		if _, err := tx.FetchForUpdate(child); err != nil {
			return err
		}
		owner, err := ownerOf(tx, child, a)
		if err != nil {
			return err
		}
		if !owner.IsNil() && owner != parent.OID {
			same, err := oneDesign(tx, owner, parent)
			if err != nil {
				return err
			}
			if !same {
				return fmt.Errorf("%w: %s owned by %s", ErrAlreadyOwned, child, owner)
			}
		}
	}
	// parent must not be reachable from child via composite links (child
	// itself included), each read under an S lock (Tx.Fetch).
	reach, err := walk(tx.DB().Catalog, child, tx.Fetch)
	if err != nil {
		return err
	}
	if slices.Contains(reach, parent.OID) {
		return ErrCycle
	}
	return nil
}

// oneDesign reports whether owner and parent are versions of one generic
// object. Deriving a version copies its parent's links, so the versions of
// one design share its exclusive components and count as one owner.
func oneDesign(tx *core.Tx, owner model.OID, parent *model.Object) (bool, error) {
	cat := tx.DB().Catalog
	g := version.Generic(cat, parent)
	if g.IsNil() {
		return false, nil
	}
	obj, err := tx.Read(owner)
	if err != nil {
		return false, err
	}
	return version.Generic(cat, obj) == g, nil
}

// ownerOf finds the existing parent of child through exclusive attribute a
// (scans of the defining class's hierarchy — exclusivity checks are rare
// compared to reads). The caller holds X on child, so no other transaction
// has an uncommitted link to it. A parent owns child if its stored image
// links it, or if its state as tx reads it (tx's own write, else the
// newest committed) does: another transaction's uncommitted unlink, by
// Update or Delete, may yet abort, and tx's own unlink is a move.
func ownerOf(tx *core.Tx, child model.OID, a *schema.Attribute) (model.OID, error) {
	db := tx.DB()
	classes, err := db.Catalog.Descendants(a.Source)
	if err != nil {
		return model.NilOID, err
	}
	links := func(v model.Value) bool { return slices.Contains(refsOf(v), child) }
	var owner model.OID
	fields := []model.Field{{ID: a.ID}}
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
	if err := db.Scan(classes, func(obj *model.Object) bool {
		if links(obj.Get(a.ID)) {
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
		if links(obj.Get(a.ID)) {
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
func walk(cat *schema.Catalog, root model.OID, fetch func(model.OID) (*model.Object, error)) ([]model.OID, error) {
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
		for _, a := range cat.CompositeAttrs(oid.Class()) {
			for _, ref := range refsOf(obj.Get(a.ID)) {
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
	all, err := walk(m.db.Catalog, root, m.db.Fetch)
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
	for _, a := range m.db.Catalog.CompositeAttrs(root.Class()) {
		if a.Exclusive {
			children = append(children, refsOf(obj.Get(a.ID))...)
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
	_, err := walk(m.db.Catalog, root, fetch)
	return err
}

// Recluster physically rewrites the composite object's components in DFS
// order so same-class components land on contiguous heap pages — the
// physical clustering of §4.2, and kimdb's only clustering mechanism,
// measured in experiments E11 and E17. The relocated records leave dead
// slots behind; a compaction afterwards packs the segment in the new order.
// Returns the number of objects rewritten.
func (m *Manager) Recluster(tx *core.Tx, root model.OID) (int, error) {
	all, err := walk(m.db.Catalog, root, tx.FetchForUpdate)
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
