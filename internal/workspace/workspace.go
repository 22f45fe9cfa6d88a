// Package workspace implements kimdb's memory-resident object management —
// the LOOM/ORION technique the paper singles out (§3.3 concern 2): "a much
// better solution is to store logical object identifiers within the objects
// in the database, and convert them to memory pointers to related objects"
// as objects are fetched.
//
// A Workspace is a per-application object cache. Fetching an object
// materializes a Descriptor; dereferencing a reference attribute through
// the descriptor swizzles the stored OID into a direct pointer to the
// target descriptor on first use, so repeated navigation costs a pointer
// hop and a map-free attribute read instead of a database call — the
// order-of-magnitude gap experiments E3 and E5 measure.
//
// Dirty descriptors are written back through a transaction at Save time,
// extending transaction semantics over the virtual-memory workspace
// exactly as the paper describes ("systems that manage memory-resident
// objects extend the capabilities of database systems to the virtual-
// memory workspace").
package workspace

import (
	"errors"
	"fmt"

	"oodb/internal/core"
	"oodb/internal/model"
)

// Descriptor is the in-memory representation of one object: its state plus
// the swizzling table for its reference attributes.
type Descriptor struct {
	ws    *Workspace
	obj   *model.Object
	dirty bool
	// swizzled maps attribute -> resolved descriptor (single-valued
	// references only; set-valued references resolve per call).
	swizzled map[model.AttrID]*Descriptor
}

// Workspace is an object cache with OID→pointer conversion.
type Workspace struct {
	db    *core.DB
	cache map[model.OID]*Descriptor

	// Fetches counts loads from the database (cache misses); Hits counts
	// cache and swizzled-pointer hits. The benchmarks read both.
	Fetches uint64
	Hits    uint64
}

// ErrNotReference reports dereferencing a non-reference attribute.
var ErrNotReference = errors.New("workspace: attribute is not a single-valued reference")

// New creates an empty workspace over db.
func New(db *core.DB) *Workspace {
	return &Workspace{db: db, cache: make(map[model.OID]*Descriptor)}
}

// Fetch returns the descriptor for oid, loading the object on first use.
func (ws *Workspace) Fetch(oid model.OID) (*Descriptor, error) {
	if d, ok := ws.cache[oid]; ok {
		ws.Hits++
		mCacheHits.Add(1)
		return d, nil
	}
	obj, err := ws.db.Fetch(oid)
	if err != nil {
		return nil, err
	}
	ws.Fetches++
	mLazyFetches.Add(1)
	d := &Descriptor{ws: ws, obj: obj, swizzled: make(map[model.AttrID]*Descriptor)}
	ws.cache[oid] = d
	return d, nil
}

// Resident reports whether oid is materialized in the workspace.
func (ws *Workspace) Resident(oid model.OID) bool {
	_, ok := ws.cache[oid]
	return ok
}

// Len returns the number of resident descriptors.
func (ws *Workspace) Len() int { return len(ws.cache) }

// Evict removes a clean descriptor from the workspace. Dirty descriptors
// are kept (their changes would be lost); it reports whether the object is
// gone.
func (ws *Workspace) Evict(oid model.OID) bool {
	if d, ok := ws.cache[oid]; ok && d.dirty {
		return false
	}
	ws.Discard(oid)
	return true
}

// unswizzle removes pointers to oid from every resident descriptor so an
// evicted object cannot be reached through a stale pointer.
func (ws *Workspace) unswizzle(oid model.OID) {
	for _, d := range ws.cache {
		for attr, target := range d.swizzled {
			if target.obj.OID == oid {
				delete(d.swizzled, attr)
			}
		}
	}
}

// Save writes every dirty descriptor back through one transaction. On
// success the workspace is clean; on error the transaction is aborted and
// descriptors keep their in-memory state.
func (ws *Workspace) Save() error {
	var dirty []model.OID
	for oid, d := range ws.cache {
		if d.dirty {
			dirty = append(dirty, oid)
		}
	}
	if err := ws.db.Do(func(tx *core.Tx) error { return ws.WriteBack(tx, dirty...) }); err != nil {
		return err
	}
	for _, oid := range dirty {
		ws.cache[oid].dirty = false
	}
	return nil
}

// WriteBack writes the state of each given descriptor that is resident and
// dirty back through tx, by attribute name against the effective schema so
// domain checks run. The descriptors stay dirty: once tx commits, the
// caller marks them clean (Save) or discards them (a checkin).
func (ws *Workspace) WriteBack(tx *core.Tx, oids ...model.OID) error {
	for _, oid := range oids {
		d, ok := ws.cache[oid]
		if !ok || !d.dirty {
			continue
		}
		effAttrs, err := ws.db.Catalog.EffectiveAttrs(oid.Class())
		if err != nil {
			return err
		}
		attrs := make(map[string]model.Value)
		for _, a := range effAttrs {
			if v, ok := d.obj.Lookup(a.ID); ok {
				attrs[a.Name] = v
			}
		}
		if err := tx.Update(oid, attrs); err != nil {
			return err
		}
		mWriteBacks.Add(1)
	}
	return nil
}

// Discard drops the given descriptors, or every descriptor when none is
// given, losing their unsaved changes.
func (ws *Workspace) Discard(oids ...model.OID) {
	if len(oids) == 0 {
		ws.cache = make(map[model.OID]*Descriptor)
		return
	}
	for _, oid := range oids {
		ws.unswizzle(oid)
		delete(ws.cache, oid)
	}
}

// OID returns the object's identifier.
func (d *Descriptor) OID() model.OID { return d.obj.OID }

// Object exposes the underlying object state (read-only use).
func (d *Descriptor) Object() *model.Object { return d.obj }

// Dirty reports whether the descriptor has unsaved changes.
func (d *Descriptor) Dirty() bool { return d.dirty }

// Get reads an attribute value by name (stored value or class default).
func (d *Descriptor) Get(name string) (model.Value, error) {
	return d.ws.db.AttrValue(d.obj, name)
}

// Set writes an attribute value in memory and marks the descriptor dirty.
// The value is checked against the attribute's domain immediately.
func (d *Descriptor) Set(name string, v model.Value) error {
	a, err := d.ws.db.Catalog.ResolveAttr(d.obj.Class(), name)
	if err != nil {
		return err
	}
	if err := d.ws.db.Catalog.CheckValue(a, v); err != nil {
		return err
	}
	d.obj.Set(a.ID, v)
	delete(d.swizzled, a.ID) // a rewritten reference must re-swizzle
	d.dirty = true
	return nil
}

// Deref follows a single-valued reference attribute, swizzling the stored
// OID into a descriptor pointer on first use. Subsequent calls return the
// cached pointer without consulting the database.
func (d *Descriptor) Deref(name string) (*Descriptor, error) {
	a, err := d.ws.db.Catalog.ResolveAttr(d.obj.Class(), name)
	if err != nil {
		return nil, err
	}
	if target, ok := d.swizzled[a.ID]; ok {
		d.ws.Hits++
		mSwizzleHits.Add(1)
		return target, nil
	}
	v := d.obj.Get(a.ID)
	if v.IsNull() {
		return nil, nil
	}
	oid, ok := v.AsRef()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotReference, name)
	}
	target, err := d.ws.Fetch(oid)
	if err != nil {
		return nil, err
	}
	d.swizzled[a.ID] = target
	return target, nil
}

// DerefSet follows a set-valued reference attribute, returning descriptors
// for every member.
func (d *Descriptor) DerefSet(name string) ([]*Descriptor, error) {
	a, err := d.ws.db.Catalog.ResolveAttr(d.obj.Class(), name)
	if err != nil {
		return nil, err
	}
	v := d.obj.Get(a.ID)
	if v.IsNull() {
		return nil, nil
	}
	members, ok := v.AsSet()
	if !ok {
		return nil, fmt.Errorf("workspace: attribute %q is not set-valued", name)
	}
	out := make([]*Descriptor, 0, len(members))
	for _, m := range members {
		oid, ok := m.AsRef()
		if !ok {
			continue
		}
		t, err := d.ws.Fetch(oid)
		if errors.Is(err, core.ErrNoObject) {
			continue // dangling member
		}
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// Send dispatches a message to the resident object (late binding through
// the catalog). The method sees the workspace's in-memory state.
func (d *Descriptor) Send(message string, args ...model.Value) (model.Value, error) {
	m, err := d.ws.db.Catalog.ResolveMethod(d.obj.Class(), message)
	if err != nil {
		return model.Null, err
	}
	if m.Impl == nil {
		return model.Null, fmt.Errorf("workspace: method %q has no registered implementation", message)
	}
	return m.Impl(d.ws.db, d.obj, args)
}
