// Package version implements kimdb's version model, following Chou & Kim
// (VLDB 1986 / DAC 1988), the semantics the paper lists among the CAx
// requirements (§3.3) and revisits under "Semantic Extensions" (§5.5):
//
//   - a versionable instance is represented by a generic object plus a set
//     of version instances forming a derivation hierarchy;
//   - versions progress transient → working → released: transient versions
//     are updatable and deletable, working versions are frozen but can
//     spawn derivations and be deleted, released versions are immutable;
//   - a reference to the generic object dynamically binds to its default
//     version (or the most recently derived one when no default is set);
//   - deriving or promoting a version notifies registered dependents
//     (change notification: flag-based, queryable, plus an optional
//     callback).
//
// Per the paper's §5.5 layering advice, this manager is a layer above the
// engine: version state is ordinary attributes maintained through ordinary
// transactions, so installation-specific version semantics can be built as
// alternative layers without engine changes.
//
// Not to be confused with internal/mvcc, which is transaction-time
// versioning for isolation (snapshot reads at a pinned commit epoch,
// invisible to applications). This package models versions users create,
// name and query; the two share nothing but the word.
package version

import (
	"errors"
	"fmt"
	"sync"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/schema"
)

// State is a version's lifecycle state.
type State int

// The version states.
const (
	Transient State = iota
	Working
	Released
)

func (s State) String() string {
	switch s {
	case Transient:
		return "transient"
	case Working:
		return "working"
	case Released:
		return "released"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Hidden attribute names the manager adds to versionable classes and to
// the generic class. The leading underscore keeps them out of the way of
// application attributes (identifiers may not start with '_' in the query
// language's reserved space by convention).
const (
	attrGeneric = "_vGeneric" // version -> its generic object
	attrParent  = "_vParent"  // version -> version it was derived from
	attrNumber  = "_vNumber"  // version -> version number (1, 2, ...)
	attrState   = "_vState"   // version -> lifecycle state (int)

	genericClassName = "VersionGeneric"
	attrDefault      = "_vDefault" // generic -> default version
	attrNext         = "_vNext"    // generic -> next version number
	attrVersions     = "_vAll"     // generic -> set of version refs
)

// Errors of the version layer.
var (
	ErrNotVersionable = errors.New("version: class is not versioning-enabled")
	ErrFrozen         = errors.New("version: working and released versions are immutable")
	ErrReleased       = errors.New("version: released versions cannot be deleted")
	ErrNotVersion     = errors.New("version: object is not a version instance")
	ErrNotGeneric     = errors.New("version: object is not a generic object")
)

// Notification describes one change event delivered to dependents.
type Notification struct {
	Generic  model.OID // the generic object whose version set changed
	Version  model.OID // the version derived or promoted
	Event    string    // "derive" or "promote"
	NewState State     // for promote
}

// Policy tailors installation-specific version semantics — the layered
// architecture §5.5 recommends: "the lower level may support a basic
// mechanism for low-level version semantics that are common to various
// proposals; the higher level may be made extensible to allow easy
// tailoring". The zero Policy is the Chou-Kim default.
type Policy struct {
	// CanUpdate reports whether a version in the given state accepts
	// in-place updates. Nil means the default (transient only).
	CanUpdate func(State) bool
	// CanDelete reports whether a version in the given state may be
	// deleted. Nil means the default (anything but released).
	CanDelete func(State) bool
	// PromoteParentOnDerive controls whether deriving from a transient
	// version first promotes it to working (the Chou-Kim rule). Nil means
	// true.
	PromoteParentOnDerive *bool
}

// Manager layers version semantics over a database.
type Manager struct {
	db      *core.DB
	generic *schema.Class

	mu         sync.Mutex
	dependents map[model.OID]map[model.OID]bool // generic -> dependents
	stale      map[model.OID]bool               // dependents flagged out-of-date
	callback   func(Notification)
	policy     Policy
}

// SetPolicy installs installation-specific version semantics.
func (m *Manager) SetPolicy(p Policy) {
	m.mu.Lock()
	m.policy = p
	m.mu.Unlock()
}

// rules returns the installed policy with the Chou-Kim defaults filled in.
func (m *Manager) rules() Policy {
	m.mu.Lock()
	p := m.policy
	m.mu.Unlock()
	if p.CanUpdate == nil {
		p.CanUpdate = func(st State) bool { return st == Transient }
	}
	if p.CanDelete == nil {
		p.CanDelete = func(st State) bool { return st != Released }
	}
	if p.PromoteParentOnDerive == nil {
		p.PromoteParentOnDerive = new(bool)
		*p.PromoteParentOnDerive = true
	}
	return p
}

// New creates (or re-attaches) the version layer, installing the generic
// class if absent.
func New(db *core.DB) (*Manager, error) {
	cl, err := db.SystemClass(genericClassName,
		schema.AttrSpec{Name: attrDefault, Domain: schema.ClassObject},
		schema.AttrSpec{Name: attrNext, Domain: schema.ClassInteger, Default: model.Int(1)},
		schema.AttrSpec{Name: attrVersions, Domain: schema.ClassObject, SetValued: true},
	)
	if err != nil {
		return nil, err
	}
	return &Manager{
		db:         db,
		generic:    cl,
		dependents: make(map[model.OID]map[model.OID]bool),
		stale:      make(map[model.OID]bool),
	}, nil
}

// OnChange installs a notification callback (message-based notification;
// the flag-based mechanism via StaleDependents works regardless).
func (m *Manager) OnChange(fn func(Notification)) {
	m.mu.Lock()
	m.callback = fn
	m.mu.Unlock()
}

// EnableVersioning makes a class versionable by adding the hidden version
// attributes. Idempotent.
func (m *Manager) EnableVersioning(class model.ClassID) error {
	if m.isEnabled(class) {
		return nil
	}
	for _, spec := range []schema.AttrSpec{
		{Name: attrGeneric, Domain: m.generic.ID},
		{Name: attrParent, Domain: schema.ClassObject},
		{Name: attrNumber, Domain: schema.ClassInteger},
		{Name: attrState, Domain: schema.ClassInteger, Default: model.Int(int64(Transient))},
	} {
		if _, err := m.db.AddAttribute(class, spec); err != nil && !errors.Is(err, schema.ErrAttrExists) {
			return err
		}
	}
	return nil
}

// CreateVersioned creates the first (transient) version of a new
// versionable entity along with its generic object, returning both.
func (m *Manager) CreateVersioned(tx *core.Tx, class model.ClassID, attrs map[string]model.Value) (generic, version model.OID, err error) {
	if !m.isEnabled(class) {
		return model.NilOID, model.NilOID, ErrNotVersionable
	}
	generic, err = tx.InsertClass(m.generic.ID, map[string]model.Value{attrNext: model.Int(2)})
	if err != nil {
		return model.NilOID, model.NilOID, err
	}
	all := make(map[string]model.Value, len(attrs)+3)
	for k, v := range attrs {
		all[k] = v
	}
	all[attrGeneric] = model.Ref(generic)
	all[attrNumber] = model.Int(1)
	all[attrState] = model.Int(int64(Transient))
	version, err = tx.InsertClass(class, all)
	if err != nil {
		return model.NilOID, model.NilOID, err
	}
	err = tx.Update(generic, map[string]model.Value{
		attrVersions: model.Set(model.Ref(version)),
	})
	return generic, version, err
}

// isEnabled reports whether class is versionable: the catalog, which
// every reopen reloads, holds the hidden attributes.
func (m *Manager) isEnabled(class model.ClassID) bool {
	_, err := m.db.Catalog.ResolveAttr(class, attrGeneric)
	return err == nil
}

// info is a version's bookkeeping, decoded from one object.
type info struct {
	state   State
	generic model.OID // nil: the object belongs to no version set
	parent  model.OID // nil for a first version
	number  int64
}

// load reads version oid through fetch — the engine's committed read for
// the accessors that take no transaction, a transaction's locked read for a
// write — and decodes its bookkeeping. An object of a class that is not
// versioning-enabled is ErrNotVersion.
func (m *Manager) load(fetch func(model.OID) (*model.Object, error), oid model.OID) (*model.Object, info, error) {
	obj, err := fetch(oid)
	if err != nil {
		return nil, info{}, err
	}
	var vals [4]model.Value
	for i, name := range [...]string{attrState, attrGeneric, attrParent, attrNumber} {
		if vals[i], err = m.db.AttrValue(obj, name); err != nil {
			return nil, info{}, ErrNotVersion
		}
	}
	st, _ := vals[0].AsInt()
	g, _ := vals[1].AsRef()
	p, _ := vals[2].AsRef()
	n, _ := vals[3].AsInt()
	return obj, info{state: State(st), generic: g, parent: p, number: n}, nil
}

// lockGeneric takes X on v's generic in tx and reads its version set.
// Every write of the layer locks the version first (load through
// tx.FetchForUpdate) and its generic second, so two writers of one
// version set queue in one order.
func (m *Manager) lockGeneric(tx *core.Tx, v info) (*model.Object, []model.Value, error) {
	if v.generic.IsNil() {
		return nil, nil, ErrNotVersion
	}
	gobj, err := tx.FetchForUpdate(v.generic)
	if err != nil {
		return nil, nil, err
	}
	vs, err := m.members(gobj)
	return gobj, vs, err
}

// members returns the version set of generic object gobj.
func (m *Manager) members(gobj *model.Object) ([]model.Value, error) {
	v, err := m.db.AttrValue(gobj, attrVersions)
	if err != nil {
		return nil, ErrNotGeneric
	}
	members, _ := v.AsSet()
	return members, nil
}

// StateOf returns the lifecycle state of a version instance.
func (m *Manager) StateOf(oid model.OID) (State, error) {
	_, v, err := m.load(m.db.Fetch, oid)
	return v.state, err
}

// GenericOf returns the generic object of a version instance.
func (m *Manager) GenericOf(oid model.OID) (model.OID, error) {
	_, v, err := m.load(m.db.Fetch, oid)
	if err == nil && v.generic.IsNil() {
		err = ErrNotVersion
	}
	return v.generic, err
}

// ParentOf returns the version a version was derived from (nil for the
// first version).
func (m *Manager) ParentOf(oid model.OID) (model.OID, error) {
	_, v, err := m.load(m.db.Fetch, oid)
	return v.parent, err
}

// UpdateVersion writes attributes of a version, enforcing the update
// rules: only transient versions are updatable.
func (m *Manager) UpdateVersion(tx *core.Tx, oid model.OID, attrs map[string]model.Value) error {
	_, v, err := m.load(tx.FetchForUpdate, oid)
	if err != nil {
		return err
	}
	if !m.rules().CanUpdate(v.state) {
		return fmt.Errorf("%w (state %s)", ErrFrozen, v.state)
	}
	return tx.Update(oid, attrs)
}

// Promote advances a version transient → working → released. Promoting a
// released version is a no-op.
func (m *Manager) Promote(tx *core.Tx, oid model.OID) (State, error) {
	_, v, err := m.load(tx.FetchForUpdate, oid)
	if err != nil {
		return v.state, err
	}
	return m.promote(tx, oid, v)
}

// promote is Promote of a version tx has locked and read as v.
func (m *Manager) promote(tx *core.Tx, oid model.OID, v info) (State, error) {
	if v.state == Released {
		return Released, nil
	}
	next := v.state + 1
	if err := tx.Update(oid, map[string]model.Value{attrState: model.Int(int64(next))}); err != nil {
		return v.state, err
	}
	if !v.generic.IsNil() {
		n := Notification{Generic: v.generic, Version: oid, Event: "promote", NewState: next}
		tx.OnCommit(func() { m.notify(n) })
	}
	return next, nil
}

// Derive creates a new transient version from an existing version. Per
// Chou-Kim, deriving from a transient version first promotes it to
// working (a version with derivations must be stable).
func (m *Manager) Derive(tx *core.Tx, parent model.OID) (model.OID, error) {
	pobj, p, err := m.load(tx.FetchForUpdate, parent)
	if err != nil {
		return model.NilOID, err
	}
	if p.state == Transient && *m.rules().PromoteParentOnDerive {
		if _, err := m.promote(tx, parent, p); err != nil {
			return model.NilOID, err
		}
	}
	gobj, vs, err := m.lockGeneric(tx, p)
	if err != nil {
		return model.NilOID, err
	}
	nextV, _ := m.db.AttrValue(gobj, attrNext)
	n, _ := nextV.AsInt()
	if n == 0 {
		n = 1
	}

	// Copy the parent's application state.
	effAttrs, err := m.db.Catalog.EffectiveAttrs(parent.Class())
	if err != nil {
		return model.NilOID, err
	}
	attrs := map[string]model.Value{}
	for _, a := range effAttrs {
		if v, ok := pobj.Lookup(a.ID); ok {
			attrs[a.Name] = v
		}
	}
	attrs[attrGeneric] = model.Ref(p.generic)
	attrs[attrParent] = model.Ref(parent)
	attrs[attrNumber] = model.Int(n)
	attrs[attrState] = model.Int(int64(Transient))
	oid, err := tx.InsertClass(parent.Class(), attrs)
	if err != nil {
		return model.NilOID, err
	}

	// Register with the generic object.
	if err := tx.Update(p.generic, map[string]model.Value{
		attrVersions: model.Set(append(vs[:len(vs):len(vs)], model.Ref(oid))...),
		attrNext:     model.Int(n + 1),
	}); err != nil {
		return model.NilOID, err
	}
	note := Notification{Generic: p.generic, Version: oid, Event: "derive"}
	tx.OnCommit(func() { m.notify(note) })
	return oid, nil
}

// DeleteVersion removes a version; released versions are protected.
func (m *Manager) DeleteVersion(tx *core.Tx, oid model.OID) error {
	_, v, err := m.load(tx.FetchForUpdate, oid)
	if err != nil {
		return err
	}
	if !m.rules().CanDelete(v.state) {
		return ErrReleased
	}
	gobj, vs, err := m.lockGeneric(tx, v)
	if err != nil {
		return err
	}
	var kept []model.Value
	for _, mem := range vs {
		if ref, _ := mem.AsRef(); ref != oid {
			kept = append(kept, mem)
		}
	}
	upd := map[string]model.Value{attrVersions: model.Set(kept...)}
	// Clear the default if it pointed at the deleted version.
	def, _ := m.db.AttrValue(gobj, attrDefault)
	if ref, _ := def.AsRef(); ref == oid {
		upd[attrDefault] = model.Null
	}
	if err := tx.Update(v.generic, upd); err != nil {
		return err
	}
	return tx.Delete(oid)
}

// SetDefault pins the generic object's default version (static binding).
// The version, which must belong to generic, is read under S first: a
// DeleteVersion of it finishes before (and SetDefault fails) or waits.
func (m *Manager) SetDefault(tx *core.Tx, generic, version model.OID) error {
	_, v, err := m.load(tx.Fetch, version)
	if err != nil {
		return err
	}
	if v.generic != generic {
		return fmt.Errorf("%w: %s is not a version of %s", ErrNotVersion, version, generic)
	}
	return tx.Update(generic, map[string]model.Value{attrDefault: model.Ref(version)})
}

// Resolve performs dynamic binding: a reference to the generic object
// resolves to its default version if set, else to the most recently
// derived (highest-numbered) version. A member that no longer exists is a
// dangling link and is passed over; any other read error is returned.
func (m *Manager) Resolve(generic model.OID) (model.OID, error) {
	gobj, err := m.db.Fetch(generic)
	if err != nil {
		return model.NilOID, err
	}
	if def, err := m.db.AttrValue(gobj, attrDefault); err == nil {
		if oid, ok := def.AsRef(); ok {
			return oid, nil
		}
	}
	vs, err := m.members(gobj)
	if err != nil {
		return model.NilOID, err
	}
	if len(vs) == 0 {
		return model.NilOID, fmt.Errorf("version: generic %s has no versions", generic)
	}
	best, _ := vs[0].AsRef()
	bestN := int64(-1)
	for _, mem := range vs {
		oid, _ := mem.AsRef()
		_, v, err := m.load(m.db.Fetch, oid)
		if errors.Is(err, core.ErrNoObject) {
			continue
		}
		if err != nil {
			return model.NilOID, err
		}
		if v.number > bestN {
			bestN, best = v.number, oid
		}
	}
	return best, nil
}

// Versions lists a generic object's versions.
func (m *Manager) Versions(generic model.OID) ([]model.OID, error) {
	gobj, err := m.db.Fetch(generic)
	if err != nil {
		return nil, err
	}
	members, err := m.members(gobj)
	if err != nil {
		return nil, err
	}
	out := make([]model.OID, 0, len(members))
	for _, mem := range members {
		if oid, ok := mem.AsRef(); ok {
			out = append(out, oid)
		}
	}
	return out, nil
}

// RegisterDependent subscribes an object to change notification for a
// generic object: derives and promotes flag it stale.
func (m *Manager) RegisterDependent(generic, dependent model.OID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	set := m.dependents[generic]
	if set == nil {
		set = make(map[model.OID]bool)
		m.dependents[generic] = set
	}
	set[dependent] = true
}

// StaleDependents returns the dependents flagged by change notification
// since the last ClearStale.
func (m *Manager) StaleDependents() []model.OID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]model.OID, 0, len(m.stale))
	for oid := range m.stale {
		out = append(out, oid)
	}
	return out
}

// ClearStale acknowledges stale flags.
func (m *Manager) ClearStale() {
	m.mu.Lock()
	m.stale = make(map[model.OID]bool)
	m.mu.Unlock()
}

func (m *Manager) notify(n Notification) {
	m.mu.Lock()
	for dep := range m.dependents[n.Generic] {
		m.stale[dep] = true
	}
	cb := m.callback
	m.mu.Unlock()
	if cb != nil {
		cb(n)
	}
}
