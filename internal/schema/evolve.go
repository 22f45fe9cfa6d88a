package schema

import (
	"fmt"
	"slices"

	"oodb/internal/model"
)

// Schema evolution (Kim §3.1 model 5: "the class hierarchy must be
// dynamically extensible"; §5.1; Banerjee et al., SIGMOD 1987). Every
// operation validates the DAG invariants — rooted at Object, acyclic,
// locally unique names — and returns a Change so the engine can maintain
// instances and indexes.

// ChangeKind enumerates evolution operations.
type ChangeKind int

// The evolution operations of the Banerjee taxonomy that affect stored
// state or access paths.
const (
	ChangeNone ChangeKind = iota
	ChangeDefineClass
	ChangeDropClass
	ChangeRenameClass
	ChangeAddAttribute
	ChangeDropAttribute
	ChangeRenameAttribute
	ChangeAddMethod
	ChangeDropMethod
	ChangeAddSuperclass
	ChangeDropSuperclass
)

// Change describes one applied evolution operation. Affected lists the
// classes whose effective definition changed (the class itself and all its
// descendants), which is exactly the set whose instances and indexes may
// need maintenance.
type Change struct {
	Kind     ChangeKind
	Class    model.ClassID
	Attr     model.AttrID
	Name     string
	Affected []model.ClassID
}

// AttrSpec describes an attribute at class-definition time.
type AttrSpec struct {
	Name      string
	Domain    model.ClassID
	SetValued bool
	Default   model.Value
}

// DefineClass creates a new class with the given direct superclasses (in
// precedence order; empty means just Object) and local attributes. It
// returns the new class.
func (c *Catalog) DefineClass(name string, supers []model.ClassID, attrs ...AttrSpec) (*Class, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.byName[name]; exists {
		return nil, fmt.Errorf("%w: %q", ErrClassExists, name)
	}
	if len(supers) == 0 {
		supers = []model.ClassID{ClassObject}
	}
	seen := map[model.ClassID]bool{}
	for _, s := range supers {
		if _, ok := c.classes[s]; !ok {
			return nil, fmt.Errorf("%w: superclass id %d", ErrNoSuchClass, s)
		}
		if seen[s] {
			return nil, fmt.Errorf("schema: duplicate superclass id %d", s)
		}
		seen[s] = true
	}
	if c.nextClass > model.MaxClassID {
		return nil, fmt.Errorf("schema: class id space exhausted")
	}
	cl := &Class{
		ID:     c.nextClass,
		Name:   name,
		Supers: append([]model.ClassID(nil), supers...),
	}
	c.nextClass++
	for _, spec := range attrs {
		a, err := c.newAttribute(cl, spec)
		if err != nil {
			return nil, err
		}
		cl.OwnAttrs = append(cl.OwnAttrs, a)
	}
	c.install(cl)
	c.rebuildAll()
	return cl, nil
}

// newAttribute validates a spec and mints a new attribute with a fresh
// global id. Caller holds the write lock.
func (c *Catalog) newAttribute(cl *Class, spec AttrSpec) (*Attribute, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("schema: empty attribute name on %q", cl.Name)
	}
	for _, a := range cl.OwnAttrs {
		if a.Name == spec.Name {
			return nil, fmt.Errorf("%w: %s.%s", ErrAttrExists, cl.Name, spec.Name)
		}
	}
	if _, ok := c.classes[spec.Domain]; !ok && spec.Domain != cl.ID {
		return nil, fmt.Errorf("%w: %s.%s domain %d", ErrBadDomain, cl.Name, spec.Name, spec.Domain)
	}
	a := &Attribute{
		ID:        c.nextAttr,
		Name:      spec.Name,
		Domain:    spec.Domain,
		SetValued: spec.SetValued,
		Default:   spec.Default,
		Source:    cl.ID,
	}
	c.nextAttr++
	return a, nil
}

// AddAttribute adds a locally defined attribute to an existing class. The
// new attribute is inherited by (and may shadow an inherited name in) every
// descendant. Existing instances read the default value until written — the
// lazy instance-maintenance strategy measured in experiment E6.
func (c *Catalog) AddAttribute(class model.ClassID, spec AttrSpec) (*Attribute, Change, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl, ok := c.classes[class]
	if !ok {
		return nil, Change{}, fmt.Errorf("%w: id %d", ErrNoSuchClass, class)
	}
	if IsPrimitive(class) {
		return nil, Change{}, ErrPrimitive
	}
	a, err := c.newAttribute(cl, spec)
	if err != nil {
		return nil, Change{}, err
	}
	cl.OwnAttrs = append(cl.OwnAttrs, a)
	c.rebuildAll()
	return a, Change{Kind: ChangeAddAttribute, Class: class, Attr: a.ID, Name: a.Name, Affected: c.affected(class)}, nil
}

// DropAttribute removes a locally defined attribute. Instances keep their
// stored (AttrID, Value) pairs — the ids are never reused, so stale pairs
// are inert — but the engine scrubs indexes on the attribute.
func (c *Catalog) DropAttribute(class model.ClassID, name string) (Change, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl, ok := c.classes[class]
	if !ok {
		return Change{}, fmt.Errorf("%w: id %d", ErrNoSuchClass, class)
	}
	if IsPrimitive(class) {
		return Change{}, ErrPrimitive
	}
	for i, a := range cl.OwnAttrs {
		if a.Name == name {
			cl.OwnAttrs = append(cl.OwnAttrs[:i], cl.OwnAttrs[i+1:]...)
			c.rebuildAll()
			return Change{Kind: ChangeDropAttribute, Class: class, Attr: a.ID, Name: name, Affected: c.affected(class)}, nil
		}
	}
	return Change{}, fmt.Errorf("%w: %s.%s (only locally defined attributes can be dropped)", ErrNoSuchAttribute, cl.Name, name)
}

// RenameAttribute renames a locally defined attribute. Stored instances are
// untouched (they key values by AttrID).
func (c *Catalog) RenameAttribute(class model.ClassID, oldName, newName string) (Change, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl, ok := c.classes[class]
	if !ok {
		return Change{}, fmt.Errorf("%w: id %d", ErrNoSuchClass, class)
	}
	if newName == "" {
		return Change{}, fmt.Errorf("schema: empty attribute name")
	}
	for _, a := range cl.OwnAttrs {
		if a.Name == newName {
			return Change{}, fmt.Errorf("%w: %s.%s", ErrAttrExists, cl.Name, newName)
		}
	}
	for _, a := range cl.OwnAttrs {
		if a.Name == oldName {
			a.Name = newName
			c.rebuildAll()
			return Change{Kind: ChangeRenameAttribute, Class: class, Attr: a.ID, Name: newName, Affected: c.affected(class)}, nil
		}
	}
	return Change{}, fmt.Errorf("%w: %s.%s", ErrNoSuchAttribute, cl.Name, oldName)
}

// AddMethod defines a method on a class. The implementation may be nil and
// registered later with RegisterMethod (e.g. after reopening a database).
func (c *Catalog) AddMethod(class model.ClassID, name string, impl MethodImpl) (Change, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl, ok := c.classes[class]
	if !ok {
		return Change{}, fmt.Errorf("%w: id %d", ErrNoSuchClass, class)
	}
	if IsPrimitive(class) {
		return Change{}, ErrPrimitive
	}
	for _, m := range cl.OwnMethods {
		if m.Name == name {
			return Change{}, fmt.Errorf("%w: %s.%s", ErrMethodExists, cl.Name, name)
		}
	}
	cl.OwnMethods = append(cl.OwnMethods, &Method{Name: name, Source: class, Impl: impl})
	c.rebuildAll()
	return Change{Kind: ChangeAddMethod, Class: class, Name: name, Affected: c.affected(class)}, nil
}

// RegisterMethod attaches (or replaces) the implementation of an existing
// method signature. Method bodies are process-local (see MethodImpl).
func (c *Catalog) RegisterMethod(class model.ClassID, name string, impl MethodImpl) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl, ok := c.classes[class]
	if !ok {
		return fmt.Errorf("%w: id %d", ErrNoSuchClass, class)
	}
	for _, m := range cl.OwnMethods {
		if m.Name == name {
			m.Impl = impl
			return nil
		}
	}
	return fmt.Errorf("%w: %s.%s", ErrNoSuchMethod, cl.Name, name)
}

// DropMethod removes a locally defined method.
func (c *Catalog) DropMethod(class model.ClassID, name string) (Change, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl, ok := c.classes[class]
	if !ok {
		return Change{}, fmt.Errorf("%w: id %d", ErrNoSuchClass, class)
	}
	for i, m := range cl.OwnMethods {
		if m.Name == name {
			cl.OwnMethods = append(cl.OwnMethods[:i], cl.OwnMethods[i+1:]...)
			c.rebuildAll()
			return Change{Kind: ChangeDropMethod, Class: class, Name: name, Affected: c.affected(class)}, nil
		}
	}
	return Change{}, fmt.Errorf("%w: %s.%s", ErrNoSuchMethod, cl.Name, name)
}

// AddSuperclass appends super to the class's direct superclasses (lowest
// precedence), rejecting edges that would create a cycle.
func (c *Catalog) AddSuperclass(class, super model.ClassID) (Change, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl, ok := c.classes[class]
	if !ok {
		return Change{}, fmt.Errorf("%w: id %d", ErrNoSuchClass, class)
	}
	if _, ok := c.classes[super]; !ok {
		return Change{}, fmt.Errorf("%w: id %d", ErrNoSuchClass, super)
	}
	if IsPrimitive(class) {
		return Change{}, ErrPrimitive
	}
	for _, s := range cl.Supers {
		if s == super {
			return Change{}, fmt.Errorf("schema: %q already a superclass of %q", c.classes[super].Name, cl.Name)
		}
	}
	// The edge closes a cycle when class is super or one of its ancestors.
	if slices.Contains(c.classes[super].mro, class) {
		return Change{}, fmt.Errorf("%w: %s -> %s", ErrCycle, cl.Name, c.classes[super].Name)
	}
	cl.Supers = append(cl.Supers, super)
	c.classes[super].Subs = append(c.classes[super].Subs, class)
	c.rebuildAll()
	return Change{Kind: ChangeAddSuperclass, Class: class, Affected: c.affected(class)}, nil
}

// DropSuperclass removes a direct superclass edge. A class must keep at
// least one superclass (the hierarchy stays rooted at Object) — the
// Banerjee invariant; dropping the last edge re-roots the class at Object
// is NOT done implicitly, the caller gets ErrLastSuperclass instead.
func (c *Catalog) DropSuperclass(class, super model.ClassID) (Change, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl, ok := c.classes[class]
	if !ok {
		return Change{}, fmt.Errorf("%w: id %d", ErrNoSuchClass, class)
	}
	if len(cl.Supers) == 1 {
		return Change{}, ErrLastSuperclass
	}
	for i, s := range cl.Supers {
		if s == super {
			cl.Supers = append(cl.Supers[:i], cl.Supers[i+1:]...)
			removeSub(c.classes[super], class)
			c.rebuildAll()
			return Change{Kind: ChangeDropSuperclass, Class: class, Affected: c.affected(class)}, nil
		}
	}
	return Change{}, fmt.Errorf("%w: id %d is not a direct superclass", ErrNoSuchClass, super)
}

// DropClass removes a class. Per Banerjee, the subclasses of the dropped
// class are re-linked to inherit from its direct superclasses so the
// hierarchy stays connected. The engine must have deleted (or migrated) the
// class's instances first.
func (c *Catalog) DropClass(class model.ClassID) (Change, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl, ok := c.classes[class]
	if !ok {
		return Change{}, fmt.Errorf("%w: id %d", ErrNoSuchClass, class)
	}
	if IsPrimitive(class) {
		return Change{}, ErrPrimitive
	}
	affected := c.affected(class)
	// Re-link: every direct subclass replaces the dropped class in its
	// superclass list with the dropped class's own superclasses (keeping
	// precedence position and deduplicating).
	for _, subID := range append([]model.ClassID(nil), cl.Subs...) {
		sub := c.classes[subID]
		var next []model.ClassID
		for _, s := range sub.Supers {
			if s != class {
				next = append(next, s)
				continue
			}
			for _, rs := range cl.Supers {
				if !slices.Contains(next, rs) {
					next = append(next, rs)
					// rs may already be a direct superclass of sub
					// elsewhere in its list; never duplicate the
					// subclass back-edge.
					if !slices.Contains(c.classes[rs].Subs, subID) {
						c.classes[rs].Subs = append(c.classes[rs].Subs, subID)
					}
				}
			}
		}
		if len(next) == 0 {
			next = []model.ClassID{ClassObject}
			if !slices.Contains(c.classes[ClassObject].Subs, subID) {
				c.classes[ClassObject].Subs = append(c.classes[ClassObject].Subs, subID)
			}
		}
		sub.Supers = dedupClasses(next)
	}
	for _, s := range cl.Supers {
		removeSub(c.classes[s], class)
	}
	delete(c.classes, class)
	delete(c.byName, cl.Name)
	c.rebuildAll()
	return Change{Kind: ChangeDropClass, Class: class, Name: cl.Name, Affected: affected}, nil
}

// RenameClass changes a class's name.
func (c *Catalog) RenameClass(class model.ClassID, newName string) (Change, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl, ok := c.classes[class]
	if !ok {
		return Change{}, fmt.Errorf("%w: id %d", ErrNoSuchClass, class)
	}
	if IsPrimitive(class) {
		return Change{}, ErrPrimitive
	}
	if _, exists := c.byName[newName]; exists {
		return Change{}, fmt.Errorf("%w: %q", ErrClassExists, newName)
	}
	delete(c.byName, cl.Name)
	cl.Name = newName
	c.byName[newName] = class
	c.version.Add(1)
	return Change{Kind: ChangeRenameClass, Class: class, Name: newName, Affected: []model.ClassID{class}}, nil
}

// affected returns the class and all its descendants, in ascending order —
// the classes whose effective definition changes when class changes.
// Caller holds a lock.
func (c *Catalog) affected(class model.ClassID) []model.ClassID {
	out := c.reach(nil, class)
	slices.Sort(out)
	return out
}

func removeSub(cl *Class, sub model.ClassID) {
	for i, s := range cl.Subs {
		if s == sub {
			cl.Subs = append(cl.Subs[:i], cl.Subs[i+1:]...)
			return
		}
	}
}

func dedupClasses(ids []model.ClassID) []model.ClassID {
	seen := map[model.ClassID]bool{}
	out := ids[:0]
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}
