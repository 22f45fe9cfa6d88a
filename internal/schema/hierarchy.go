package schema

import (
	"cmp"
	"fmt"
	"slices"

	"oodb/internal/model"
)

// Hierarchy queries. The class hierarchy is a DAG rooted at Object; a query
// against class C by default ranges over C and every class in the hierarchy
// rooted at C (Kim §3.2), so descendant enumeration is on the hot path of
// planning and is served from the read lock only.

// MRO returns the method-resolution order of the class: the class itself
// followed by its ancestors in leftmost preorder with duplicates removed on
// first visit. This is the ORION/Flavors rule the paper's model 5 implies —
// "conflicts are resolved by the order of the superclasses".
func (c *Catalog) MRO(id model.ClassID) ([]model.ClassID, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cl, ok := c.classes[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNoSuchClass, id)
	}
	return cl.mro, nil
}

// computeMRO rebuilds the linearization for one class. Caller holds the
// write lock.
func (c *Catalog) computeMRO(cl *Class) []model.ClassID {
	seen := make(map[model.ClassID]bool)
	var order []model.ClassID
	var visit func(id model.ClassID)
	visit = func(id model.ClassID) {
		if seen[id] {
			return
		}
		seen[id] = true
		order = append(order, id)
		node := c.classes[id]
		if node == nil {
			return
		}
		for _, s := range node.Supers {
			visit(s)
		}
	}
	visit(cl.ID)
	return order
}

// rebuildAll recomputes every class's derived caches (MRO and effective
// attribute/method tables). Caller holds the write lock (or is the
// constructor). Schema evolution is rare relative to reads, so a full
// rebuild keeps the invariants simple.
func (c *Catalog) rebuildAll() {
	for _, cl := range c.classes {
		cl.mro = c.computeMRO(cl)
	}
	for _, cl := range c.classes {
		cl.effAttrs = make(map[string]*Attribute)
		cl.effMethods = make(map[string]*Method)
		// Walk the MRO from most-specific to least; first definition of a
		// name wins, so a local redefinition overrides any inherited one
		// and leftmost-superclass definitions beat later superclasses.
		for _, anc := range cl.mro {
			node := c.classes[anc]
			for _, a := range node.OwnAttrs {
				if _, taken := cl.effAttrs[a.Name]; !taken {
					cl.effAttrs[a.Name] = a
				}
			}
			for _, m := range node.OwnMethods {
				if _, taken := cl.effMethods[m.Name]; !taken {
					cl.effMethods[m.Name] = m
				}
			}
		}
		cl.composites, cl.checked = nil, false
		for _, a := range cl.effAttrs {
			if a.Composite {
				cl.composites = append(cl.composites, a)
			}
			cl.checked = cl.checked || a.Composite || a.Guarded
		}
		slices.SortFunc(cl.composites, func(a, b *Attribute) int { return cmp.Compare(a.ID, b.ID) })
	}
	c.version.Add(1)
}

// WriteChecked reports whether a write of an instance of the class runs
// the engine's write rules (core.DB.OnWrite): one of its effective
// attributes is composite or guarded.
func (c *Catalog) WriteChecked(id model.ClassID) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cl, ok := c.classes[id]
	return ok && cl.checked
}

// CompositeAttrs returns the class's effective composite attributes in id
// order. The slice is shared: callers must not modify it.
func (c *Catalog) CompositeAttrs(id model.ClassID) []*Attribute {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if cl, ok := c.classes[id]; ok {
		return cl.composites
	}
	return nil
}

// IsSubclassOf reports whether sub is c (classes are their own subclass) or
// a direct or indirect subclass of super.
func (c *Catalog) IsSubclassOf(sub, super model.ClassID) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cl, ok := c.classes[sub]
	if !ok {
		return false
	}
	for _, anc := range cl.mro {
		if anc == super {
			return true
		}
	}
	return false
}

// Descendants returns the ids of every class in the hierarchy rooted at id,
// including id itself, in deterministic (sorted) order. This is the scope of
// a class-hierarchy query and of a class-hierarchy index.
func (c *Catalog) Descendants(id model.ClassID) ([]model.ClassID, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if _, ok := c.classes[id]; !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNoSuchClass, id)
	}
	return c.affected(id), nil
}

// EffectiveAttrs returns the effective attribute table of the class — its
// own attributes plus all inherited ones after conflict resolution — in
// deterministic (name-sorted) order.
func (c *Catalog) EffectiveAttrs(id model.ClassID) ([]*Attribute, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cl, ok := c.classes[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNoSuchClass, id)
	}
	out := make([]*Attribute, 0, len(cl.effAttrs))
	for _, a := range cl.effAttrs {
		out = append(out, a)
	}
	slices.SortFunc(out, func(a, b *Attribute) int { return cmp.Compare(a.Name, b.Name) })
	return out, nil
}

// ResolveAttr resolves an attribute name against the effective definition
// of the class (local or inherited).
func (c *Catalog) ResolveAttr(id model.ClassID, name string) (*Attribute, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cl, ok := c.classes[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNoSuchClass, id)
	}
	a, ok := cl.effAttrs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchAttribute, cl.Name, name)
	}
	return a, nil
}

// PathBinding is a name path bound over a scope of classes (BindPath): the
// attribute each step names in each class the path can reach. A subclass
// may name another attribute than its superclass (a redefinition, or
// another superclass winning a conflict: Kim §3.1, model 5), and an index
// keys one attribute, so it answers only for the classes that read it.
type PathBinding struct {
	Classes []ClassBinding // per scope class, in the scope's order
	// Uniform reports that every scope class is exact on the same
	// attributes: every instance in scope reads Classes[0].Attrs.
	Uniform bool
	// Single reports that no step is set-valued, so an instance has at
	// most one value (and one index key) along the path.
	Single bool
}

// ClassBinding is a name path bound on one scope class.
type ClassBinding struct {
	// Attrs are the attributes the steps name: the head on the class, each
	// later step on the previous step's domain. Nil when a step is no
	// attribute there or an interior step's domain is primitive.
	Attrs []model.AttrID
	// Exact reports that every instance reads Attrs: each descendant of
	// each interior step's domain names the same attribute the domain does,
	// and no step of a nested path has a non-null default (which no index
	// key stands for).
	Exact  bool
	Domain model.ClassID // the last step's domain
	Def    model.Value   // what an instance that stores no value reads on a one-step path
}

// AttrRead is one attribute a path reads: the step name at a class
// (BindPath).
type AttrRead struct {
	Class model.ClassID
	Name  string
}

// BindPath binds a name path over scope under one read lock. The error is
// the first scope class's whose steps are not all attributes (or whose
// interior step has a primitive domain); the binding still holds what
// resolved. In the same walk it appends to *reads, when reads is not nil,
// the (class, step) pairs at which the path reads an attribute, each once:
// the head step at each scope class, each later step at each descendant of
// the previous step's domain, as far as the steps are attributes there —
// also when it fails.
func (c *Catalog) BindPath(scope []model.ClassID, steps []string, reads *[]AttrRead) (PathBinding, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := len(steps)
	b := PathBinding{Classes: make([]ClassBinding, len(scope)), Single: true}
	var first error
scope:
	for k, class := range scope {
		cl, ok := c.classes[class]
		if !ok {
			first = cmp.Or(first, fmt.Errorf("%w: id %d", ErrNoSuchClass, class))
			continue
		}
		cb := &b.Classes[k]
		// A class whose head names an earlier class's attribute reads the
		// same path behind it.
		var head *Attribute
		if n > 0 {
			head = cl.effAttrs[steps[0]]
		}
		for _, o := range b.Classes[:k] {
			if head != nil && len(o.Attrs) > 0 && o.Attrs[0] == head.ID {
				if *cb = o; reads != nil {
					*reads = append(*reads, AttrRead{class, steps[0]})
				}
				continue scope
			}
		}
		cb.Attrs, cb.Exact = make([]model.AttrID, 0, n), true
		var err error
		// Step i is read at each class of at: the class itself for the
		// head, then each class a reference along the way may land on,
		// the declared domain first.
		at := []model.ClassID{class}
		for i, step := range steps {
			last := i == n-1
			var declared *Attribute
			var next []model.ClassID
			for j, id := range at {
				a := c.classes[id].effAttrs[step]
				switch {
				case a == nil:
					cb.Exact = false
					if j == 0 && err == nil {
						err = fmt.Errorf("%w: %s.%s", ErrNoSuchAttribute, c.classes[id].Name, step)
					}
					continue
				case j == 0:
					declared = a
				case a != declared:
					cb.Exact = false
				}
				if r := (AttrRead{id, step}); reads != nil && (i == 0 || !slices.Contains(*reads, r)) {
					*reads = append(*reads, r) // the scope's classes are distinct
				}
				b.Single = b.Single && !a.SetValued
				cb.Exact = cb.Exact && (n == 1 || a.Default.IsNull())
				if !last && (a.Domain == ClassObject || !IsPrimitive(a.Domain)) {
					next = c.reach(next, a.Domain)
				}
			}
			at = next
			if declared == nil || err != nil {
				continue
			}
			cb.Attrs = append(cb.Attrs, declared.ID)
			cb.Def, cb.Domain = declared.Default, declared.Domain
			if !last && IsPrimitive(declared.Domain) {
				err = fmt.Errorf("schema: path step %q has primitive domain; cannot continue path", step)
			}
		}
		if err != nil {
			cb.Attrs, cb.Exact, first = nil, false, cmp.Or(first, err)
		}
	}
	b.Uniform = len(scope) > 0
	for _, cb := range b.Classes {
		b.Uniform = b.Uniform && cb.Exact && slices.Equal(cb.Attrs, b.Classes[0].Attrs)
	}
	return b, first
}

// reach appends to at each class not yet in it that a reference whose
// domain is domain may land on: domain, then its descendants, breadth
// first. Caller holds a lock.
func (c *Catalog) reach(at []model.ClassID, domain model.ClassID) []model.ClassID {
	if slices.Contains(at, domain) {
		return at
	}
	at = append(at, domain)
	for i := len(at) - 1; i < len(at); i++ {
		for _, sub := range c.classes[at[i]].Subs {
			if !slices.Contains(at, sub) {
				at = append(at, sub)
			}
		}
	}
	return at
}

// ResolveMethod resolves a message name against the effective method table
// of the class — the late-binding step of model 6: "if a message sent to an
// instance of a class is undefined for the class, it is sent up the class
// hierarchy to determine the class in which it is defined".
func (c *Catalog) ResolveMethod(id model.ClassID, name string) (*Method, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cl, ok := c.classes[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNoSuchClass, id)
	}
	m, ok := cl.effMethods[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchMethod, cl.Name, name)
	}
	return m, nil
}
