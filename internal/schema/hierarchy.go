package schema

import (
	"fmt"

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
	}
	c.version++
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
	seen := map[model.ClassID]bool{}
	var out []model.ClassID
	stack := []model.ClassID{id}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, n)
		stack = append(stack, c.classes[n].Subs...)
	}
	sortClassIDs(out)
	return out, nil
}

// wouldCycle reports whether adding super as a superclass of sub would
// create a cycle, i.e. whether sub is reachable from super via superclass
// edges... equivalently whether super is a descendant of sub. Caller holds
// at least the read lock.
func (c *Catalog) wouldCycle(sub, super model.ClassID) bool {
	if sub == super {
		return true
	}
	stack := []model.ClassID{super}
	seen := map[model.ClassID]bool{}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == sub {
			return true
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		if node := c.classes[n]; node != nil {
			stack = append(stack, node.Supers...)
		}
	}
	return false
}

func sortClassIDs(ids []model.ClassID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
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
	sortAttrs(out)
	return out, nil
}

func sortAttrs(attrs []*Attribute) {
	for i := 1; i < len(attrs); i++ {
		for j := i; j > 0 && attrs[j].Name < attrs[j-1].Name; j-- {
			attrs[j], attrs[j-1] = attrs[j-1], attrs[j]
		}
	}
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
