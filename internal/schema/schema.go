// Package schema implements the class catalog of kimdb: the class hierarchy
// (a rooted directed acyclic graph, Kim §3.1 model 5), attribute and method
// definitions, inheritance with ORION-style conflict resolution, late
// binding of messages (model 6), and dynamic schema evolution with the
// invariant checks of Banerjee et al. (SIGMOD 1987).
//
// The catalog is a runtime metaobject system: classes are data interpreted
// by the engine, not Go types. This is the composition-only port of the
// paper's inheritance model — Go has no subclassing, so the hierarchy,
// inheritance and late binding live entirely in these structures.
package schema

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"oodb/internal/model"
)

// Well-known class identifiers. Class ids below FirstUserClass are reserved
// for the primitive classes the model pre-installs (Kim §3.1 model 4: "the
// domain class may be a primitive class, such as integer, string, or
// boolean"). ClassObject is the root of the class hierarchy.
const (
	ClassObject  model.ClassID = 1
	ClassInteger model.ClassID = 2
	ClassFloat   model.ClassID = 3
	ClassBoolean model.ClassID = 4
	ClassString  model.ClassID = 5
	ClassBytes   model.ClassID = 6

	// FirstUserClass is the first class id handed to user-defined classes.
	FirstUserClass model.ClassID = 16
)

// Errors reported by catalog operations.
var (
	ErrClassExists     = errors.New("schema: class already exists")
	ErrNoSuchClass     = errors.New("schema: no such class")
	ErrNoSuchAttribute = errors.New("schema: no such attribute")
	ErrNoSuchMethod    = errors.New("schema: no such method")
	ErrAttrExists      = errors.New("schema: attribute already defined on class")
	ErrMethodExists    = errors.New("schema: method already defined on class")
	ErrCycle           = errors.New("schema: edge would create a cycle in the class hierarchy")
	ErrPrimitive       = errors.New("schema: primitive classes cannot be modified")
	ErrHasSubclasses   = errors.New("schema: class still has subclasses")
	ErrLastSuperclass  = errors.New("schema: cannot drop a class's only superclass")
	ErrBadDomain       = errors.New("schema: attribute domain is not a known class")
)

// Attribute describes one attribute of a class. ID is a globally unique,
// never-reused identifier (objects store values keyed by it, which keeps
// stored state valid across schema evolution). Source is the class that
// defined the attribute — for inherited attributes the defining ancestor.
type Attribute struct {
	ID        model.AttrID
	Name      string
	Domain    model.ClassID // domain class; any class may be a domain
	SetValued bool          // attribute holds a set of values (model 2)
	Default   model.Value   // value read when an instance stores none
	Source    model.ClassID // defining class
}

// MethodEngine is the slice of the database engine a method body may use:
// reading objects and sending further messages. It is an interface so the
// catalog does not depend on the engine packages.
type MethodEngine interface {
	// Fetch returns the newest committed state of the object, without a
	// lock: never a write that may still abort.
	Fetch(oid model.OID) (*model.Object, error)
	// Send dispatches a message to an object with late binding.
	Send(oid model.OID, message string, args ...model.Value) (model.Value, error)
}

// MethodImpl is the executable body of a method. Methods are program code
// attached to classes (the paper's "behavior"); like ORION's Lisp method
// bodies they are not persisted — applications re-register implementations
// when opening a database, and the catalog persists only the signatures.
type MethodImpl func(eng MethodEngine, recv *model.Object, args []model.Value) (model.Value, error)

// Method describes one method of a class.
type Method struct {
	Name   string
	Source model.ClassID // defining class
	Impl   MethodImpl    // nil until registered in this process
}

// Class is a catalog entry: name, direct superclasses in precedence order,
// locally defined attributes and methods, and derived caches (linearization
// and effective attribute/method tables).
type Class struct {
	ID     model.ClassID
	Name   string
	Supers []model.ClassID // direct superclasses, precedence order
	Subs   []model.ClassID // direct subclasses (maintained, not persisted)

	OwnAttrs   []*Attribute
	OwnMethods []*Method

	// Derived, rebuilt on any hierarchy change.
	mro        []model.ClassID
	effAttrs   map[string]*Attribute
	effMethods map[string]*Method
}

// Catalog is the schema manager. All operations are safe for concurrent
// use; evolution operations serialize against readers.
type Catalog struct {
	mu        sync.RWMutex
	classes   map[model.ClassID]*Class
	byName    map[string]model.ClassID
	nextClass model.ClassID
	nextAttr  model.AttrID
	version   atomic.Uint64 // bumped, under mu, on every schema change
}

// NewCatalog returns a catalog pre-installed with the root class Object and
// the primitive classes.
func NewCatalog() *Catalog {
	c := &Catalog{
		classes:   make(map[model.ClassID]*Class),
		byName:    make(map[string]model.ClassID),
		nextClass: FirstUserClass,
		nextAttr:  1,
	}
	c.install(&Class{ID: ClassObject, Name: "Object"})
	for id, name := range map[model.ClassID]string{
		ClassInteger: "Integer",
		ClassFloat:   "Float",
		ClassBoolean: "Boolean",
		ClassString:  "String",
		ClassBytes:   "Bytes",
	} {
		c.install(&Class{ID: id, Name: name, Supers: []model.ClassID{ClassObject}})
	}
	c.rebuildAll()
	return c
}

func (c *Catalog) install(cl *Class) {
	c.classes[cl.ID] = cl
	c.byName[cl.Name] = cl.ID
	for _, s := range cl.Supers {
		sup := c.classes[s]
		sup.Subs = append(sup.Subs, cl.ID)
	}
}

// Version returns the current schema version. Every successful evolution
// operation increments it; a stored schema snapshot records it, and the
// query planner's epoch (core.DB.SchemaEpoch) moves with it.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// Class returns the class with the given id.
func (c *Catalog) Class(id model.ClassID) (*Class, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cl, ok := c.classes[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNoSuchClass, id)
	}
	return cl, nil
}

// ClassByName returns the class with the given name.
func (c *Catalog) ClassByName(name string) (*Class, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	id, ok := c.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchClass, name)
	}
	return c.classes[id], nil
}

// Classes returns all classes in ascending id order.
func (c *Catalog) Classes() []*Class {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Class, 0, len(c.classes))
	for _, cl := range c.classes {
		out = append(out, cl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// IsPrimitive reports whether id names one of the pre-installed primitive
// classes (or the root class Object).
func IsPrimitive(id model.ClassID) bool { return id < FirstUserClass }

// DomainKind maps a primitive domain class to the value kind instances of
// that domain must carry. General (user) classes map to KindRef, since an
// attribute whose domain is a general class stores an object reference.
func DomainKind(id model.ClassID) model.Kind {
	switch id {
	case ClassInteger:
		return model.KindInt
	case ClassFloat:
		return model.KindFloat
	case ClassBoolean:
		return model.KindBool
	case ClassString:
		return model.KindString
	case ClassBytes:
		return model.KindBytes
	default:
		return model.KindRef
	}
}
