package query

import (
	"cmp"
	"fmt"
	"slices"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/schema"
)

// binding is one path step resolved against one class: the attribute it
// reads and that class's default for it, or the method it invokes.
type binding struct {
	class  model.ClassID
	step   string
	attr   model.AttrID
	def    model.Value
	method *schema.Method // non-nil: invoke it; needs the decoded object
	found  bool           // false: the class has no such attribute or method
}

func (e *Engine) bindStep(class model.ClassID, step string) binding {
	if a, err := e.db.Catalog.ResolveAttr(class, step); err == nil {
		return binding{class: class, step: step, attr: a.ID, def: a.Default, found: true}
	}
	if m, err := e.db.Catalog.ResolveMethod(class, step); err == nil {
		return binding{class: class, step: step, method: m, found: true}
	}
	return binding{class: class, step: step}
}

// errNoAttr is the one wording of ErrNoAttr, for the planner's path-head
// check and the executor alike.
func (e *Engine) errNoAttr(b *binding) error {
	return fmt.Errorf("%w %q on %s", ErrNoAttr, b.step, e.className(b.class))
}

// readStep reads one bound step on obj: the stored value, else the class
// default; or the method's result (late-bound, no arguments).
func (e *Engine) readStep(b *binding, obj *model.Object) (model.Value, error) {
	switch {
	case !b.found:
		return model.Null, e.errNoAttr(b)
	case b.method != nil:
		if b.method.Impl == nil {
			return model.Null, fmt.Errorf("query: method %q has no registered implementation", b.step)
		}
		return b.method.Impl(e.db, obj, nil)
	}
	if v, ok := obj.Lookup(b.attr); ok {
		return v, nil
	}
	return b.def, nil
}

// EvalPath walks a path from obj as the executor does for a candidate:
// attributes (stored value or class default) and methods are steps, interior
// references are followed, set-valued steps fan out. The objects the path
// crosses are read with read: a transaction's Tx.Read, or core.DB.Fetch.
func (e *Engine) EvalPath(read func(model.OID) (*model.Object, error), obj *model.Object, steps []string) (model.Value, error) {
	return WalkPath(obj, steps, func(o *model.Object, step string) (model.Value, error) {
		b := e.bindStep(o.Class(), step)
		return e.readStep(&b, o)
	}, read)
}

// slotBinding is one slot of a program bound to one class.
type slotBinding struct {
	head  binding // the path's first step on the class
	field int     // a scan's index of the head in cand.fields, or -1
}

// cand evaluates one execution's program on one candidate at a time: a
// record a heap scan is reading, or an object an index probe fetched. One
// scan worker, or the single-threaded stages of one execution, owns it.
type cand struct {
	Frame
	e     *Engine
	tx    *core.Tx
	bound []model.ClassID // the classes met so far; a probe's candidates mix them
	binds []slotBinding   // each bound class's slots, len(prog.paths) apiece
	cs    []slotBinding   // the current candidate's class's slots
	// fields are the attributes a heap scan decodes in its pass over each
	// record: the heads of the slots the WHERE clause and the aggregates
	// read, ascending, no repeats.
	fields []model.Field
	im     model.Image   // the record, while scanned
	inScan bool          // im is the current candidate's record
	obj    *model.Object // the candidate decoded, once it is
	// inner caches the steps behind a reference, resolved against the
	// class of the object each lands on.
	inner map[innerStep]binding
}

type innerStep struct {
	class model.ClassID
	step  string
}

// newCand returns a candidate for prog with room to bind classes classes.
func (e *Engine) newCand(tx *core.Tx, prog *Program, classes int) *cand {
	c := &cand{e: e, tx: tx, Frame: Frame{prog: prog, slots: make([]slotValue, len(prog.paths))},
		bound: make([]model.ClassID, 0, classes), binds: make([]slotBinding, 0, classes*len(prog.paths))}
	c.Frame.fill = c.fill
	return c
}

// bind returns the program's slots bound to class, binding them on first
// use.
func (c *cand) bind(class model.ClassID) []slotBinding {
	n := len(c.prog.paths)
	for k, bc := range c.bound {
		if bc == class {
			return c.binds[k*n : (k+1)*n]
		}
	}
	for _, steps := range c.prog.paths {
		c.binds = append(c.binds, slotBinding{head: c.e.bindStep(class, steps[0]), field: -1})
	}
	c.bound = append(c.bound, class)
	return c.binds[len(c.binds)-n:]
}

// scanClass binds the program to the class a heap scan reads and sets up
// the fields its pass over each record decodes.
func (c *cand) scanClass(class model.ClassID) {
	c.cs = c.bind(class)
	byAttr := func(f model.Field, a model.AttrID) int { return cmp.Compare(f.ID, a) }
	for slot := range c.cs[:c.prog.scanned] {
		if b := &c.cs[slot].head; b.found && b.method == nil {
			if i, found := slices.BinarySearchFunc(c.fields, b.attr, byAttr); !found {
				c.fields = slices.Insert(c.fields, i, model.Field{ID: b.attr})
			}
		}
	}
	for slot := range c.cs[:c.prog.scanned] {
		if b := &c.cs[slot].head; b.found && b.method == nil {
			c.cs[slot].field, _ = slices.BinarySearchFunc(c.fields, b.attr, byAttr)
		}
	}
}

// scan points the candidate at a record that ScanLocked read with
// c.fields, and fills the one-step slots whose attribute the read decoded.
// A set is left to fill, which flattens it.
func (c *cand) scan(im model.Image) {
	c.Reset()
	c.im, c.inScan, c.obj = im, true, nil
	for slot := range c.cs {
		sb := &c.cs[slot]
		if sb.field < 0 || len(c.prog.paths[slot]) > 1 {
			continue
		}
		v := &sb.head.def
		if f := &c.fields[sb.field]; f.OK {
			v = &f.V
		}
		if v.Kind() != model.KindSet {
			c.slots[slot] = slotValue{v: *v, have: true}
		}
	}
}

// object points the candidate at a decoded object.
func (c *cand) object(obj *model.Object) {
	c.Reset()
	c.cs = c.bind(obj.Class())
	c.im, c.inScan, c.obj = model.Image{}, false, obj
}

// decoded returns the candidate as an object, decoding its record at most
// once.
func (c *cand) decoded() (*model.Object, error) {
	if c.obj == nil {
		obj, err := c.im.Decode()
		if err != nil {
			return nil, err
		}
		c.obj = obj
	}
	return c.obj, nil
}

// fill reads a slot's path on the candidate. A one-step path ends as a
// walk does: a set is flattened, so a singleton yields its member and an
// empty set null.
func (c *cand) fill(slot int) (model.Value, error) {
	steps := c.prog.paths[slot]
	if len(steps) == 1 {
		v, err := c.head(slot)
		if members, ok := v.AsSet(); ok {
			v = terminal(members)
		}
		return v, err
	}
	// The walk starts on the candidate, which nil stands for.
	return WalkPath(nil, steps, func(o *model.Object, step string) (model.Value, error) {
		if o == nil {
			return c.head(slot)
		}
		key := innerStep{o.Class(), step}
		b, ok := c.inner[key]
		if !ok {
			if c.inner == nil {
				c.inner = make(map[innerStep]binding)
			}
			b = c.e.bindStep(key.class, step)
			c.inner[key] = b
		}
		return c.e.readStep(&b, o)
	}, c.tx.Read)
}

// head reads the first step of a slot's path on the candidate: from the
// fields the scan decoded when it has them, else from the object.
func (c *cand) head(slot int) (model.Value, error) {
	sb := &c.cs[slot]
	b := &sb.head
	if sb.field >= 0 && c.inScan {
		if f := &c.fields[sb.field]; f.OK {
			return f.V, nil
		}
		return b.def, nil
	}
	if !b.found {
		return model.Null, c.e.errNoAttr(b)
	}
	obj, err := c.decoded()
	if err != nil {
		return model.Null, err
	}
	return c.e.readStep(b, obj)
}
