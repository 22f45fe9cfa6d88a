package query

import (
	"fmt"

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

// bindings are the path heads one execution (or one scan worker, for its
// class) has resolved so far. Resolving costs a catalog lock and two map
// lookups, so the first step of every path in a statement is resolved once
// per class met, not once per row; the steps behind a reference resolve as
// they are reached, against the class of the object they land on. A
// statement has a few heads and meets a few classes, so the table is a
// slice searched in order — and past maxBindings entries, where searching
// would cost more than resolving, it stops growing.
type bindings []binding

const maxBindings = 64

// row is the evaluator's handle on one candidate: its stored image, its
// decoded object, or both. A heap scan starts from the image and decodes
// only on demand; an index probe fetched the object already.
type row struct {
	im   model.Image
	obj  *model.Object
	bind *bindings // nil: resolve every step afresh
}

// object returns the candidate decoded, decoding it at most once.
func (r *row) object() (*model.Object, error) {
	if r.obj == nil {
		obj, err := r.im.Decode()
		if err != nil {
			return nil, err
		}
		r.obj = obj
	}
	return r.obj, nil
}

func (r *row) class() model.ClassID {
	if r.obj != nil {
		return r.obj.Class()
	}
	return r.im.OID().Class()
}

// binding returns the candidate's class's binding for a path head.
func (r *row) binding(e *Engine, step string) *binding {
	class := r.class()
	if r.bind != nil {
		for i := range *r.bind {
			if b := &(*r.bind)[i]; b.class == class && b.step == step {
				return b
			}
		}
		if len(*r.bind) < maxBindings {
			*r.bind = append(*r.bind, e.bindStep(class, step))
			return &(*r.bind)[len(*r.bind)-1]
		}
	}
	b := e.bindStep(class, step)
	return &b
}

// errNoAttr is the one wording of ErrNoAttr, for the planner's path-head
// check and the executor alike.
func (e *Engine) errNoAttr(b *binding) error {
	return fmt.Errorf("%w %q on %s", ErrNoAttr, b.step, e.className(b.class))
}

// readStep reads one path step on one candidate.
func (e *Engine) readStep(r *row, step string) (model.Value, error) {
	return e.stepValue(r, r.binding(e, step))
}

// stepValue reads one bound step on one candidate: the stored value, else
// the class default; or the method's result (late-bound, no arguments).
func (e *Engine) stepValue(r *row, b *binding) (model.Value, error) {
	switch {
	case !b.found:
		return model.Null, e.errNoAttr(b)
	case b.method != nil:
		if b.method.Impl == nil {
			return model.Null, fmt.Errorf("query: method %q has no registered implementation", b.step)
		}
		obj, err := r.object()
		if err != nil {
			return model.Null, err
		}
		return b.method.Impl(e.db, obj, nil)
	}
	var v model.Value
	var ok bool
	if r.obj != nil {
		v, ok = r.obj.Lookup(b.attr)
	} else {
		v, ok = r.im.Lookup(b.attr)
	}
	if !ok {
		return b.def, nil
	}
	return v, nil
}
