package query

import (
	"fmt"
	"slices"

	"oodb/internal/model"
)

// Program is a statement compiled once: its WHERE clause and its
// aggregate list as a predicate and a fold over numbered slots, one slot
// per distinct path the statement reads. It is the only evaluator — the
// executor's heap scans and index probes and the federation's Scan path
// all run it — and it is immutable, so one plan may execute on many
// goroutines; what one candidate's slots hold lives in a Frame.
//
// The predicate keeps the evaluation order of the WHERE tree: AND and OR
// short-circuit left to right, and a slot is filled on its first read
// within a candidate, so a branch that is not taken never reads its paths
// (never dereferences, never invokes a method) and an error surfaces where
// the tree meets it first. Comparisons have SQL-style nulls (compareOp)
// and compare a multi-valued left operand existentially.
type Program struct {
	paths [][]string // slot → the path's steps
	where pred       // nil: every candidate matches
	aggs  []int      // per aggregate: its argument's slot, or -1 for COUNT(*)
	order int        // the ORDER BY slot, or -1
	sel   []int      // per projected path: its slot
	// scanned counts the slots the WHERE clause and the aggregates read,
	// numbered first: a heap scan decodes their heads in the pass that
	// checks each record.
	scanned int
}

// pred is a compiled boolean expression over one candidate's slots.
type pred func(f *Frame) (bool, error)

// operand is a compiled value expression: a slot, or the literal of the
// statement's Lit node when slot is negative.
type operand struct {
	slot int
	lit  *model.Value
}

// Compile compiles q's WHERE clause and aggregate list, numbering a slot
// for every path q reads (projection and ORDER BY included).
func Compile(q *Query) (*Program, error) {
	p := &Program{order: -1}
	slotOf := func(path Path) int {
		for s, steps := range p.paths {
			if slices.Equal(steps, path.Steps) {
				return s
			}
		}
		p.paths = append(p.paths, path.Steps)
		return len(p.paths) - 1
	}
	var err error
	if q.Where != nil {
		if p.where, err = compilePred(q.Where, slotOf); err != nil {
			return nil, err
		}
	}
	for _, a := range q.Aggregates {
		s := -1
		if a.Path != nil {
			s = slotOf(*a.Path)
		}
		p.aggs = append(p.aggs, s)
	}
	p.scanned = len(p.paths)
	if q.OrderBy != nil {
		p.order = slotOf(*q.OrderBy)
	}
	for _, path := range q.Select {
		p.sel = append(p.sel, slotOf(path))
	}
	return p, nil
}

// Path returns the steps of a slot's path.
func (p *Program) Path(slot int) []string { return p.paths[slot] }

func compilePred(ex Expr, slotOf func(Path) int) (pred, error) {
	switch n := ex.(type) {
	case *Binary:
		switch n.Op {
		case OpAnd, OpOr:
			l, err := compilePred(n.L, slotOf)
			if err != nil {
				return nil, err
			}
			r, err := compilePred(n.R, slotOf)
			if err != nil {
				return nil, err
			}
			if n.Op == OpAnd {
				return func(f *Frame) (bool, error) {
					if ok, err := l(f); err != nil || !ok {
						return false, err
					}
					return r(f)
				}, nil
			}
			return func(f *Frame) (bool, error) {
				if ok, err := l(f); err != nil || ok {
					return ok, err
				}
				return r(f)
			}, nil
		case OpIn:
			l, err := compileOperand(n.L, slotOf)
			if err != nil {
				return nil, err
			}
			list, ok := n.R.(*List)
			if !ok {
				return nil, fmt.Errorf("query: IN requires a literal list")
			}
			return func(f *Frame) (bool, error) {
				v, err := f.operand(l)
				if err != nil {
					return false, err
				}
				for i := range list.Items {
					if compareOp(OpEq, v, &list.Items[i]) {
						return true, nil
					}
				}
				return false, nil
			}, nil
		}
		return compileComparison(n, slotOf)
	case *Not:
		e, err := compilePred(n.E, slotOf)
		if err != nil {
			return nil, err
		}
		return func(f *Frame) (bool, error) {
			ok, err := e(f)
			return !ok, err
		}, nil
	case *PathExpr, *Lit:
		o, err := compileOperand(ex, slotOf)
		if err != nil {
			return nil, err
		}
		return func(f *Frame) (bool, error) {
			v, err := f.operand(o)
			if err != nil {
				return false, err
			}
			b, _ := v.AsBool()
			return b, nil
		}, nil
	default:
		return nil, fmt.Errorf("query: cannot evaluate %T as boolean", ex)
	}
}

// compileComparison compiles the six comparisons and CONTAINS. The left
// operand is read before the right one.
func compileComparison(n *Binary, slotOf func(Path) int) (pred, error) {
	l, err := compileOperand(n.L, slotOf)
	if err != nil {
		return nil, err
	}
	r, err := compileOperand(n.R, slotOf)
	if err != nil {
		return nil, err
	}
	op := n.Op
	if op == OpContains {
		return func(f *Frame) (bool, error) {
			lv, rv, err := f.operands(l, r)
			return err == nil && lv.Contains(*rv), err
		}, nil
	}
	return func(f *Frame) (bool, error) {
		lv, rv, err := f.operands(l, r)
		return err == nil && compareOp(op, lv, rv), err
	}, nil
}

func compileOperand(ex Expr, slotOf func(Path) int) (operand, error) {
	switch n := ex.(type) {
	case *Lit:
		return operand{slot: -1, lit: &n.V}, nil
	case *PathExpr:
		return operand{slot: slotOf(n.Path)}, nil
	default:
		return operand{}, fmt.Errorf("query: cannot evaluate %T as value", ex)
	}
}

// Frame holds the slot values of one candidate at a time. A slot is filled
// on its first read after Reset, through the fill function the frame was
// made with, and kept until the next Reset.
type Frame struct {
	prog  *Program
	slots []slotValue
	fill  func(slot int) (model.Value, error)
}

type slotValue struct {
	v    model.Value
	have bool
}

// NewFrame returns a frame over p whose slots fill reads: fill gets the
// slot's number (Path gives its steps) and returns the value the path has
// on the current candidate.
func (p *Program) NewFrame(fill func(slot int) (model.Value, error)) *Frame {
	return &Frame{prog: p, slots: make([]slotValue, len(p.paths)), fill: fill}
}

// Reset forgets the slot values: the frame moves to the next candidate.
func (f *Frame) Reset() {
	for i := range f.slots {
		f.slots[i].have = false
	}
}

// value returns the slot's value on the current candidate, filling it on
// first read. It is returned by reference, valid until the next Reset, so
// the predicate and the aggregates read a slot without copying it.
func (f *Frame) value(slot int) (*model.Value, error) {
	s := &f.slots[slot]
	if !s.have {
		v, err := f.fill(slot)
		if err != nil {
			return nil, err
		}
		s.v, s.have = v, true
	}
	return &s.v, nil
}

// Match evaluates the WHERE clause on the current candidate.
func (f *Frame) Match() (bool, error) {
	if f.prog.where == nil {
		return true, nil
	}
	return f.prog.where(f)
}

// accumulate feeds the current candidate to one accumulator per aggregate,
// n times over: a row is one instance, an index fold's key stands for n.
func (f *Frame) accumulate(aggs []Accumulator, n int64) error {
	for i, slot := range f.prog.aggs {
		v := &countStar
		if slot >= 0 {
			var err error
			if v, err = f.value(slot); err != nil {
				return err
			}
		}
		if err := aggs[i].addN(v, n); err != nil {
			return err
		}
	}
	return nil
}

// countStar is what COUNT(*) adds for a row: any non-null value counts.
var countStar = model.Bool(true)

func (f *Frame) operand(o operand) (*model.Value, error) {
	if o.slot < 0 {
		return o.lit, nil
	}
	return f.value(o.slot)
}

// operands reads l, then r.
func (f *Frame) operands(l, r operand) (lv, rv *model.Value, err error) {
	if lv, err = f.operand(l); err != nil {
		return nil, nil, err
	}
	rv, err = f.operand(r)
	return lv, rv, err
}
