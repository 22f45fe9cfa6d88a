package query

import (
	"fmt"
	"sort"

	"oodb/internal/core"
	"oodb/internal/model"
)

// The tree-walking evaluator the compiled program replaced, kept as the
// reference the differential tests hold the program to: it walks the WHERE
// tree for every candidate and reads each path through an accessor, with
// no slots and no per-class binding. Only the names differ from the
// evaluator it was.

// oracleAccessor reads one path on the candidate under evaluation. What an
// unknown step means is the accessor's business: the engine's returns
// ErrNoAttr, the federation's reads it as null.
type oracleAccessor func(steps []string) (model.Value, error)

// oracleMatches evaluates a predicate against the candidate behind get; a
// nil predicate matches everything.
func oracleMatches(ex Expr, get oracleAccessor) (bool, error) {
	switch n := ex.(type) {
	case nil:
		return true, nil
	case *Binary:
		switch n.Op {
		case OpAnd:
			l, err := oracleMatches(n.L, get)
			if err != nil || !l {
				return false, err
			}
			return oracleMatches(n.R, get)
		case OpOr:
			l, err := oracleMatches(n.L, get)
			if err != nil || l {
				return l, err
			}
			return oracleMatches(n.R, get)
		case OpIn:
			lv, err := oracleValue(n.L, get)
			if err != nil {
				return false, err
			}
			list, ok := n.R.(*List)
			if !ok {
				return false, fmt.Errorf("query: IN requires a literal list")
			}
			for _, item := range list.Items {
				if oracleCompare(OpEq, lv, item) {
					return true, nil
				}
			}
			return false, nil
		default:
			lv, err := oracleValue(n.L, get)
			if err != nil {
				return false, err
			}
			rv, err := oracleValue(n.R, get)
			if err != nil {
				return false, err
			}
			if n.Op == OpContains {
				return lv.Contains(rv), nil
			}
			return oracleCompare(n.Op, lv, rv), nil
		}
	case *Not:
		v, err := oracleMatches(n.E, get)
		return !v, err
	case *PathExpr, *Lit:
		v, err := oracleValue(ex, get)
		b, _ := v.AsBool()
		return b, err
	default:
		return false, fmt.Errorf("query: cannot evaluate %T as boolean", ex)
	}
}

// oracleValue evaluates an operand expression to a value.
func oracleValue(ex Expr, get oracleAccessor) (model.Value, error) {
	switch n := ex.(type) {
	case *Lit:
		return n.V, nil
	case *PathExpr:
		return get(n.Path.Steps)
	default:
		return model.Null, fmt.Errorf("query: cannot evaluate %T as value", ex)
	}
}

// oracleCompare applies a comparison with SQL-style null semantics: ordering
// comparisons with null are false; equality treats null = null as true
// (needed for `path = null` existence tests). Multi-valued operands
// (set-valued attributes, paths through set-valued references) compare
// existentially, and so does IN, which is oracleCompare(OpEq) per list item.
func oracleCompare(op BinOp, l, r model.Value) bool {
	if lm, ok := l.AsSet(); ok && r.Kind() != model.KindSet {
		for _, m := range lm {
			if oracleCompare(op, m, r) {
				return true
			}
		}
		return false
	}
	switch op {
	case OpEq:
		return model.Compare(l, r) == 0
	case OpNe:
		return model.Compare(l, r) != 0
	}
	if l.IsNull() || r.IsNull() {
		return false
	}
	c := model.Compare(l, r)
	switch op {
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	default:
		return false
	}
}

// oracleAccumulate feeds one matched row to the statement's aggregates.
func oracleAccumulate(e *Engine, tx *core.Tx, q *Query, aggs []Accumulator, obj *model.Object) error {
	for i, agg := range q.Aggregates {
		v := countStar
		if agg.Path != nil {
			var err error
			if v, err = e.EvalPath(tx.Read, obj, agg.Path.Steps); err != nil {
				return err
			}
		}
		if err := aggs[i].Add(&v); err != nil {
			return err
		}
	}
	return nil
}

// oracleGet reads paths on obj the way the old executor's accessor did for
// a decoded candidate.
func oracleGet(e *Engine, tx *core.Tx, obj *model.Object) oracleAccessor {
	return func(steps []string) (model.Value, error) { return e.EvalPath(tx.Read, obj, steps) }
}

// oracleRun answers q with the reference evaluator: every object of every
// scope class is decoded (Tx.Scan), every path step resolves against the
// catalog for every row, and filter, sort, limit, aggregate and projection
// run over the matching objects. Rows are flattened as flatten does; the
// first error, in scope and scan order, is returned as it occurred.
func oracleRun(eng *Engine, tx *core.Tx, q *Query) ([][]string, error) {
	p, err := eng.PlanQuery(q)
	if err != nil {
		return nil, err
	}
	var objs []*model.Object
	// A streamed aggregate folds each row as it matches, as the executor
	// does, so an error in an aggregate argument and one in the WHERE
	// clause of a later row surface in scan order.
	var aggs []Accumulator
	if streamsAggregates(q) {
		aggs = newAccumulators(q)
	}
	for _, class := range p.Scope {
		var ferr error
		err := tx.Scan(class, func(obj *model.Object) bool {
			var ok bool
			if ok, ferr = oracleMatches(q.Where, oracleGet(eng, tx, obj)); ok && ferr == nil {
				if aggs != nil {
					ferr = oracleAccumulate(eng, tx, q, aggs, obj)
				} else {
					objs = append(objs, obj)
				}
			}
			return ferr == nil
		})
		if err == nil {
			err = ferr
		}
		if err != nil {
			return nil, err
		}
	}
	if q.OrderBy != nil {
		keys := make(map[*model.Object]model.Value, len(objs))
		for _, obj := range objs {
			if keys[obj], err = eng.EvalPath(tx.Read, obj, q.OrderBy.Steps); err != nil {
				return nil, err
			}
		}
		sort.SliceStable(objs, func(a, b int) bool {
			c := model.Compare(keys[objs[a]], keys[objs[b]])
			if q.Desc {
				return c > 0
			}
			return c < 0
		})
	}
	if q.Limit > 0 && len(objs) > q.Limit {
		objs = objs[:q.Limit]
	}
	if len(q.Aggregates) > 0 {
		if aggs == nil {
			aggs = newAccumulators(q)
		}
		for _, obj := range objs {
			if err := oracleAccumulate(eng, tx, q, aggs, obj); err != nil {
				return nil, err
			}
		}
		out := []string{model.NilOID.String()}
		for i := range aggs {
			out = append(out, aggs[i].Result().String())
		}
		return [][]string{out}, nil
	}
	out := make([][]string, 0, len(objs))
	for _, obj := range objs {
		r := []string{obj.OID.String()}
		if len(q.Select) == 0 {
			r = append(r, model.Ref(obj.OID).String())
		}
		for _, path := range q.Select {
			v, err := eng.EvalPath(tx.Read, obj, path.Steps)
			if err != nil {
				return nil, err
			}
			r = append(r, v.String())
		}
		out = append(out, r)
	}
	return out, nil
}
