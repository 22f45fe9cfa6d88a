package query

import (
	"errors"
	"sort"

	"oodb/internal/model"
)

// ErrNoAttr reports a path step that names neither an attribute nor a method
// of the class it is read on.
var ErrNoAttr = errors.New("query: no such attribute or method")

// compareOp applies a comparison with SQL-style null semantics: ordering
// comparisons with null are false; equality treats null = null as true
// (needed for `path = null` existence tests). Multi-valued operands
// (set-valued attributes, paths through set-valued references) compare
// existentially, and so does IN, which is compareOp(OpEq) per list item.
func compareOp(op BinOp, l, r *model.Value) bool {
	if lm, ok := l.AsSet(); ok && r.Kind() != model.KindSet {
		for i := range lm {
			if compareOp(op, &lm[i], r) {
				return true
			}
		}
		return false
	}
	switch op {
	case OpEq:
		return model.Compare(*l, *r) == 0
	case OpNe:
		return model.Compare(*l, *r) != 0
	}
	if l.IsNull() || r.IsNull() {
		return false
	}
	c := model.Compare(*l, *r)
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

// WalkPath walks a path from start. read reads one step on one node (its
// error fails the walk); deref follows a reference to the node behind it (an
// error dead-ends that branch, as a dangling reference does). Set-valued
// steps fan out and the result is the set of terminal values (existential
// comparison semantics): nothing reached is null, one value is itself.
//
// The engine walks rows and objects of the database; a wire client walks the
// objects it fetches — what a step through a set or a null means is decided
// here for both.
func WalkPath[N any](start N, steps []string, read func(N, string) (model.Value, error), deref func(model.OID) (N, error)) (model.Value, error) {
	if len(steps) == 0 {
		return model.Null, nil
	}
	v, err := read(start, steps[0])
	if err != nil {
		return model.Null, err
	}
	var one [1]model.Value // a reference path mostly carries one value: keep it off the heap
	vals := appendMembers(one[:0], v)
	for _, step := range steps[1:] {
		var next []model.Value
		for _, ref := range vals {
			oid, ok := ref.AsRef()
			if !ok {
				continue // non-reference interior value dead-ends
			}
			n, err := deref(oid)
			if err != nil {
				continue
			}
			v, err := read(n, step)
			if err != nil {
				return model.Null, err
			}
			next = appendMembers(next, v)
		}
		vals = next
	}
	return terminal(vals), nil
}

// terminal is the value of a path that ended on vals.
func terminal(vals []model.Value) model.Value {
	switch len(vals) {
	case 0:
		return model.Null
	case 1:
		return vals[0]
	default:
		return model.Set(vals...)
	}
}

// appendMembers appends what one step contributed to a path's values:
// nothing for null, the members of a set, else the value itself.
func appendMembers(vals []model.Value, v model.Value) []model.Value {
	if v.IsNull() {
		return vals
	}
	if members, ok := v.AsSet(); ok {
		return append(vals, members...)
	}
	return append(vals, v)
}

// OrderLimit is ORDER BY + LIMIT over rows of any shape: it sorts rows by
// key — stably, so rows whose keys tie keep the order they arrived in —
// descending when desc, and keeps the first limit of them (0 keeps all). A
// nil key leaves the order alone and only cuts. key is read once per row.
func OrderLimit[R any](rows []R, key func(*R) (model.Value, error), desc bool, limit int) ([]R, error) {
	n := len(rows)
	if limit > 0 && limit < n {
		n = limit
	}
	if key == nil {
		return rows[:n], nil
	}
	keys := make([]model.Value, len(rows))
	for i := range rows {
		var err error
		if keys[i], err = key(&rows[i]); err != nil {
			return nil, err
		}
	}
	// Sort an index permutation, so rows and keys stay paired and a swap
	// moves one int.
	idxs := make([]int, len(rows))
	for i := range idxs {
		idxs[i] = i
	}
	sort.SliceStable(idxs, func(a, b int) bool {
		c := model.Compare(keys[idxs[a]], keys[idxs[b]])
		if desc {
			return c > 0
		}
		return c < 0
	})
	sorted := make([]R, n)
	for i := range sorted {
		sorted[i] = rows[idxs[i]]
	}
	return sorted, nil
}
