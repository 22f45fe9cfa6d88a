// Package rules implements kimdb's deductive capability (Kim §5.4): a
// Datalog rule engine layered over the object database, in the spirit of
// the ORION rule-system coupling [BALL88] the paper cites.
//
// Rules are Horn clauses over predicates whose extensional facts come from
// the object base (class extents and attribute values, exposed through an
// EDB adapter) and whose intensional facts are derived by forward chaining
// (semi-naive, to fixpoint). Queries against derived predicates restrict
// evaluation to the rules reachable from the goal — goal-directed
// (backward) invocation realized as relevance-restricted bottom-up
// evaluation. Negation is not supported (the paper's own scope: "forward
// and backward chaining of rules").
package rules

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"oodb/internal/core"
	"oodb/internal/model"
)

// Term is a variable or a constant.
type Term struct {
	Var string      // non-empty for variables
	Val model.Value // constant when Var == ""
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// C returns a constant term.
func C(v model.Value) Term { return Term{Val: v} }

func (t Term) String() string {
	if t.Var != "" {
		return "?" + t.Var
	}
	return t.Val.String()
}

// Atom is a predicate applied to terms.
type Atom struct {
	Pred string
	Args []Term
}

// A builds an atom.
func A(pred string, args ...Term) Atom { return Atom{Pred: pred, Args: args} }

func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Pred + "(" + strings.Join(parts, ", ") + ")"
}

// Rule is a Horn clause: Head :- Body.
type Rule struct {
	Head Atom
	Body []Atom
}

func (r Rule) String() string {
	parts := make([]string, len(r.Body))
	for i, a := range r.Body {
		parts[i] = a.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ")
}

// EDB supplies extensional facts.
type EDB interface {
	// Facts calls fn with each fact of pred; known is false if the
	// predicate is unknown to this EDB. An error means the facts could not
	// all be read: those fn saw are not the predicate's extent.
	Facts(pred string, fn func(args []model.Value)) (known bool, err error)
}

// Errors of the rule engine.
var (
	ErrUnsafeRule = errors.New("rules: unsafe rule (head variable not bound in body)")
	ErrUnknown    = errors.New("rules: unknown predicate")
)

// Engine holds a rule base over an EDB.
type Engine struct {
	edb    EDB
	rules  []Rule
	byPred map[string][]int // head pred -> rule indexes
}

// NewEngine returns an engine over the EDB.
func NewEngine(edb EDB) *Engine {
	return &Engine{edb: edb, byPred: make(map[string][]int)}
}

// AddRule installs a rule after the Datalog safety check: every head
// variable must occur in the body.
func (e *Engine) AddRule(r Rule) error {
	bodyVars := map[string]bool{}
	for _, a := range r.Body {
		for _, t := range a.Args {
			if t.Var != "" {
				bodyVars[t.Var] = true
			}
		}
	}
	for _, t := range r.Head.Args {
		if t.Var != "" && !bodyVars[t.Var] {
			return fmt.Errorf("%w: %s in %s", ErrUnsafeRule, t.Var, r)
		}
	}
	e.rules = append(e.rules, r)
	e.byPred[r.Head.Pred] = append(e.byPred[r.Head.Pred], len(e.rules)-1)
	return nil
}

// tuple is one fact's arguments; key gives it map identity.
type tuple []model.Value

func tupleKey(t tuple) string {
	var buf []byte
	for _, v := range t {
		buf = model.AppendKey(buf, v)
	}
	return string(buf)
}

// relation is a set of tuples.
type relation struct {
	keys map[string]bool
	rows []tuple
}

func newRelation() *relation { return &relation{keys: make(map[string]bool)} }

func (r *relation) add(t tuple) bool {
	k := tupleKey(t)
	if r.keys[k] {
		return false
	}
	r.keys[k] = true
	r.rows = append(r.rows, t)
	return true
}

// relevant returns the IDB predicates reachable from goal through rule
// bodies (the goal-directed restriction).
func (e *Engine) relevant(goal string) map[string]bool {
	out := map[string]bool{}
	var visit func(p string)
	visit = func(p string) {
		if out[p] {
			return
		}
		if _, idb := e.byPred[p]; !idb {
			return
		}
		out[p] = true
		for _, ri := range e.byPred[p] {
			for _, a := range e.rules[ri].Body {
				visit(a.Pred)
			}
		}
	}
	visit(goal)
	return out
}

// edbRelation materializes an EDB predicate.
func (e *Engine) edbRelation(pred string) (*relation, bool, error) {
	rel := newRelation()
	known, err := e.edb.Facts(pred, func(args []model.Value) {
		rel.add(append(tuple(nil), args...))
	})
	if !known || err != nil {
		return nil, known, err
	}
	return rel, true, nil
}

// Infer computes all facts of the goal predicate (extensional and
// derived), sorted deterministically.
func (e *Engine) Infer(goal string) ([][]model.Value, error) {
	idb := e.relevant(goal)
	_, isIDB := e.byPred[goal]
	edbRel, isEDB, err := e.edbRelation(goal)
	if err != nil {
		return nil, err
	}
	if !isIDB && !isEDB {
		return nil, fmt.Errorf("%w: %q", ErrUnknown, goal)
	}

	// Materialize every EDB predicate any relevant rule mentions.
	edbRels := map[string]*relation{}
	if isEDB {
		edbRels[goal] = edbRel
	}
	for p := range idb {
		for _, ri := range e.byPred[p] {
			for _, a := range e.rules[ri].Body {
				if _, done := edbRels[a.Pred]; done || idb[a.Pred] {
					continue
				}
				rel, ok, err := e.edbRelation(a.Pred)
				if err != nil {
					return nil, err
				}
				if !ok {
					return nil, fmt.Errorf("%w: %q in %s", ErrUnknown, a.Pred, e.rules[ri])
				}
				edbRels[a.Pred] = rel
			}
		}
	}

	// Semi-naive fixpoint over the relevant IDB predicates.
	full := map[string]*relation{}
	delta := map[string]*relation{}
	for p := range idb {
		full[p] = newRelation()
		delta[p] = newRelation()
	}
	lookup := func(pred string, deltaOnly bool) *relation {
		if idb[pred] {
			if deltaOnly {
				return delta[pred]
			}
			return full[pred]
		}
		return edbRels[pred]
	}

	// Initial round: evaluate every rule naively.
	for p := range idb {
		for _, ri := range e.byPred[p] {
			for _, t := range e.evalRule(e.rules[ri], lookup, -1) {
				if full[p].add(t) {
					delta[p].add(t)
				}
			}
		}
	}
	for {
		next := map[string]*relation{}
		for p := range idb {
			next[p] = newRelation()
		}
		changed := false
		for p := range idb {
			for _, ri := range e.byPred[p] {
				rule := e.rules[ri]
				// Semi-naive: one body position at a time restricted to
				// the delta of an IDB predicate.
				for pos, a := range rule.Body {
					if !idb[a.Pred] {
						continue
					}
					for _, t := range e.evalRuleDelta(rule, lookup, pos) {
						if full[p].add(t) {
							next[p].add(t)
							changed = true
						}
					}
				}
			}
		}
		delta = next
		if !changed {
			break
		}
	}

	out := newRelation()
	if isEDB {
		for _, t := range edbRel.rows {
			out.add(t)
		}
	}
	if isIDB {
		for _, t := range full[goal].rows {
			out.add(t)
		}
	}
	rows := make([][]model.Value, len(out.rows))
	for i, t := range out.rows {
		rows[i] = t
	}
	sort.Slice(rows, func(i, j int) bool {
		return tupleKey(rows[i]) < tupleKey(rows[j])
	})
	return rows, nil
}

type lookupFn func(pred string, deltaOnly bool) *relation

// evalRule evaluates a rule body with no delta restriction.
func (e *Engine) evalRule(r Rule, lookup lookupFn, _ int) []tuple {
	return e.evalBody(r, lookup, -1)
}

// evalRuleDelta evaluates with body position deltaPos restricted to the
// delta relation.
func (e *Engine) evalRuleDelta(r Rule, lookup lookupFn, deltaPos int) []tuple {
	return e.evalBody(r, lookup, deltaPos)
}

func (e *Engine) evalBody(r Rule, lookup lookupFn, deltaPos int) []tuple {
	envs := []map[string]model.Value{{}}
	for pos, atom := range r.Body {
		rel := lookup(atom.Pred, pos == deltaPos)
		if rel == nil {
			return nil
		}
		var next []map[string]model.Value
		for _, env := range envs {
			for _, fact := range rel.rows {
				if len(fact) != len(atom.Args) {
					continue
				}
				if ext, ok := unify(env, atom, fact); ok {
					next = append(next, ext)
				}
			}
		}
		envs = next
		if len(envs) == 0 {
			return nil
		}
	}
	var out []tuple
	for _, env := range envs {
		t := make(tuple, len(r.Head.Args))
		for i, term := range r.Head.Args {
			if term.Var != "" {
				t[i] = env[term.Var]
			} else {
				t[i] = term.Val
			}
		}
		out = append(out, t)
	}
	return out
}

// unify extends env so atom matches fact, or fails.
func unify(env map[string]model.Value, atom Atom, fact tuple) (map[string]model.Value, bool) {
	ext := env
	copied := false
	for i, term := range atom.Args {
		want := fact[i]
		if term.Var == "" {
			if !model.Equal(term.Val, want) {
				return nil, false
			}
			continue
		}
		if bound, ok := ext[term.Var]; ok {
			if !model.Equal(bound, want) {
				return nil, false
			}
			continue
		}
		if !copied {
			ext = make(map[string]model.Value, len(env)+1)
			for k, v := range env {
				ext[k] = v
			}
			copied = true
		}
		ext[term.Var] = want
	}
	return ext, true
}

// Query answers a goal atom: facts of the predicate unified against the
// atom's constants, returning one binding map per solution.
func (e *Engine) Query(goal Atom) ([]map[string]model.Value, error) {
	facts, err := e.Infer(goal.Pred)
	if err != nil {
		return nil, err
	}
	var out []map[string]model.Value
	for _, f := range facts {
		if len(f) != len(goal.Args) {
			continue
		}
		if env, ok := unify(map[string]model.Value{}, goal, f); ok {
			out = append(out, env)
		}
	}
	return out, nil
}

// ObjectEDB adapts a kimdb database to the EDB interface. Predicates are
// registered explicitly:
//
//   - MapClass("vehicle", "Vehicle") exposes vehicle(x) — one unary fact
//     per instance of Vehicle or any subclass (hierarchy semantics);
//   - MapAttr("weight", "Vehicle", "weight") exposes weight(x, w) — one
//     binary fact per instance with a non-null value; set-valued
//     attributes yield one fact per member.
type ObjectEDB struct {
	db      *core.DB
	classes map[string]model.ClassID
	attrs   map[string]struct {
		class model.ClassID
		attr  string
	}
}

// NewObjectEDB returns an empty adapter over db.
func NewObjectEDB(db *core.DB) *ObjectEDB {
	return &ObjectEDB{
		db:      db,
		classes: make(map[string]model.ClassID),
		attrs: make(map[string]struct {
			class model.ClassID
			attr  string
		}),
	}
}

// MapClass exposes a class extent as a unary predicate.
func (o *ObjectEDB) MapClass(pred, className string) error {
	cl, err := o.db.Catalog.ClassByName(className)
	if err != nil {
		return err
	}
	o.classes[pred] = cl.ID
	return nil
}

// MapAttr exposes an attribute as a binary predicate over a class
// hierarchy.
func (o *ObjectEDB) MapAttr(pred, className, attrName string) error {
	cl, err := o.db.Catalog.ClassByName(className)
	if err != nil {
		return err
	}
	if _, err := o.db.Catalog.ResolveAttr(cl.ID, attrName); err != nil {
		return err
	}
	o.attrs[pred] = struct {
		class model.ClassID
		attr  string
	}{cl.ID, attrName}
	return nil
}

// Facts implements EDB.
func (o *ObjectEDB) Facts(pred string, fn func(args []model.Value)) (bool, error) {
	if class, ok := o.classes[pred]; ok {
		return true, o.scanHierarchy(class, func(obj *model.Object) {
			fn([]model.Value{model.Ref(obj.OID)})
		})
	}
	if m, ok := o.attrs[pred]; ok {
		return true, o.scanHierarchy(m.class, func(obj *model.Object) {
			a, err := o.db.Catalog.ResolveAttr(obj.Class(), m.attr)
			if err != nil {
				return
			}
			v, ok := obj.Lookup(a.ID)
			if !ok {
				v = a.Default
			}
			if v.IsNull() {
				return
			}
			if members, isSet := v.AsSet(); isSet {
				for _, mem := range members {
					fn([]model.Value{model.Ref(obj.OID), mem})
				}
				return
			}
			fn([]model.Value{model.Ref(obj.OID), v})
		})
	}
	return false, nil
}

func (o *ObjectEDB) scanHierarchy(class model.ClassID, fn func(*model.Object)) error {
	classes, err := o.db.Catalog.Descendants(class)
	if err != nil {
		return err
	}
	return o.db.Scan(classes, func(obj *model.Object) bool {
		fn(obj)
		return true
	})
}

// interface check
var _ EDB = (*ObjectEDB)(nil)

// MapEDB is a simple in-memory EDB for tests and standalone use.
type MapEDB map[string][][]model.Value

// Facts implements EDB.
func (m MapEDB) Facts(pred string, fn func(args []model.Value)) (bool, error) {
	rows, ok := m[pred]
	for _, r := range rows {
		fn(r)
	}
	return ok, nil
}
