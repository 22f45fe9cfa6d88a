package query

import (
	"fmt"
	"slices"
	"strings"

	"oodb/internal/core"
	"oodb/internal/index"
	"oodb/internal/model"
	"oodb/internal/schema"
)

// Engine plans and executes queries against a database.
type Engine struct {
	db *core.DB
	// ForceScan disables index selection (the optimizer-ablation switch of
	// experiment E8).
	ForceScan bool
	// serialScan scans a class-hierarchy scope one class at a time instead
	// of fanning out — the reference the parallel-scan tests compare with.
	serialScan bool
	// Views resolves a FROM name that is not a class to a view's query
	// source ("a query may be issued against views just as though they
	// were relations", Kim §5.4). Wired by the view manager.
	Views func(name string) (src string, ok bool)
}

// NewEngine returns a query engine over db.
func NewEngine(db *core.DB) *Engine { return &Engine{db: db} }

// accessKind enumerates the planner's access paths, in the order of its
// heuristic ranking: equality beats range, one index beats a per-class
// union, and any index beats a heap scan.
type accessKind int

const (
	accessIndexEq  accessKind = iota // single index, equality probe
	accessUnionEq                    // one SC index per scope class, equality
	accessIndexRng                   // single index, range scan
	accessUnionRng                   // one SC index per scope class, range
	accessScan                       // heap-scan every class in scope
)

// Plan is a compiled query: scope, access path and residual predicate.
type Plan struct {
	Query   *Query
	Target  *schema.Class
	Scope   []model.ClassID // classes whose instances the query ranges over
	prog    *Program
	kind    accessKind
	indexes []*index.Index // 1 for single-index plans, per-class for unions
	iv      index.Interval // key interval probed; a point for equality
	// ordered reports that the index walk yields rows in ORDER BY order,
	// so the executor may skip the sort and stop at LIMIT (see
	// orderFromIndex for the plan-time half of the precondition).
	ordered bool
	// cover is the index the executor answers the statement from without
	// reading a record (see covered).
	cover   *index.Index
	coverIV index.Interval
	// epoch is the database's schema epoch (core.DB.SchemaEpoch), read
	// before the plan read the catalog or the indexes: Execute runs the
	// plan only while it holds.
	epoch uint64
	// Reads lists each attribute the statement's paths read, at each class
	// they read it at (schema.Catalog.BindPath): a read check's input.
	Reads []schema.AttrRead

	// EstRows is the statistics-based result cardinality estimate; HasEst
	// reports whether statistics covered the whole scope (see selectivity.go).
	EstRows float64
	HasEst  bool
}

// String renders the plan for EXPLAIN output and the ablation tests.
func (p *Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scope=%s(%d classes) ", p.Target.Name, len(p.Scope))
	switch {
	case p.cover != nil && len(p.Query.Aggregates) > 0:
		fmt.Fprintf(&sb, "access=index-agg(%s)%s", p.cover.Name, p.coverIV)
	case p.cover != nil:
		fmt.Fprintf(&sb, "access=index-only(%s)%s", p.cover.Name, p.coverIV)
	case p.kind == accessScan:
		sb.WriteString("access=heap-scan")
	case p.kind == accessIndexEq:
		fmt.Fprintf(&sb, "access=index-eq(%s)", p.indexes[0].Name)
	case p.kind == accessIndexRng:
		fmt.Fprintf(&sb, "access=index-range(%s)", p.indexes[0].Name)
	case p.kind == accessUnionEq:
		fmt.Fprintf(&sb, "access=index-union-eq(%d indexes)", len(p.indexes))
	case p.kind == accessUnionRng:
		fmt.Fprintf(&sb, "access=index-union-range(%d indexes)", len(p.indexes))
	}
	if p.cover == nil && p.kind != accessScan {
		sb.WriteString(p.iv.String())
	}
	if p.Query.OrderBy != nil {
		if p.ordered || p.cover != nil {
			sb.WriteString(" order=index")
		} else {
			sb.WriteString(" order=sort")
		}
	}
	if p.Query.Limit > 0 {
		fmt.Fprintf(&sb, " limit=%d", p.Query.Limit)
	}
	if p.HasEst {
		fmt.Fprintf(&sb, " est_rows=%.1f", p.EstRows)
	}
	if p.Query.Where != nil {
		fmt.Fprintf(&sb, " residual=%s", p.Query.Where.exprString())
	}
	return sb.String()
}

// IndexUsed reports whether the plan uses any index (tests).
func (p *Plan) IndexUsed() bool { return p.kind != accessScan }

// PlanQuery resolves names and picks an access path. A FROM name that is
// not a class resolves through the view resolver: the view's query is
// merged with the outer query (predicates conjoined, outer projection
// winning) and planned against the view's target class.
func (e *Engine) PlanQuery(q *Query) (*Plan, error) {
	return e.planQuery(q, 0)
}

func (e *Engine) planQuery(q *Query, viewDepth int) (*Plan, error) {
	epoch := e.db.SchemaEpoch()
	cl, err := e.db.Catalog.ClassByName(q.From)
	if err != nil {
		if e.Views != nil {
			if src, ok := e.Views(q.From); ok {
				if viewDepth >= 8 {
					return nil, fmt.Errorf("query: view expansion too deep at %q (cyclic view definition?)", q.From)
				}
				merged, verr := e.mergeView(q, src)
				if verr != nil {
					return nil, verr
				}
				return e.planQuery(merged, viewDepth+1)
			}
		}
		return nil, err
	}
	p := &Plan{Query: q, Target: cl, epoch: epoch}
	if q.Only {
		p.Scope = []model.ClassID{cl.ID}
	} else {
		p.Scope, err = e.db.Catalog.Descendants(cl.ID)
		if err != nil {
			return nil, err
		}
	}
	if p.prog, err = Compile(q); err != nil {
		return nil, err
	}
	// Validate projection, aggregate and ORDER BY paths eagerly (first step
	// must resolve on the target class as attribute or method).
	for _, slot := range slices.Concat(p.prog.sel, p.prog.aggs, []int{p.prog.order}) {
		if slot >= 0 {
			if err := e.checkPathHead(cl.ID, p.prog.paths[slot]); err != nil {
				return nil, err
			}
		}
	}
	// Each slot's path is bound over the scope once (the zero binding where
	// a step is no attribute in some scope class: a method, say).
	binds := make([]schema.PathBinding, len(p.prog.paths))
	p.Reads = make([]schema.AttrRead, 0, len(p.prog.paths)*len(p.Scope))
	for slot, steps := range p.prog.paths {
		if b, err := e.db.Catalog.BindPath(p.Scope, steps, &p.Reads); err == nil {
			binds[slot] = b
		}
	}
	p.kind = accessScan
	sargs, est := p.sargs(binds), e.newEstimator(p.Scope)
	if !e.ForceScan {
		e.chooseIndex(p, sargs, est)
	}
	p.cover, p.coverIV = e.covered(p, binds)
	if est != nil {
		annotatePlan(p, est, estimable(sargs)) // last: it may reorder Scope
	}
	return p, nil
}

// covered returns the index that answers p from its keys, without reading a
// record (DESIGN §4 "Covered statements"), and the key interval the
// statement's matches lie in — the plan's interval, or the whole key range
// under a heap-scan plan — or nil when a precondition fails. The statement
// is an aggregate that streams (no ORDER BY, no LIMIT), or a row statement
// that selects only the slot, orders by it ascending and whose WHERE clause
// rejects null (the index holds no OID for a null value). It reads at most
// one slot, a one-step path; its binding over the scope is uniform (every
// scope class names the same attribute) on a single-valued Integer
// attribute with a null default; one index on it covers the scope; and
// ForceScan is off. A statement that reads no slot — COUNT(*) with no
// WHERE — counts from any attribute that qualifies.
func (e *Engine) covered(p *Plan, binds []schema.PathBinding) (*index.Index, index.Interval) {
	q, prog := p.Query, p.prog
	switch {
	case e.ForceScan || len(prog.paths) > 1 || (len(prog.paths) == 1 && len(prog.paths[0]) != 1):
		return nil, index.Interval{}
	case len(q.Aggregates) > 0:
		if !streamsAggregates(q) {
			return nil, index.Interval{}
		}
	case len(q.Select) == 0 || q.OrderBy == nil || q.Desc || matchesNull(prog):
		return nil, index.Interval{}
	}
	if len(prog.paths) == 0 {
		attrs, _ := e.db.Catalog.EffectiveAttrs(p.Target.ID)
		for _, a := range attrs {
			if b, err := e.db.Catalog.BindPath(p.Scope, []string{a.Name}, nil); err == nil {
				binds = append(binds, b)
			}
		}
	}
	for _, b := range binds {
		if !b.Uniform || !b.Single || b.Classes[0].Domain != schema.ClassInteger || !b.Classes[0].Def.IsNull() {
			continue
		}
		indexes, union := e.findIndexes(p, &b)
		switch {
		case indexes == nil || union:
		case p.kind == accessScan:
			return indexes[0], index.Interval{}
		case p.indexes[0] == indexes[0]:
			return indexes[0], p.iv
		}
	}
	return nil, index.Interval{}
}

// matchesNull reports whether prog's WHERE clause may hold on a candidate
// whose slots are null.
func matchesNull(prog *Program) bool {
	ok, err := prog.NewFrame(func(int) (model.Value, error) { return model.Null, nil }).Match()
	return ok || err != nil
}

// mergeView composes an outer query over a view definition. The outer
// WHERE conjoins with the view's; the outer projection, ordering, limit
// and aggregates override the view's when present. Restrictions keep the
// semantics honest: a view with ORDER BY or LIMIT only admits a bare
// SELECT * over it, and a view cannot itself be an aggregate.
func (e *Engine) mergeView(outer *Query, src string) (*Query, error) {
	inner, err := Parse(src)
	if err != nil {
		return nil, fmt.Errorf("query: view %q: %w", outer.From, err)
	}
	if len(inner.Aggregates) > 0 {
		return nil, fmt.Errorf("query: view %q is an aggregate; it cannot be queried FROM", outer.From)
	}
	if outer.Only {
		return nil, fmt.Errorf("query: ONLY cannot apply to view %q", outer.From)
	}
	if (inner.Limit > 0 || inner.OrderBy != nil) &&
		(outer.Where != nil || outer.Limit > 0 || outer.OrderBy != nil || len(outer.Select) > 0 || len(outer.Aggregates) > 0) {
		return nil, fmt.Errorf("query: view %q has ORDER BY/LIMIT; only SELECT * over it is supported", outer.From)
	}
	merged := &Query{
		From:       inner.From,
		Only:       inner.Only,
		Where:      inner.Where,
		Select:     inner.Select,
		OrderBy:    inner.OrderBy,
		Desc:       inner.Desc,
		Limit:      inner.Limit,
		Aggregates: outer.Aggregates,
	}
	if outer.Where != nil {
		if merged.Where != nil {
			merged.Where = &Binary{Op: OpAnd, L: merged.Where, R: outer.Where}
		} else {
			merged.Where = outer.Where
		}
	}
	if len(outer.Select) > 0 {
		merged.Select = outer.Select
	}
	if len(outer.Aggregates) > 0 {
		merged.Select = nil
	}
	if outer.OrderBy != nil {
		merged.OrderBy, merged.Desc = outer.OrderBy, outer.Desc
	}
	if outer.Limit > 0 {
		merged.Limit = outer.Limit
	}
	return merged, nil
}

func (e *Engine) checkPathHead(class model.ClassID, steps []string) error {
	if len(steps) == 0 {
		return fmt.Errorf("query: empty path")
	}
	if b := e.bindStep(class, steps[0]); !b.found {
		return e.errNoAttr(&b)
	}
	return nil
}

func (e *Engine) className(id model.ClassID) string {
	cl, err := e.db.Catalog.Class(id)
	if err != nil {
		return fmt.Sprintf("class(%d)", id)
	}
	return cl.Name
}

// sarg is an index-usable conjunct: path op literal.
type sarg struct {
	path Path
	op   BinOp
	lit  model.Value
}

// conjuncts flattens the top-level AND tree of the predicate.
func conjuncts(ex Expr, out []Expr) []Expr {
	if b, ok := ex.(*Binary); ok && b.Op == OpAnd {
		out = conjuncts(b.L, out)
		return conjuncts(b.R, out)
	}
	return append(out, ex)
}

// sargs pulls the index-usable comparisons out of the predicate, each with
// its path's binding (binds, per slot); one whose path is not bound is
// dropped.
func (p *Plan) sargs(binds []schema.PathBinding) []estSarg {
	var out []estSarg
	for _, c := range conjuncts(p.Query.Where, nil) {
		b, ok := c.(*Binary)
		if !ok {
			continue
		}
		switch b.Op {
		case OpEq, OpLt, OpLe, OpGt, OpGe, OpContains:
		default:
			continue
		}
		pe, pok := b.L.(*PathExpr)
		lit, lok := b.R.(*Lit)
		op := b.Op
		if !pok || !lok {
			// literal op path: flip.
			if pe2, ok2 := b.R.(*PathExpr); ok2 {
				if lit2, ok3 := b.L.(*Lit); ok3 {
					pe, lit, pok, lok = pe2, lit2, true, true
					op = flip(op)
				}
			}
		}
		if !pok || !lok || lit.V.IsNull() {
			continue
		}
		// CONTAINS probes the same key space as equality (set members are
		// indexed individually).
		if op == OpContains {
			op = OpEq
		}
		slot := slices.IndexFunc(p.prog.paths, func(steps []string) bool { return slices.Equal(steps, pe.Path.Steps) })
		if slot >= 0 && binds[slot].Classes != nil {
			out = append(out, estSarg{s: sarg{path: pe.Path, op: op, lit: lit.V}, b: &binds[slot]})
		}
	}
	return out
}

func flip(op BinOp) BinOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return op
	}
}

// candidate is one usable access path: the index (or per-class union of
// SC indexes) on one attribute path, probed over the interval its sargs
// admit.
type candidate struct {
	indexes []*index.Index
	union   bool
	steps   []string            // the sargs' path
	bind    *schema.PathBinding // steps bound over the plan's scope
	eq      bool                // some sarg is an equality
	iv      index.Interval
	ordered bool      // the walk yields ORDER BY order (see orderFromIndex)
	sargs   []estSarg // the conjuncts iv stands for
}

func (c *candidate) kind() accessKind {
	switch {
	case c.union && c.eq:
		return accessUnionEq
	case c.union:
		return accessUnionRng
	case c.eq:
		return accessIndexEq
	default:
		return accessIndexRng
	}
}

// narrow intersects the candidate's interval with one sarg. A strict bound
// stays inclusive at the key level when the literal's key is shared by
// neighbouring values: the index narrows, the residual decides.
func (c *candidate) narrow(es estSarg) {
	switch s := es.s; s.op {
	case OpEq:
		c.iv.NarrowLo(s.lit, true)
		c.iv.NarrowHi(s.lit, true)
		c.eq = true
	case OpGt, OpGe:
		c.iv.NarrowLo(s.lit, s.op == OpGe || !model.KeyExact(s.lit))
	case OpLt, OpLe:
		c.iv.NarrowHi(s.lit, s.op == OpLe || !model.KeyExact(s.lit))
	}
	c.sargs = append(c.sargs, es)
}

// chooseIndex picks the cheapest usable access path. Every sarg on one
// attribute path folds into a single interval (tightest lower and upper
// bound; an equality collapses it to a point; contradictory bounds leave it
// empty and the probe visits nothing). The fold is sound only when no step
// of the path is set-valued — comparison over a set is existential, so
// {3,20} satisfies `v >= 5 AND v < 10` with no member in [5,10) — and a
// set-valued path therefore keeps one candidate per sarg. The whole WHERE
// stays the residual either way.
//
// With statistics over the whole scope (collected by internal/maint) the
// choice is cost-based: each candidate is charged the postings it expects
// to examine times a random-fetch penalty — its interval's rows, or only
// as many as fill LIMIT when the index also supplies the order — a heap
// scan is charged the scope cardinality, and the cheapest wins, so an
// unselective predicate keeps the scan even when an index exists. Without
// statistics the heuristic ranking applies: equality beats range, one index
// beats a per-class union, and any index beats a heap scan. Either way the
// system — not the application — chooses among access methods (Kim §2.2).
// est is nil without statistics over the whole scope.
func (e *Engine) chooseIndex(p *Plan, sargs []estSarg, est *estimator) {
	var cands []*candidate
sargs:
	for _, es := range sargs {
		for _, c := range cands {
			if c.bind.Single && slices.Equal(c.steps, es.s.path.Steps) {
				c.narrow(es)
				continue sargs
			}
		}
		indexes, union := e.findIndexes(p, es.b)
		if indexes == nil {
			continue
		}
		c := &candidate{indexes: indexes, union: union, steps: es.s.path.Steps, bind: es.b}
		c.ordered = orderFromIndex(p.Query, c)
		c.narrow(es)
		cands = append(cands, c)
	}
	// An index has no key for an absent value, which reads as its class's
	// default: the interval stands for the matches only when a sarg rejects
	// every scope class's default.
	cands = slices.DeleteFunc(cands, func(c *candidate) bool {
		return slices.ContainsFunc(c.bind.Classes, func(cb schema.ClassBinding) bool {
			return !slices.ContainsFunc(c.sargs, func(es estSarg) bool { return !compareOp(es.s.op, &cb.Def, &es.s.lit) })
		})
	})
	if len(cands) == 0 {
		return
	}
	var best *candidate
	if est != nil {
		if !slices.ContainsFunc(cands, func(c *candidate) bool { return len(c.steps) != 1 }) {
			// Cost-based: cheapest candidate vs. the full scan.
			limit := float64(p.Query.Limit)
			var matches float64 // rows passing the whole WHERE; only LIMIT needs it
			if limit > 0 {
				matches = est.predicateRows(estimable(sargs))
			}
			var bestCost float64
			for _, c := range cands {
				cost := est.predicateRows(c.sargs)
				if c.ordered && matches > limit {
					// The walk stops once LIMIT rows passed the residual.
					cost *= limit / matches
				}
				if best == nil || cost < bestCost || (cost == bestCost && c.kind() < best.kind()) {
					best, bestCost = c, cost
				}
			}
			if bestCost*probeCostFactor >= est.totalCard() {
				return // the predicate is not selective enough: scan wins
			}
		}
	}
	if best == nil {
		// Heuristic ranking (no or partial statistics).
		for _, c := range cands {
			if best == nil || c.kind() < best.kind() {
				best = c
			}
		}
	}
	p.kind, p.indexes, p.iv, p.ordered = best.kind(), best.indexes, best.iv, best.ordered
}

// orderFromIndex is the plan-time half of the order-from-index rule: one
// index (a union of per-class indexes would need a merge), walked in key
// order, yields rows in `ORDER BY path` order when the ordering is
// ascending on exactly the indexed path (in a class, a name names one
// attribute) and every instance has at most one key on it. Ties come out
// in OID order, which is what the stable sort over the same walk produces.
// The run-time half is the index walk's (DESIGN §4 "The index walk"). It
// can only vouch for the scope classes, and a nested-path index is re-keyed
// by writes to interior classes outside the scope, so only a one-step path
// qualifies.
func orderFromIndex(q *Query, c *candidate) bool {
	return q.OrderBy != nil && !q.Desc && !c.union && c.bind.Single &&
		len(c.steps) == 1 && slices.Equal(q.OrderBy.Steps, c.steps)
}

// findIndexes returns the indexes a probe of b's path reads over the plan's
// scope. When every scope class reads the same attributes along the path,
// that is one index on them that covers the scope: a class-hierarchy index
// rooted at or above the target, or the SC index of a one-class scope.
// Otherwise, or failing that, it is a union of one SC index per scope
// class on the attributes that class's instances read — the
// one-index-per-class organization the CH-index is measured against (E1).
// It returns nil when neither exists.
func (e *Engine) findIndexes(p *Plan, b *schema.PathBinding) (indexes []*index.Index, union bool) {
	all := e.db.Indexes.All()
	if b.Uniform {
		for _, idx := range all {
			if !slices.Equal(idx.Path, b.Classes[0].Attrs) {
				continue
			}
			if idx.Hierarchy && e.db.Catalog.IsSubclassOf(p.Target.ID, idx.Class) ||
				!idx.Hierarchy && len(p.Scope) == 1 && p.Scope[0] == idx.Class {
				return []*index.Index{idx}, false
			}
		}
	}
	indexes = make([]*index.Index, len(p.Scope))
	for i, class := range p.Scope {
		for _, idx := range all {
			if !idx.Hierarchy && idx.Class == class && slices.Equal(idx.Path, b.Classes[i].Attrs) {
				indexes[i] = idx
				break
			}
		}
		if !b.Classes[i].Exact || indexes[i] == nil {
			return nil, false
		}
	}
	return indexes, true
}
