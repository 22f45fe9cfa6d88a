package query

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/obs"
)

// Row is one result object with its projected values.
type Row struct {
	OID    model.OID
	Object *model.Object
	Values []model.Value // aligned with Result.Cols
}

// Result is a completed query.
type Result struct {
	Cols []string
	Rows []Row
}

// Run parses, plans and executes src inside tx.
func (e *Engine) Run(tx *core.Tx, src string) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	plan, err := e.PlanQuery(q)
	if err != nil {
		return nil, err
	}
	return e.Execute(tx, plan)
}

// Explain parses and plans src, returning the plan description.
func (e *Engine) Explain(src string) (string, error) {
	q, err := Parse(src)
	if err != nil {
		return "", err
	}
	plan, err := e.PlanQuery(q)
	if err != nil {
		return "", err
	}
	return plan.String(), nil
}

// Execute runs a compiled plan inside tx. The scope classes are locked
// shared for the duration of the transaction (strict 2PL).
func (e *Engine) Execute(tx *core.Tx, p *Plan) (*Result, error) {
	return e.execute(tx, p, nil)
}

// execute is Execute with an optional trace span: ExplainAnalyze passes a
// root span and every stage hangs per-stage child spans (with row and
// probe counters) off it; the normal path passes nil, which every span
// method treats as a no-op.
//
// Under a snapshot transaction (core.BeginSnapshot) the same pipeline
// runs lock-free: LockClassScan is a no-op, scans and probes resolve
// visibility by the pinned commit epoch, and path dereferences read the
// snapshot-visible version of every object they cross.
func (e *Engine) execute(tx *core.Tx, p *Plan, span *obs.Span) (*Result, error) {
	mQueriesTotal.Add(1)
	if err := tx.LockClassScan(p.Scope); err != nil {
		return nil, err
	}

	var rows []Row
	var ordered bool // rows already arrived in ORDER BY order
	var err error
	if p.kind == accessScan {
		rows, err = e.scanRows(tx, p, span)
	} else {
		rows, ordered, err = e.probeRows(tx, p, span, p.ordered)
	}
	if err != nil {
		return nil, err
	}

	// ORDER BY.
	if ordered {
		span.Set("sort_skipped", 1)
	} else if p.Query.OrderBy != nil {
		sortSpan := span.Child("sort")
		sortSpan.Set("rows_in", int64(len(rows)))
		keys := make([]model.Value, len(rows))
		for i := range rows {
			v, err := e.evalPath(tx, rows[i].Object, p.Query.OrderBy.Steps)
			if err != nil {
				sortSpan.End()
				return nil, err
			}
			keys[i] = v
		}
		// Sort rows and keys together through an index permutation.
		idxs := make([]int, len(rows))
		for i := range idxs {
			idxs[i] = i
		}
		sort.SliceStable(idxs, func(a, b int) bool {
			c := model.Compare(keys[idxs[a]], keys[idxs[b]])
			if p.Query.Desc {
				return c > 0
			}
			return c < 0
		})
		sorted := make([]Row, len(rows))
		for i, j := range idxs {
			sorted[i] = rows[j]
		}
		rows = sorted
		sortSpan.End()
	}
	if p.Query.Limit > 0 && len(rows) > p.Query.Limit {
		rows = rows[:p.Query.Limit]
	}

	// Aggregates collapse the result to a single row.
	if len(p.Query.Aggregates) > 0 {
		aggSpan := span.Child("aggregate")
		aggSpan.Set("rows_in", int64(len(rows)))
		res, err := e.aggregate(tx, p, rows)
		aggSpan.End()
		return res, err
	}

	projSpan := span.Child("project")
	projSpan.Set("rows_out", int64(len(rows)))
	defer projSpan.End()

	// Projection. One backing array serves every row's Values slice: the
	// result set is assembled and consumed together, so per-row slices
	// would only fragment the heap.
	res := &Result{}
	if len(p.Query.Select) == 0 {
		res.Cols = []string{"oid"}
		backing := make([]model.Value, len(rows))
		for i := range rows {
			backing[i] = model.Ref(rows[i].OID)
			rows[i].Values = backing[i : i+1 : i+1]
		}
	} else {
		for _, path := range p.Query.Select {
			res.Cols = append(res.Cols, path.String())
		}
		w := len(p.Query.Select)
		backing := make([]model.Value, len(rows)*w)
		for i := range rows {
			vals := backing[i*w : (i+1)*w : (i+1)*w]
			for j, path := range p.Query.Select {
				v, err := e.evalPath(tx, rows[i].Object, path.Steps)
				if err != nil {
					return nil, err
				}
				vals[j] = v
			}
			rows[i].Values = vals
		}
	}
	res.Rows = rows
	return res, nil
}

// earlyLimit returns the row count past which collection may stop, or 0
// when every match is needed (no LIMIT, or an ORDER BY that must sort all
// matches). ordered says the rows are collected in ORDER BY order already.
func earlyLimit(p *Plan, ordered bool) int {
	if p.Query.OrderBy == nil || ordered {
		return p.Query.Limit
	}
	return 0
}

// matches evaluates the residual predicate against one candidate.
func (e *Engine) matches(tx *core.Tx, p *Plan, obj *model.Object) (bool, error) {
	if p.Query.Where == nil {
		return true, nil
	}
	return e.evalBool(tx, p.Query.Where, obj)
}

// deref resolves an interior reference for path evaluation. Snapshot
// transactions read the version visible at their pinned epoch — a path
// that crosses an object mid-overwrite must not observe the writer's
// uncommitted bytes. Locked transactions read the heap directly; their
// scope S locks already make that stable.
func (e *Engine) deref(tx *core.Tx, oid model.OID) (*model.Object, error) {
	if tx != nil && tx.Snapshot() {
		return tx.Fetch(oid)
	}
	return e.db.FetchObject(oid)
}

// scanRows collects the matching rows of a heap-scan plan. A scope of more
// than one class fans out one goroutine per class (bounded by GOMAXPROCS):
// Kim's query model evaluates a hierarchy-scoped query as independent
// per-class scans, and the scope's S locks are already held, so the scans
// share nothing but the storage layer. Per-class results are concatenated
// in scope order, which makes the output identical to a sequential pass.
func (e *Engine) scanRows(tx *core.Tx, p *Plan, span *obs.Span) ([]Row, error) {
	limit := earlyLimit(p, false)
	if e.SerialScan || len(p.Scope) == 1 {
		var rows []Row
		for _, class := range p.Scope {
			cs := span.Child("scan " + e.className(class))
			var scanned, matched uint64
			var ierr error
			err := tx.ScanLocked(class, func(obj *model.Object) bool {
				scanned++
				ok, merr := e.matches(tx, p, obj)
				if merr != nil {
					ierr = merr
					return false
				}
				if ok {
					matched++
					rows = append(rows, Row{OID: obj.OID, Object: obj})
				}
				return limit == 0 || len(rows) < limit
			})
			mRowsScanned.Add(scanned)
			mRowsMatched.Add(matched)
			cs.Set("rows_scanned", int64(scanned))
			cs.Set("rows_matched", int64(matched))
			cs.End()
			if err != nil {
				return nil, err
			}
			if ierr != nil {
				return nil, ierr
			}
			if limit > 0 && len(rows) >= limit {
				mEarlyExits.Add(1)
				span.Set("limit_early_exit", 1)
				break
			}
		}
		return rows, nil
	}

	mFanoutWidth.Observe(uint64(len(p.Scope)))
	span.Set("fanout_width", int64(len(p.Scope)))
	perClass := make([][]Row, len(p.Scope))
	errs := make([]error, len(p.Scope))
	// full is the smallest scope index whose class alone satisfied the
	// limit: classes after it cannot contribute to the result, so their
	// scans stop early.
	var full atomic.Int64
	full.Store(int64(len(p.Scope)))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, class := range p.Scope {
		wg.Add(1)
		go func(i int, class model.ClassID) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if int64(i) > full.Load() {
				return
			}
			cs := span.Child("scan " + e.className(class))
			defer cs.End()
			var scanned, matched uint64
			var mine []Row
			var ierr error
			errs[i] = tx.ScanLocked(class, func(obj *model.Object) bool {
				if int64(i) > full.Load() {
					return false
				}
				scanned++
				ok, merr := e.matches(tx, p, obj)
				if merr != nil {
					ierr = merr
					return false
				}
				if ok {
					matched++
					mine = append(mine, Row{OID: obj.OID, Object: obj})
					if limit > 0 && len(mine) >= limit {
						for {
							cur := full.Load()
							if int64(i) >= cur || full.CompareAndSwap(cur, int64(i)) {
								break
							}
						}
						mEarlyExits.Add(1)
						return false
					}
				}
				return true
			})
			mRowsScanned.Add(scanned)
			mRowsMatched.Add(matched)
			cs.Set("rows_scanned", int64(scanned))
			cs.Set("rows_matched", int64(matched))
			if errs[i] == nil {
				errs[i] = ierr
			}
			perClass[i] = mine
		}(i, class)
	}
	wg.Wait()
	var rows []Row
	for i := range p.Scope {
		if errs[i] != nil {
			return nil, errs[i]
		}
		rows = append(rows, perClass[i]...)
		if limit > 0 && len(rows) >= limit {
			rows = rows[:limit]
			break
		}
	}
	return rows, nil
}

// probeRows collects the matching rows of an index plan. Each index's
// postings are walked and filtered incrementally — the walk stops as soon
// as LIMIT rows matched when no ORDER BY needs all of them, instead of
// materializing every candidate OID and truncating afterwards (the same
// early exit the heap-scan path has).
//
// ordered asks for the order-from-index walk (Plan.ordered): one index,
// walked in key order, already yields `ORDER BY path` order, so LIMIT ends
// the walk too and the caller skips the sort. That holds only while the
// index describes the transaction's view and key order is Compare order.
// When either fails — a matched row's key is inexact (model.KeyExact), or a
// snapshot's overlay is non-empty before or after the walk — probeRows
// downgrades in place: it reports false and collects every match for the
// sort instead.
//
// Snapshot transactions probe the same live index but resolve every
// candidate through the pinned epoch, then sweep the version-chain
// overlay for the scope classes: a commit after the snapshot began may
// have moved an object to a new key (its old posting is gone) or deleted
// it outright, and any such object by construction has a chain — recorded
// before the index moves, which is why the overlay is read after the walk.
// The full WHERE re-evaluation in matches keeps stale postings out on both
// paths.
func (e *Engine) probeRows(tx *core.Tx, p *Plan, span *obs.Span, ordered bool) ([]Row, bool, error) {
	scopeSet := make(map[model.ClassID]bool, len(p.Scope))
	for _, c := range p.Scope {
		scopeSet[c] = true
	}
	// overlays reads the snapshot overlay of every scope class (all nil for
	// a locked transaction, whose S locks freeze the scope's postings).
	overlays := func() ([][]model.OID, bool) {
		out, moved := make([][]model.OID, len(p.Scope)), false
		for i, class := range p.Scope {
			out[i] = tx.SnapshotOverlayOIDs(class)
			moved = moved || len(out[i]) > 0
		}
		return out, moved
	}
	if ordered {
		// The index has already moved under this snapshot: where overlay
		// rows sort is unknown, so do not start an ordered walk at all.
		if _, moved := overlays(); moved {
			ordered = false
		}
	}
	limit := earlyLimit(p, ordered)
	var rows []Row
	seen := make(map[model.OID]bool)
	full := false

	// collect filters one candidate OID into rows and reports whether the
	// walk goes on (limit not yet satisfied, no evaluation error).
	var examined, matched uint64
	var cerr error
	collect := func(oid model.OID) bool {
		if seen[oid] {
			return true
		}
		seen[oid] = true
		examined++
		obj, err := e.deref(tx, oid)
		if err != nil {
			return true // dangling entry or invisible at this snapshot
		}
		if !scopeSet[obj.Class()] {
			return true
		}
		ok, err := e.matches(tx, p, obj)
		if err != nil {
			cerr = err
			return false
		}
		if !ok {
			return true
		}
		if ordered {
			v, err := e.evalPath(tx, obj, p.Query.OrderBy.Steps)
			if err != nil {
				cerr = err
				return false
			}
			if !model.KeyExact(v) {
				// Nothing was skipped so far; collect the rest and sort.
				ordered, limit = false, earlyLimit(p, false)
			}
		}
		matched++
		rows = append(rows, Row{OID: obj.OID, Object: obj})
		full = limit > 0 && len(rows) >= limit
		return !full
	}
	// sweep runs one candidate source — an index walk or a class's overlay
	// — through collect under its own span, so the dedup map and the limit
	// accounting are shared.
	sweep := func(name string, walk func(visit func(model.OID) bool)) error {
		s := span.Child(name)
		examined, matched = 0, 0
		walk(collect)
		mRowsScanned.Add(examined)
		mRowsMatched.Add(matched)
		s.Set("rows_examined", int64(examined))
		s.Set("rows_matched", int64(matched))
		s.End()
		return cerr
	}
	// probe walks the plan's indexes; resume marks the second walk of a
	// downgraded ordered plan, which is not another probe in the counters.
	probe := func(resume bool) error {
		for _, idx := range p.indexes {
			if full {
				break
			}
			name := "probe " + idx.Name
			if resume {
				name = "resume " + idx.Name
			} else {
				mIndexProbes.Add(1)
			}
			err := sweep(name, func(visit func(model.OID) bool) {
				idx.Scan(p.iv, scopeSet, visit)
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := probe(false); err != nil {
		return nil, false, err
	}

	// Overlay sweep (snapshot mode only). An ordered walk reads the overlay
	// even when LIMIT already stopped it.
	if ordered || !full {
		overlay, moved := overlays()
		if ordered && moved {
			// A commit landed during the walk. Every posting up to the stop
			// was examined, so the rows so far stand; if LIMIT cut the walk
			// short, pick up the rest (seen skips what was already judged).
			ordered, limit = false, earlyLimit(p, false)
			if full {
				full = false
				if err := probe(true); err != nil {
					return nil, false, err
				}
			}
		}
		for i, class := range p.Scope {
			if full {
				break
			}
			if len(overlay[i]) == 0 {
				continue
			}
			err := sweep("overlay "+e.className(class), func(visit func(model.OID) bool) {
				for _, oid := range overlay[i] {
					if !visit(oid) {
						return
					}
				}
			})
			if err != nil {
				return nil, false, err
			}
		}
	}
	if full {
		mEarlyExits.Add(1)
		span.Set("limit_early_exit", 1)
	}
	return rows, ordered, nil
}

// aggregate computes the aggregate select list over the matched rows.
// COUNT(*) counts rows; per-path aggregates skip nulls; set values
// contribute each member. SUM and AVG require numeric inputs.
func (e *Engine) aggregate(tx *core.Tx, p *Plan, rows []Row) (*Result, error) {
	res := &Result{}
	vals := make([]model.Value, len(p.Query.Aggregates))
	for i, agg := range p.Query.Aggregates {
		res.Cols = append(res.Cols, agg.String())
		if agg.Path == nil { // COUNT(*)
			vals[i] = model.Int(int64(len(rows)))
			continue
		}
		var count int64
		var sum float64
		var allInt = true
		var best model.Value
		for _, row := range rows {
			v, err := e.evalPath(tx, row.Object, agg.Path.Steps)
			if err != nil {
				return nil, err
			}
			members := []model.Value{v}
			if set, ok := v.AsSet(); ok {
				members = set
			}
			for _, m := range members {
				if m.IsNull() {
					continue
				}
				count++
				switch agg.Func {
				case AggSum, AggAvg:
					f, ok := m.AsFloat()
					if !ok {
						return nil, fmt.Errorf("query: %s over non-numeric value %s", agg.Func, m)
					}
					if m.Kind() != model.KindInt {
						allInt = false
					}
					sum += f
				case AggMin:
					if best.IsNull() || model.Compare(m, best) < 0 {
						best = m
					}
				case AggMax:
					if best.IsNull() || model.Compare(m, best) > 0 {
						best = m
					}
				}
			}
		}
		switch agg.Func {
		case AggCount:
			vals[i] = model.Int(count)
		case AggSum:
			if allInt {
				vals[i] = model.Int(int64(sum))
			} else {
				vals[i] = model.Float(sum)
			}
		case AggAvg:
			if count == 0 {
				vals[i] = model.Null
			} else {
				vals[i] = model.Float(sum / float64(count))
			}
		case AggMin, AggMax:
			vals[i] = best
		}
	}
	res.Rows = []Row{{Values: vals}}
	return res, nil
}

// evalBool evaluates a predicate against one candidate object.
func (e *Engine) evalBool(tx *core.Tx, ex Expr, obj *model.Object) (bool, error) {
	switch n := ex.(type) {
	case *Binary:
		switch n.Op {
		case OpAnd:
			l, err := e.evalBool(tx, n.L, obj)
			if err != nil || !l {
				return false, err
			}
			return e.evalBool(tx, n.R, obj)
		case OpOr:
			l, err := e.evalBool(tx, n.L, obj)
			if err != nil || l {
				return l, err
			}
			return e.evalBool(tx, n.R, obj)
		case OpIn:
			lv, err := e.evalValue(tx, n.L, obj)
			if err != nil {
				return false, err
			}
			list, ok := n.R.(*List)
			if !ok {
				return false, fmt.Errorf("query: IN requires a literal list")
			}
			for _, item := range list.Items {
				if existsEqual(lv, item) {
					return true, nil
				}
			}
			return false, nil
		case OpContains:
			lv, err := e.evalValue(tx, n.L, obj)
			if err != nil {
				return false, err
			}
			rv, err := e.evalValue(tx, n.R, obj)
			if err != nil {
				return false, err
			}
			return lv.Contains(rv), nil
		default:
			lv, err := e.evalValue(tx, n.L, obj)
			if err != nil {
				return false, err
			}
			rv, err := e.evalValue(tx, n.R, obj)
			if err != nil {
				return false, err
			}
			return compareOp(n.Op, lv, rv), nil
		}
	case *Not:
		v, err := e.evalBool(tx, n.E, obj)
		return !v, err
	case *PathExpr:
		v, err := e.evalValue(tx, n, obj)
		if err != nil {
			return false, err
		}
		b, _ := v.AsBool()
		return b, nil
	case *Lit:
		b, _ := n.V.AsBool()
		return b, nil
	default:
		return false, fmt.Errorf("query: cannot evaluate %T as boolean", ex)
	}
}

// compareOp applies a comparison with SQL-style null semantics: ordering
// comparisons with null are false; equality treats null = null as true
// (needed for `path = null` existence tests). Multi-valued operands
// (set-valued attributes, paths through set-valued references) compare
// existentially.
func compareOp(op BinOp, l, r model.Value) bool {
	if lm, ok := l.AsSet(); ok && r.Kind() != model.KindSet {
		for _, m := range lm {
			if compareOp(op, m, r) {
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

// existsEqual is existential equality for IN.
func existsEqual(l, r model.Value) bool { return compareOp(OpEq, l, r) }

// evalValue evaluates an operand expression to a value.
func (e *Engine) evalValue(tx *core.Tx, ex Expr, obj *model.Object) (model.Value, error) {
	switch n := ex.(type) {
	case *Lit:
		return n.V, nil
	case *PathExpr:
		return e.evalPath(tx, obj, n.Path.Steps)
	default:
		return model.Null, fmt.Errorf("query: cannot evaluate %T as value", ex)
	}
}

// evalPath walks a path from obj: each step reads an attribute (stored
// value or class default) or invokes a method as a derived attribute.
// Interior references are dereferenced; set-valued steps fan out and the
// result is the set of terminal values (existential comparison semantics).
// A null or dangling step yields null.
func (e *Engine) evalPath(tx *core.Tx, obj *model.Object, steps []string) (model.Value, error) {
	// Single-step fast path: the common `WHERE attr op k` shape. Scans
	// evaluate this once per object, so the general walk below (two slice
	// allocations per call) turns hot loops GC-bound.
	if len(steps) == 1 {
		v, err := e.stepValue(obj, steps[0])
		if err != nil {
			return model.Null, err
		}
		if members, ok := v.AsSet(); ok {
			// Match the general walk: flatten, so a singleton set yields
			// its member and an empty set yields null.
			switch len(members) {
			case 0:
				return model.Null, nil
			case 1:
				return members[0], nil
			}
		}
		return v, nil
	}
	cur := []*model.Object{obj}
	for i, step := range steps {
		last := i == len(steps)-1
		var vals []model.Value
		for _, o := range cur {
			v, err := e.stepValue(o, step)
			if err != nil {
				return model.Null, err
			}
			if v.IsNull() {
				continue
			}
			if members, ok := v.AsSet(); ok {
				vals = append(vals, members...)
			} else {
				vals = append(vals, v)
			}
		}
		if last {
			switch len(vals) {
			case 0:
				return model.Null, nil
			case 1:
				return vals[0], nil
			default:
				return model.Set(vals...), nil
			}
		}
		// Interior: dereference references.
		next := cur[:0:0]
		for _, v := range vals {
			oid, ok := v.AsRef()
			if !ok {
				continue // non-reference interior value dead-ends
			}
			o, err := e.deref(tx, oid)
			if err != nil {
				continue // dangling reference dead-ends
			}
			next = append(next, o)
		}
		cur = next
		if len(cur) == 0 {
			return model.Null, nil
		}
	}
	return model.Null, nil
}

// stepValue resolves one path step on one object: attribute first, then
// method (late-bound, no arguments).
func (e *Engine) stepValue(o *model.Object, step string) (model.Value, error) {
	if a, err := e.db.Catalog.ResolveAttr(o.Class(), step); err == nil {
		if v, ok := o.Lookup(a.ID); ok {
			return v, nil
		}
		return a.Default, nil
	}
	if m, err := e.db.Catalog.ResolveMethod(o.Class(), step); err == nil {
		if m.Impl == nil {
			return model.Null, fmt.Errorf("query: method %q has no registered implementation", step)
		}
		return m.Impl(e.db, o, nil)
	}
	return model.Null, fmt.Errorf("query: %s has no attribute or method %q", e.className(o.Class()), step)
}
