package query

import (
	"bytes"
	"math"
	"slices"

	"oodb/internal/core"
	"oodb/internal/index"
	"oodb/internal/model"
	"oodb/internal/obs"
	"oodb/internal/schema"
)

// A covered statement is answered from the index on the one attribute it
// reads, without reading a record (DESIGN §4 "Covered statements"). A
// class-hierarchy index's postings carry the class inside each OID, so any
// sub-scope of the hierarchy is read from the index alone; the instances
// the index holds no key for are the ones whose attribute is null, and the
// index counts those per class.

// covered returns the index that answers p from its keys and the key
// interval the statement's matches lie in — the plan's interval, or the
// whole key range under a heap-scan plan — or nil when a precondition
// fails. The statement is an aggregate that streams (no ORDER BY, no
// LIMIT), or a row statement that selects only the slot, orders by it
// ascending and whose WHERE clause rejects null (the index holds no OID for
// a null value). It reads at most one slot, a one-step path; in every scope
// class that step is the same single-valued Integer attribute with a null
// default; one index on it covers the scope; and ForceScan is off. A
// statement that reads no slot — COUNT(*) with no WHERE — counts from any
// attribute that qualifies.
func (e *Engine) covered(p *Plan) (*index.Index, index.Interval) {
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
	var names []string
	if len(prog.paths) == 1 {
		names = prog.paths[0]
	} else {
		attrs, _ := e.db.Catalog.EffectiveAttrs(p.Target.ID)
		for _, a := range attrs {
			names = append(names, a.Name)
		}
	}
	for _, name := range names {
		idx := e.intIndex(p, name)
		switch {
		case idx == nil:
		case p.kind == accessScan:
			return idx, index.Interval{}
		case p.indexes[0] == idx:
			return idx, p.iv
		}
	}
	return nil, index.Interval{}
}

// intIndex returns the index that covers p's scope on the attribute name
// names, when in every scope class that is the same single-valued Integer
// attribute with a null default; else nil.
func (e *Engine) intIndex(p *Plan, name string) *index.Index {
	var attr model.AttrID
	for i, class := range p.Scope {
		a, err := e.db.Catalog.ResolveAttr(class, name)
		if err != nil || a.SetValued || a.Domain != schema.ClassInteger || !a.Default.IsNull() || (i > 0 && a.ID != attr) {
			return nil
		}
		attr = a.ID
	}
	return e.findCoveringIndex(p, []model.AttrID{attr})
}

// matchesNull reports whether prog's WHERE clause may hold on a candidate
// whose slots are null.
func matchesNull(prog *Program) bool {
	ok, err := prog.NewFrame(func(int) (model.Value, error) { return model.Null, nil }).Match()
	return ok || err != nil
}

// maxExact is the largest magnitude of an integer whose key is exact
// (model.KeyExact).
const maxExact = 1<<53 - 1

// cut returns where the pieces of the integer line start, ascending, cut at
// the numeric literals of where: the integers of one piece compare alike
// with every literal, so a WHERE clause that compares one Integer slot with
// literals only (the AST has no arithmetic) has one truth value on each
// piece. A literal of another kind compares alike with every integer
// (model.Compare orders kinds first), and so does one of magnitude 2^53 or
// more with every integer an exact key holds: neither cuts. The first piece
// starts at math.MinInt64, which stands for -inf.
func cut(where Expr) []int64 {
	starts := []int64{math.MinInt64}
	var lit func(v model.Value)
	lit = func(v model.Value) {
		if members, ok := v.AsSet(); ok {
			for _, m := range members {
				lit(m)
			}
			return
		}
		f, ok := v.AsFloat()
		switch {
		case !ok || math.IsNaN(f) || math.Abs(f) > maxExact:
		case v.Kind() == model.KindInt || f == math.Trunc(f):
			starts = append(starts, int64(f), int64(f)+1) // < f, = f, > f
		default:
			starts = append(starts, int64(math.Floor(f))+1)
		}
	}
	var walk func(Expr)
	walk = func(ex Expr) {
		switch ex := ex.(type) {
		case *Binary:
			walk(ex.L)
			walk(ex.R)
		case *Not:
			walk(ex.E)
		case *Lit:
			lit(ex.V)
		case *List:
			for _, v := range ex.Items {
				lit(v)
			}
		}
	}
	walk(where)
	slices.Sort(starts)
	return slices.Compact(starts)
}

// keyRange is the interval of keys of the integers lo..hi, where
// math.MinInt64 and math.MaxInt64 stand for an open side.
func keyRange(lo, hi int64) index.Interval {
	var iv index.Interval
	if lo != math.MinInt64 {
		iv.Lo, iv.LoInc = model.Int(lo), true
	}
	if hi != math.MaxInt64 {
		iv.Hi, iv.HiInc = model.Int(hi), true
	}
	return iv
}

// giveUp records that a covered statement fell back to its ordinary path.
func giveUp(s *obs.Span, reason string) {
	mFoldFallbacks.Add(1)
	s.Set("fallback_"+reason, 1)
}

// foldAggregates answers p's aggregates from idx without reading a record.
// It cuts the integer line at the WHERE clause's literals (cut), runs the
// program once per piece on the piece's integer nearest zero, and reads the
// matching pieces, merged where adjacent, from the tree's node summaries:
// their posting count and integer sum, and for MIN and MAX the first and
// the last scope key (Index.Edge). The scope's unkeyed instances are added
// as nulls when the predicate matches null. It returns nil accumulators
// when it gives up — iv or a matching piece holds a key that is not exact
// (model.KeyExact), the matches' Σ|v| reaches 2^63 so that some order of
// adding would leave int64, or a snapshot's scope overlay is non-empty
// before or after the read — and the caller runs the statement's ordinary
// path instead.
func (e *Engine) foldAggregates(tx *core.Tx, p *Plan, idx *index.Index, iv index.Interval, span *obs.Span) ([]Accumulator, uint64, error) {
	s := span.Child("index-agg " + idx.Name)
	defer s.End()
	if overlayMoved(tx, p.Scope) {
		giveUp(s, "snapshot_overlay")
		return nil, 0, nil
	}
	var seen index.Visits
	if idx.Summarize(iv, p.Scope, &seen).Inexact > 0 {
		giveUp(s, "inexact_key")
		return nil, 0, nil
	}
	var v model.Value
	f := p.prog.NewFrame(func(int) (model.Value, error) { return v, nil })
	match := func(x model.Value) (bool, error) {
		v = x
		f.Reset()
		return f.Match()
	}
	// runs are the matching pieces, adjacent ones merged, as integer bounds.
	type run struct{ lo, hi int64 }
	var runs []run
	starts := cut(p.Query.Where)
	extend := false
	for i, lo := range starts {
		hi := int64(math.MaxInt64)
		if i+1 < len(starts) {
			hi = starts[i+1] - 1
		}
		rep := min(max(lo, 0), hi) // the piece's integer nearest zero
		ok, err := match(model.Int(rep))
		switch {
		case err != nil:
			return nil, 0, err
		case ok && extend:
			runs[len(runs)-1].hi = hi
		case ok:
			runs = append(runs, run{lo, hi})
		}
		extend = ok
	}
	var sum index.Summary
	for _, r := range runs {
		sum.Add(idx.Summarize(keyRange(r.lo, r.hi), p.Scope, &seen))
	}
	switch {
	case sum.Inexact > 0:
		giveUp(s, "inexact_key")
		return nil, 0, nil
	case !sum.SumExact():
		giveUp(s, "int64_overflow")
		return nil, 0, nil
	}
	least, greatest := model.Null, model.Null
	if sum.N > 0 && slices.ContainsFunc(p.Query.Aggregates, func(a AggItem) bool { return a.Func == AggMin || a.Func == AggMax }) {
		for i := 0; i < len(runs) && least.IsNull(); i++ {
			least, _ = model.DecodeIntKey(idx.Edge(keyRange(runs[i].lo, runs[i].hi), p.Scope, false))
		}
		for i := len(runs) - 1; i >= 0 && greatest.IsNull(); i-- {
			greatest, _ = model.DecodeIntKey(idx.Edge(keyRange(runs[i].lo, runs[i].hi), p.Scope, true))
		}
	}
	aggs := newAccumulators(p.Query)
	for i := range aggs {
		aggs[i].addRun(sum.N, sum.Sum, least, greatest)
	}
	var unkeyed uint64
	if n := idx.Unkeyed(p.Scope); n > 0 {
		ok, err := match(model.Null)
		if err != nil {
			return nil, 0, err
		}
		if ok {
			unkeyed = uint64(n)
			if err := f.accumulate(aggs, int64(n)); err != nil {
				return nil, 0, err
			}
		}
	}
	if overlayMoved(tx, p.Scope) {
		giveUp(s, "snapshot_overlay")
		return nil, 0, nil
	}
	mFolds.Add(1)
	s.Set("pieces", int64(len(starts)))
	s.Set("subtrees_counted", seen.Subtrees)
	s.Set("keys_walked", seen.Keys)
	s.Set("postings_folded", seen.Postings)
	s.Set("unkeyed_folded", int64(unkeyed))
	return aggs, uint64(sum.N) + unkeyed, nil
}

// indexRows answers a covered row statement from idx's (key, posting)
// pairs in iv, which come in key order — the statement's ORDER BY. Each key
// is decoded and the program's predicate runs once on its value; a match
// yields one row per posting of a scope class, carrying its OID and the
// value in every column, and LIMIT ends the walk. Nothing is fetched, so a
// row has no Object. It returns nil when it gives up — a key that is not
// exact, or a snapshot whose scope overlay is non-empty before or after the
// walk — and the caller runs the statement's ordinary path instead.
func (e *Engine) indexRows(tx *core.Tx, p *Plan, idx *index.Index, iv index.Interval, span *obs.Span) (*Result, error) {
	s := span.Child("index-only " + idx.Name)
	defer s.End()
	if overlayMoved(tx, p.Scope) {
		giveUp(s, "snapshot_overlay")
		return nil, nil
	}
	q := p.Query
	scope := make(map[model.ClassID]bool, len(p.Scope))
	for _, c := range p.Scope {
		scope[c] = true
	}
	var v model.Value
	f := p.prog.NewFrame(func(int) (model.Value, error) { return v, nil })
	w, n := len(q.Select), min(q.Limit, 64) // LIMIT bounds the rows; room for a small one
	rows := make([]Row, 0, n)
	vals := make([]model.Value, 0, n*w) // the rows' Values, one after another
	var prev []byte
	var keys, examined int64
	var ok, inexact, full bool
	var err error
	idx.Scan(iv, scope, func(key []byte, oid model.OID) bool {
		examined++
		if !bytes.Equal(key, prev) {
			keys, prev = keys+1, key
			if v, ok = model.DecodeIntKey(key); !ok || !model.KeyExact(v) {
				inexact = true
				return false
			}
			f.Reset()
			if ok, err = f.Match(); err != nil {
				return false
			}
		}
		if ok {
			rows = append(rows, Row{OID: oid})
			for range q.Select {
				vals = append(vals, v)
			}
			full = len(rows) == q.Limit
		}
		return !full
	})
	switch {
	case err != nil:
		return nil, err
	case inexact:
		giveUp(s, "inexact_key")
		return nil, nil
	case overlayMoved(tx, p.Scope):
		giveUp(s, "snapshot_overlay")
		return nil, nil
	}
	mIndexOnly.Add(1)
	mIndexProbes.Add(1)
	mRowsScanned.Add(uint64(examined))
	mRowsMatched.Add(uint64(len(rows)))
	s.Set("keys_walked", keys)
	s.Set("rows_examined", examined)
	s.Set("rows_matched", int64(len(rows)))
	if full {
		mEarlyExits.Add(1)
		span.Set("limit_early_exit", 1)
	}
	res := &Result{Rows: rows}
	for _, path := range q.Select {
		res.Cols = append(res.Cols, path.String())
	}
	for i := range rows {
		rows[i].Values = vals[i*w : (i+1)*w : (i+1)*w]
	}
	return res, nil
}

// overlayMoved reports whether a snapshot transaction's version-chain
// overlay holds an object of a scope class: a commit since the snapshot
// began, or a write still pending, may have moved that object's key, so the
// live index no longer describes the snapshot. Always false for a locked
// transaction, whose scope S locks keep the scope's postings still.
func overlayMoved(tx *core.Tx, scope []model.ClassID) bool {
	for _, class := range scope {
		if len(tx.SnapshotOverlayOIDs(class)) > 0 {
			return true
		}
	}
	return false
}
