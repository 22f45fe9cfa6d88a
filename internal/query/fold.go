package query

import (
	"math"
	"slices"

	"oodb/internal/core"
	"oodb/internal/index"
	"oodb/internal/model"
	"oodb/internal/obs"
)

// cut returns where the pieces of the integer line start, ascending, cut at
// the numeric literals of where: the integers of one piece compare alike
// with every literal, so a WHERE clause that compares one Integer slot with
// literals only (the AST has no arithmetic) has one truth value on each
// piece. A literal of another kind compares alike with every integer
// (model.Compare orders kinds first), and so does one whose key is not
// exact (model.KeyExact) with every integer an exact key holds: neither
// cuts. The first piece starts at math.MinInt64, which stands for -inf.
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
		case !ok || !model.KeyExact(v):
		case v.Kind() == model.KindInt || f == math.Trunc(f):
			starts = append(starts, int64(f), int64(f)+1) // < f, = f, > f
		default:
			starts = append(starts, int64(math.Floor(f))+1)
		}
	}
	var visit func(Expr)
	visit = func(ex Expr) {
		switch ex := ex.(type) {
		case *Binary:
			visit(ex.L)
			visit(ex.R)
		case *Not:
			visit(ex.E)
		case *Lit:
			lit(ex.V)
		case *List:
			for _, v := range ex.Items {
				lit(v)
			}
		}
	}
	visit(where)
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

// foldAggregates answers p's aggregates from its covering index (p.cover,
// over p.coverIV) without reading a record. It cuts the integer line at the WHERE clause's literals (cut), runs the
// program once per piece on the piece's integer nearest zero, and reads the
// matching pieces, merged where adjacent, from the tree's node summaries:
// their posting count and integer sum, and for MIN and MAX the first and
// the last scope key. The scope's unkeyed instances are added as nulls when
// the predicate matches null. It returns nil accumulators when the walk
// gives up, also when the matches' Σ|v| reaches 2^63 (some order of adding
// would leave int64), and the caller runs the statement's ordinary path.
func (e *Engine) foldAggregates(tx *core.Tx, p *Plan, span *obs.Span) ([]Accumulator, uint64, error) {
	w := &walk{tx: tx, p: p, idx: p.cover, span: span}
	var aggs []Accumulator
	var n, unkeyed uint64
	var pieces int
	ok, err := w.cover("index-agg "+p.cover.Name, func() error {
		if w.summarize(p.coverIV); w.reason != "" {
			return nil
		}
		// runs are the matching pieces, adjacent ones merged, as integer bounds.
		type run struct{ lo, hi int64 }
		var runs []run
		starts := cut(p.Query.Where)
		for i, lo := range starts {
			hi := int64(math.MaxInt64)
			if i+1 < len(starts) {
				hi = starts[i+1] - 1
			}
			ok, err := w.match(model.Int(min(max(lo, 0), hi))) // the piece's integer nearest zero
			switch {
			case err != nil:
				return err
			case ok && len(runs) > 0 && runs[len(runs)-1].hi == lo-1:
				runs[len(runs)-1].hi = hi
			case ok:
				runs = append(runs, run{lo, hi})
			}
		}
		var sum index.Summary
		for _, r := range runs {
			sum.Add(w.summarize(keyRange(r.lo, r.hi)))
		}
		if w.reason == "" && !sum.SumExact() {
			w.reason = "int64_overflow"
		}
		if w.reason != "" {
			return nil
		}
		least, greatest := model.Null, model.Null
		if sum.N > 0 && slices.ContainsFunc(p.Query.Aggregates, func(a AggItem) bool { return a.Func == AggMin || a.Func == AggMax }) {
			for i := 0; i < len(runs) && least.IsNull(); i++ {
				least = w.edge(keyRange(runs[i].lo, runs[i].hi), false)
			}
			for i := len(runs) - 1; i >= 0 && greatest.IsNull(); i-- {
				greatest = w.edge(keyRange(runs[i].lo, runs[i].hi), true)
			}
		}
		aggs = newAccumulators(p.Query)
		for i := range aggs {
			aggs[i].addRun(sum.N, sum.Sum, least, greatest)
		}
		if k := w.unkeyed(); k > 0 {
			ok, err := w.match(model.Null)
			if err == nil && ok {
				unkeyed, err = uint64(k), w.frame.accumulate(aggs, int64(k))
			}
			if err != nil {
				return err
			}
		}
		n, pieces = uint64(sum.N)+unkeyed, len(starts)
		return nil
	})
	if !ok || err != nil {
		return nil, 0, err
	}
	mFolds.Add(1)
	w.s.Set("pieces", int64(pieces))
	w.s.Set("subtrees_counted", w.seen.Subtrees)
	w.s.Set("postings_folded", w.seen.Postings)
	w.s.Set("unkeyed_folded", int64(unkeyed))
	return aggs, n, nil
}

// indexRows answers a covered row statement from its covering index's
// (key, posting) pairs in p.coverIV, which come in key order — the statement's ORDER BY. The
// program's predicate runs once per key on its value; a match yields one
// row per posting of a scope class, carrying its OID and the value in every
// column, and LIMIT ends the walk. Nothing is fetched, so a row has no
// Object. It returns nil when the walk gives up.
func (e *Engine) indexRows(tx *core.Tx, p *Plan, span *obs.Span) (*Result, error) {
	w := &walk{tx: tx, p: p, idx: p.cover, span: span, rows: true}
	q := p.Query
	n, m := len(q.Select), min(q.Limit, 64) // LIMIT bounds the rows; room for a small one
	rows := make([]Row, 0, m)
	vals := make([]model.Value, 0, m*n) // the rows' Values, one after another
	full := false
	ok, err := w.cover("index-only "+p.cover.Name, func() error {
		return w.keyRows(p.coverIV, func(oid model.OID) bool {
			rows = append(rows, Row{OID: oid})
			for range q.Select {
				vals = append(vals, w.key)
			}
			full = len(rows) == q.Limit
			return !full
		})
	})
	if !ok || err != nil {
		return nil, err
	}
	mIndexOnly.Add(1)
	mIndexProbes.Add(1)
	if full {
		w.limited()
	}
	res := &Result{Rows: rows}
	for _, path := range q.Select {
		res.Cols = append(res.Cols, path.String())
	}
	for i := range rows {
		rows[i].Values = vals[i*n : (i+1)*n : (i+1)*n]
	}
	return res, nil
}
