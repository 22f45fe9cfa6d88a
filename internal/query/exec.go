package query

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/obs"
)

// Row is one result object with its projected values. A row answered from
// an index alone (a covered statement, DESIGN §4) has no Object.
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

// ErrStalePlan is Execute's refusal of a plan made before a catalog change
// or an index create or drop; RunQuery plans such a statement again.
var ErrStalePlan = errors.New("query: stale plan: the schema or the indexes changed since planning")

// maxPlans caps how many times run plans one statement.
const maxPlans = 4

// Run parses, plans and executes src inside tx.
func (e *Engine) Run(tx *core.Tx, src string) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return e.RunQuery(tx, q, nil)
}

// RunQuery plans q, vets the plan (vet, when not nil, refuses it with an
// error: a role's read check) and executes it inside tx.
func (e *Engine) RunQuery(tx *core.Tx, q *Query, vet func(*Plan) error) (*Result, error) {
	_, res, err := e.run(tx, q, vet, nil)
	return res, err
}

// run is the one statement loop: plan, vet, execute, and on ErrStalePlan
// all three again, so the vetted plan is the one that executes. It returns
// the plan that ran.
func (e *Engine) run(tx *core.Tx, q *Query, vet func(*Plan) error, span *obs.Span) (*Plan, *Result, error) {
	for n := 1; ; n++ {
		p, err := e.PlanQuery(q)
		if err == nil && vet != nil {
			err = vet(p)
		}
		if err != nil {
			return nil, nil, err
		}
		res, err := e.execute(tx, p, span)
		if !errors.Is(err, ErrStalePlan) || n == maxPlans {
			return p, res, err
		}
		mReplans.Add(1)
	}
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
// shared for the duration of the transaction (strict 2PL). A stale plan
// is refused (ErrStalePlan).
func (e *Engine) Execute(tx *core.Tx, p *Plan) (*Result, error) {
	return e.execute(tx, p, nil)
}

// execute is Execute with an optional trace span: ExplainAnalyze passes a
// root span and every stage hangs per-stage child spans (with row and
// probe counters) off it; the normal path passes nil, which every span
// method treats as a no-op.
//
// Under a snapshot transaction (core.BeginSnapshot) the same pipeline
// runs lock-free: LockClassScan is a no-op, and scans and probes resolve
// visibility by the pinned commit epoch. Either way a path dereference
// reads the object it crosses through Tx.Read: the snapshot-visible
// version, or in a locked transaction its own write, else the newest
// committed state — never another transaction's uncommitted bytes, since
// the scope S locks do not cover the classes a path leaves the scope for.
func (e *Engine) execute(tx *core.Tx, p *Plan, span *obs.Span) (res *Result, err error) {
	mQueriesTotal.Add(1)
	if err := tx.LockClassScan(p.Scope); err != nil {
		return nil, err
	}
	// The plan holds only under its epoch: read once the scope's S locks
	// keep the scope still, and again when the plan has run, for what they
	// do not hold — a snapshot, a path's classes outside the scope, an
	// index (DESIGN §4 "The plan epoch").
	if e.db.SchemaEpoch() != p.epoch {
		return nil, ErrStalePlan
	}
	defer func() {
		if e.db.SchemaEpoch() != p.epoch {
			res, err = nil, ErrStalePlan
		}
	}()
	q := p.Query
	var rows []Row
	var aggs []Accumulator // set when the index or the scan folded the aggregates
	var matched uint64
	var ordered bool // rows already arrived in ORDER BY order
	if p.cover != nil {
		if len(q.Aggregates) == 0 {
			if res, err := e.indexRows(tx, p, span); res != nil || err != nil {
				return res, err
			}
		} else if aggs, matched, err = e.foldAggregates(tx, p, span); err != nil {
			return nil, err
		}
	}
	// cur runs the program in the single-threaded stages: probe, sort, fold
	// and projection point it at one row at a time.
	var cur *cand
	if aggs == nil {
		cur = e.newCand(tx, p.prog, len(p.Scope))
	}
	switch {
	case aggs != nil:
	case p.kind == accessScan:
		var all scanPart
		all, err = e.scanRows(tx, p, span)
		rows, aggs, matched = all.rows, all.aggs, all.matched
	default:
		rows, ordered, err = e.probeRows(tx, p, cur, span, p.ordered)
	}
	if err != nil {
		return nil, err
	}

	// ORDER BY and LIMIT.
	var sortKey func(*Row) (model.Value, error)
	var sortSpan *obs.Span
	if ordered {
		span.Set("sort_skipped", 1)
	} else if q.OrderBy != nil {
		sortSpan = span.Child("sort")
		sortSpan.Set("rows_in", int64(len(rows)))
		sortKey = func(r *Row) (model.Value, error) {
			cur.object(r.Object)
			v, err := cur.value(p.prog.order)
			if err != nil {
				return model.Null, err
			}
			return *v, nil
		}
	}
	rows, err = OrderLimit(rows, sortKey, q.Desc, q.Limit)
	sortSpan.End()
	if err != nil {
		return nil, err
	}

	// Aggregates collapse the result to a single row.
	if len(q.Aggregates) > 0 {
		aggSpan := span.Child("aggregate")
		defer aggSpan.End()
		if aggs == nil {
			aggs, matched = newAccumulators(q), uint64(len(rows))
			for i := range rows {
				cur.object(rows[i].Object)
				if err := cur.accumulate(aggs, 1); err != nil {
					return nil, err
				}
			}
		}
		aggSpan.Set("rows_in", int64(matched))
		res := &Result{Rows: []Row{{Values: make([]model.Value, len(aggs))}}}
		for i := range aggs {
			res.Cols = append(res.Cols, q.Aggregates[i].String())
			res.Rows[0].Values[i] = aggs[i].Result()
		}
		return res, nil
	}

	projSpan := span.Child("project")
	projSpan.Set("rows_out", int64(len(rows)))
	defer projSpan.End()

	// Projection. One backing array serves every row's Values slice: the
	// result set is assembled and consumed together, so per-row slices
	// would only fragment the heap.
	res = &Result{}
	if len(q.Select) == 0 {
		res.Cols = []string{"oid"}
		backing := make([]model.Value, len(rows))
		for i := range rows {
			backing[i] = model.Ref(rows[i].OID)
			rows[i].Values = backing[i : i+1 : i+1]
		}
	} else {
		for _, path := range q.Select {
			res.Cols = append(res.Cols, path.String())
		}
		w := len(q.Select)
		backing := make([]model.Value, len(rows)*w)
		for i := range rows {
			vals := backing[i*w : (i+1)*w : (i+1)*w]
			cur.object(rows[i].Object)
			for j, slot := range p.prog.sel {
				v, err := cur.value(slot)
				if err != nil {
					return nil, err
				}
				vals[j] = *v
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

// scanRows runs a heap-scan plan: one scanClass per scope class, merged in
// scope order. A scope of more than one class fans out one goroutine per
// class (bounded by GOMAXPROCS): Kim's query model evaluates a
// hierarchy-scoped query as independent per-class scans, and the scope's S
// locks are already held, so the scans share nothing but the storage
// layer. Because every class yields its own part — its matching rows, or
// its aggregate partials when the statement lets the scan fold them — and
// the parts are only ever combined here, in scope order, the result does
// not depend on whether the classes ran one after another or at once.
func (e *Engine) scanRows(tx *core.Tx, p *Plan, span *obs.Span) (all scanPart, err error) {
	limit := earlyLimit(p, false)
	parts := make([]scanPart, len(p.Scope))
	// full is the smallest scope index whose class alone satisfied the
	// limit: classes after it cannot contribute to the result, so their
	// scans stop early (or never start).
	var full atomic.Int64
	full.Store(int64(len(p.Scope)))
	// Each class's span opens here, in scope order, so ANALYZE lists them
	// the same way whichever scan starts first.
	spans := make([]*obs.Span, len(p.Scope))
	for i, class := range p.Scope {
		spans[i] = span.Child("scan " + e.className(class))
	}
	if len(p.Scope) == 1 || e.serialScan {
		for i := range p.Scope {
			parts[i] = e.scanClass(tx, p, spans[i], i, limit, &full)
		}
	} else {
		mFanoutWidth.Observe(uint64(len(p.Scope)))
		span.Set("fanout_width", int64(len(p.Scope)))
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		var wg sync.WaitGroup
		for i := range p.Scope {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				parts[i] = e.scanClass(tx, p, spans[i], i, limit, &full)
			}(i)
		}
		wg.Wait()
	}
	if full.Load() < int64(len(p.Scope)) {
		span.Set("limit_early_exit", 1)
	}
	if streamsAggregates(p.Query) {
		all.aggs = newAccumulators(p.Query)
	}
	for i := range parts {
		if parts[i].err != nil {
			return scanPart{}, parts[i].err
		}
		all.matched += parts[i].matched
		for j := range parts[i].aggs {
			all.aggs[j].Merge(parts[i].aggs[j])
		}
		all.rows = append(all.rows, parts[i].rows...)
		if limit > 0 && len(all.rows) >= limit {
			all.rows = all.rows[:limit]
			break
		}
	}
	return all, nil
}

// streamsAggregates reports whether a heap scan may fold the statement's
// aggregates as it goes, keeping no rows: every match counts, in any
// order. With a LIMIT the aggregate is over the first rows only, which
// (after an ORDER BY) are known only once all are collected and sorted.
func streamsAggregates(q *Query) bool {
	return len(q.Aggregates) > 0 && q.Limit == 0 && q.OrderBy == nil
}

// scanPart is one scope class's share of a heap-scan plan, or the shares of
// all of them merged.
type scanPart struct {
	rows    []Row         // the matches, decoded — unless folded into aggs
	aggs    []Accumulator // this class's partial of each aggregate
	matched uint64
	err     error
}

// scanClass scans scope class i under its span cs. The program's slots are
// bound to the class once, and each record is read in one pass that checks
// it and decodes the attributes the predicate and the aggregates start
// from; an object is decoded only for a row that matched and is kept, or
// when a path step is a method.
func (e *Engine) scanClass(tx *core.Tx, p *Plan, cs *obs.Span, i, limit int, full *atomic.Int64) (part scanPart) {
	defer cs.End()
	if int64(i) > full.Load() {
		return part
	}
	class := p.Scope[i]
	c := e.newCand(tx, p.prog, 1)
	c.scanClass(class)
	if streamsAggregates(p.Query) {
		part.aggs = newAccumulators(p.Query)
	}
	var scanned uint64
	err := tx.ScanLocked(class, c.fields, func(im model.Image) bool {
		if int64(i) > full.Load() {
			return false
		}
		scanned++
		c.scan(im)
		var ok bool
		if ok, part.err = c.Match(); part.err != nil || !ok {
			return part.err == nil
		}
		part.matched++
		if part.aggs != nil {
			part.err = c.accumulate(part.aggs, 1)
			return part.err == nil
		}
		var obj *model.Object
		if obj, part.err = c.decoded(); part.err != nil {
			return false
		}
		part.rows = append(part.rows, Row{OID: obj.OID, Object: obj})
		if limit > 0 && len(part.rows) >= limit {
			for {
				cur := full.Load()
				if int64(i) >= cur || full.CompareAndSwap(cur, int64(i)) {
					break
				}
			}
			mEarlyExits.Add(1)
			return false
		}
		return true
	})
	mRowsScanned.Add(scanned)
	mRowsMatched.Add(part.matched)
	cs.Set("rows_scanned", int64(scanned))
	cs.Set("rows_matched", int64(part.matched))
	if err != nil {
		part.err = err
	}
	return part
}

// probeRows collects the matching rows of an index plan: collect filters
// each posting the walk reads as it comes, so LIMIT stops the walk when no
// ORDER BY needs every match. ordered asks for the order-from-index walk
// (Plan.ordered), which also ends at LIMIT and lets the caller skip the
// sort. Where that order cannot be trusted (DESIGN §4 "The index walk": a
// matched row's key is inexact, or a snapshot's overlay is non-empty before
// or after the walk), probeRows downgrades in place: it reports false and
// collects every match for the sort instead. A snapshot resolves each
// candidate at its epoch, then sweeps the scope's overlay, where an object
// re-keyed or deleted since the snapshot began is found; collect's full
// WHERE re-evaluation keeps stale postings out.
func (e *Engine) probeRows(tx *core.Tx, p *Plan, cur *cand, span *obs.Span, ordered bool) ([]Row, bool, error) {
	w := &walk{tx: tx, p: p, span: span, rows: true}
	if ordered && w.overlay() != nil {
		// The index has already moved under this snapshot: where overlay
		// rows sort is unknown, so do not start an ordered walk at all.
		ordered = false
	}
	limit := earlyLimit(p, ordered)
	var rows []Row
	seen := make(map[model.OID]bool)
	full := false

	// collect filters one candidate OID into rows and reports whether the
	// walk goes on (limit not yet satisfied, no evaluation error).
	var cerr error
	collect := func(oid model.OID) bool {
		if seen[oid] {
			return true
		}
		seen[oid] = true
		w.examined++
		obj, err := tx.Read(oid)
		if err != nil {
			return true // dangling entry or invisible at this snapshot
		}
		cur.object(obj)
		ok, err := cur.Match()
		if ok && ordered {
			var v *model.Value
			if v, err = cur.value(p.prog.order); err == nil && !model.KeyExact(*v) {
				// Nothing was skipped so far; collect the rest and sort.
				ordered, limit = false, earlyLimit(p, false)
			}
		}
		if err != nil {
			cerr = err
			return false
		}
		if !ok {
			return true
		}
		w.matched++
		rows = append(rows, Row{OID: obj.OID, Object: obj})
		full = limit > 0 && len(rows) >= limit
		return !full
	}
	// probe walks the plan's indexes; "resume" names the second walk of a
	// downgraded ordered plan, which is not another probe in the counters.
	probe := func(verb string) {
		for _, idx := range p.indexes {
			if full || cerr != nil {
				return
			}
			if verb == "probe" {
				mIndexProbes.Add(1)
			}
			w.sweep(verb+" "+idx.Name, idx, nil, collect)
		}
	}
	probe("probe")

	// Overlay sweep (snapshot mode only). An ordered walk reads the overlay
	// even when LIMIT already stopped it.
	if cerr == nil && (ordered || !full) {
		overlay := w.overlay()
		if ordered && overlay != nil {
			// A commit landed during the walk. Every posting up to the stop
			// was examined, so the rows so far stand; if LIMIT cut the walk
			// short, pick up the rest (seen skips what was already judged).
			ordered, limit = false, earlyLimit(p, false)
			if full {
				full = false
				probe("resume")
			}
		}
		for i, oids := range overlay {
			if len(oids) > 0 && !full && cerr == nil {
				w.sweep("overlay "+e.className(p.Scope[i]), nil, oids, collect)
			}
		}
	}
	if cerr != nil {
		return nil, false, cerr
	}
	if full {
		w.limited()
	}
	return rows, ordered, nil
}

// newAccumulators returns one empty accumulator per aggregate of q.
func newAccumulators(q *Query) []Accumulator {
	aggs := make([]Accumulator, len(q.Aggregates))
	for i, agg := range q.Aggregates {
		aggs[i] = NewAccumulator(agg.Func)
	}
	return aggs
}
