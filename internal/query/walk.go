package query

import (
	"bytes"

	"oodb/internal/core"
	"oodb/internal/index"
	"oodb/internal/model"
	"oodb/internal/obs"
)

// walk is the executor's one reader of an index (DESIGN §4 "The index
// walk"): each read is of one index over one interval for the plan's
// scope, under a span of its own — a probe's postings (probeRows), a
// covered statement's (key, posting) pairs (indexRows) or node summaries
// (foldAggregates). It alone passes the scope to the index, reads the
// snapshot overlay, gives a covered read up at an inexact key, and
// publishes what each read counted.
type walk struct {
	tx                *core.Tx
	p                 *Plan
	idx               *index.Index // a covered statement's; a probe names one per read
	span, s           *obs.Span    // the statement's, the current read's
	rows              bool         // the reads yield rows, examined and matched
	reason            string       // why a covered read gave up
	frame             Frame        // a covered read's program, its one slot holding key
	key               model.Value
	seen              index.Visits
	examined, matched int64
}

// afterRead, nil in production, runs between a covered read and its
// post-read overlay check: a test lands a commit there.
var afterRead func()

// sweep reads idx's postings in the plan's interval — or, when idx is nil,
// the OIDs given — under a span named name, calling visit with each until
// it returns false.
func (w *walk) sweep(name string, idx *index.Index, oids []model.OID, visit func(model.OID) bool) {
	w.s, w.examined, w.matched = w.span.Child(name), 0, 0
	defer w.end()
	if idx != nil {
		idx.Scan(w.p.iv, w.p.Scope, func(_ []byte, oid model.OID) bool { return visit(oid) })
	}
	for _, oid := range oids {
		if !visit(oid) {
			return
		}
	}
}

// cover runs read, the one read of a covered statement, under a span named
// name, and reports whether its answer stands: the read did not give up,
// and the overlay was empty before and after it. A writer records its
// version chain before it moves an index entry, so an overlay empty on
// both sides means the postings read were the snapshot's.
func (w *walk) cover(name string, read func() error) (bool, error) {
	w.s = w.span.Child(name)
	defer w.end()
	if w.overlay() != nil {
		w.reason = "snapshot_overlay"
	} else if err := read(); err != nil {
		return false, err
	} else if afterRead != nil {
		afterRead()
	}
	if w.reason == "" && w.overlay() != nil {
		w.reason = "snapshot_overlay"
	}
	return w.reason == "", nil
}

// end closes the read's span with what it counted, or why it gave up.
func (w *walk) end() {
	defer w.s.End()
	if w.reason != "" {
		mFoldFallbacks.Add(1)
		w.s.Set("fallback_"+w.reason, 1)
		return
	}
	if w.idx != nil { // a covered read
		w.s.Set("keys_walked", w.seen.Keys)
	}
	if w.rows {
		mRowsScanned.Add(uint64(w.examined))
		mRowsMatched.Add(uint64(w.matched))
		w.s.Set("rows_examined", w.examined)
		w.s.Set("rows_matched", w.matched)
	}
}

// limited records that LIMIT stopped the statement's reads early.
func (w *walk) limited() {
	mEarlyExits.Add(1)
	w.span.Set("limit_early_exit", 1)
}

// overlay returns each scope class's snapshot overlay, in scope order, or
// nil when all are empty — always for a locked transaction, whose scope S
// locks keep the scope's postings still.
func (w *walk) overlay() [][]model.OID {
	var out [][]model.OID
	for i, class := range w.p.Scope {
		if oids := w.tx.SnapshotOverlayOIDs(class); len(oids) > 0 {
			if out == nil {
				out = make([][]model.OID, len(w.p.Scope))
			}
			out[i] = oids
		}
	}
	return out
}

// match runs the program with its one slot holding v.
func (w *walk) match(v model.Value) (bool, error) {
	if w.frame.prog == nil {
		w.frame = *w.p.prog.NewFrame(func(int) (model.Value, error) { return w.key, nil })
	}
	w.key = v
	w.frame.Reset()
	return w.frame.Match()
}

// keyRows reads the (key, posting) pairs of iv in key order, matches each
// key once, and calls row with each posting whose key matched (its value
// in key) until row returns false.
func (w *walk) keyRows(iv index.Interval, row func(model.OID) bool) (err error) {
	var prev []byte
	ok := false
	w.idx.Scan(iv, w.p.Scope, func(key []byte, oid model.OID) bool {
		w.examined++
		if !bytes.Equal(key, prev) {
			w.seen.Keys, prev = w.seen.Keys+1, key
			if v, exact := model.DecodeIntKey(key); !exact || !model.KeyExact(v) {
				w.reason = "inexact_key"
				return false
			} else if ok, err = w.match(v); err != nil {
				return false
			}
		}
		if ok {
			w.matched++
			return row(oid)
		}
		return true
	})
	return err
}

// summarize returns the Summary of the scope's postings under iv's keys,
// read from the index's node summaries.
func (w *walk) summarize(iv index.Interval) index.Summary {
	s := w.idx.Summarize(iv, w.p.Scope, &w.seen)
	if s.Inexact > 0 {
		w.reason = "inexact_key"
	}
	return s
}

// edge returns the integer of the least key in iv that indexes a scope
// instance — the greatest when last is set — or null when none does.
func (w *walk) edge(iv index.Interval, last bool) model.Value {
	v, _ := model.DecodeIntKey(w.idx.Edge(iv, w.p.Scope, last))
	return v
}

// unkeyed returns how many scope instances the index holds no key for.
func (w *walk) unkeyed() int { return w.idx.Unkeyed(w.p.Scope) }
