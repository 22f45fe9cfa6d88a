package query

import (
	"math"
	"math/bits"

	"oodb/internal/core"
	"oodb/internal/index"
	"oodb/internal/model"
	"oodb/internal/obs"
	"oodb/internal/schema"
)

// The index fold answers an aggregate statement from the keys of the index
// on the one attribute it reads, without reading a record (DESIGN §4
// "Index fold"). A class-hierarchy index's postings carry the class inside
// each OID, so the keys of any sub-scope of the hierarchy are counted from
// the index alone; the instances the index holds no key for are the ones
// whose attribute is null, and the index counts those per class.

// foldable returns the index whose keys answer p's aggregates and the key
// interval to walk — the plan's interval, or the whole key range for a
// heap-scan plan — or nil when a precondition fails: the statement streams
// its aggregates (no ORDER BY, no LIMIT); its WHERE clause and aggregates
// read one slot, a one-step path; in every scope class that step is the
// same single-valued Integer attribute with a null default; one index on it
// covers the scope; and ForceScan is off.
func (e *Engine) foldable(p *Plan) (*index.Index, index.Interval) {
	prog := p.prog
	if e.ForceScan || !streamsAggregates(p.Query) || prog.scanned != 1 || len(prog.paths[0]) != 1 {
		return nil, index.Interval{}
	}
	var attr model.AttrID
	for i, class := range p.Scope {
		a, err := e.db.Catalog.ResolveAttr(class, prog.paths[0][0])
		if err != nil || a.SetValued || a.Domain != schema.ClassInteger || !a.Default.IsNull() || (i > 0 && a.ID != attr) {
			return nil, index.Interval{}
		}
		attr = a.ID
	}
	idx := e.findCoveringIndex(p, []model.AttrID{attr})
	switch {
	case idx == nil:
		return nil, index.Interval{}
	case p.kind == accessScan:
		return idx, index.Interval{}
	case p.indexes[0] != idx:
		return nil, index.Interval{}
	}
	return idx, p.iv
}

// foldAggregates answers p's aggregates from idx's keys in iv: each key
// that holds postings of a scope class is decoded, the program's predicate
// runs once on the value, and a match is added to the accumulators weighted
// by its posting count; then the scope's unkeyed instances are added as
// nulls when the predicate matches null. Nothing is fetched. It returns nil
// accumulators when it gives up — a key that is not exact
// (model.KeyExact), an integer sum that could leave int64 in some order of
// adding, or a snapshot whose scope overlay is non-empty before or after
// the walk — and the caller runs the statement's ordinary path instead.
func (e *Engine) foldAggregates(tx *core.Tx, p *Plan, idx *index.Index, iv index.Interval, span *obs.Span) ([]Accumulator, uint64, error) {
	s := span.Child("index-agg " + idx.Name)
	defer s.End()
	giveUp := func(reason string) ([]Accumulator, uint64, error) {
		mFoldFallbacks.Add(1)
		s.Set("fallback_"+reason, 1)
		return nil, 0, nil
	}
	if overlayMoved(tx, p.Scope) {
		return giveUp("snapshot_overlay")
	}
	aggs := newAccumulators(p.Query)
	var v model.Value
	f := p.prog.NewFrame(func(int) (model.Value, error) { return v, nil })
	// mag is Σ|v|·n over the matched keys: while it stays below 2^63 no
	// order of adding the instances (a heap scan adds them in heap order)
	// takes an integer sum out of int64.
	var mag, keys, postings, unkeyed uint64
	var reason string
	var err error
	idx.KeyCounts(iv, p.Scope, func(key []byte, n int) bool {
		keys++
		var ok bool
		if v, ok = model.DecodeIntKey(key); !ok || !model.KeyExact(v) {
			reason = "inexact_key"
			return false
		}
		f.Reset()
		if ok, err = f.Match(); err != nil || !ok {
			return err == nil
		}
		i, _ := v.AsInt()
		hi, lo := bits.Mul64(uint64(max(i, -i)), uint64(n))
		var carry uint64
		if mag, carry = bits.Add64(mag, lo, 0); hi != 0 || carry != 0 || mag > math.MaxInt64 {
			reason = "int64_overflow"
			return false
		}
		postings += uint64(n)
		err = f.accumulate(aggs, int64(n))
		return err == nil
	})
	s.Set("keys_walked", int64(keys))
	switch {
	case err != nil:
		return nil, 0, err
	case reason != "":
		return giveUp(reason)
	}
	if n := idx.Unkeyed(p.Scope); n > 0 {
		v = model.Null
		f.Reset()
		ok, err := f.Match()
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
		return giveUp("snapshot_overlay")
	}
	mFolds.Add(1)
	s.Set("postings_folded", int64(postings))
	s.Set("unkeyed_folded", int64(unkeyed))
	return aggs, postings + unkeyed, nil
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
